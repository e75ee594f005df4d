//! Pluggable O(1) buffer replacement policies.
//!
//! The paper's headline experiments run disk-based at 2M–32M keys — data far
//! larger than memory — so every buffer-pool miss pays for victim selection.
//! The original pool picked its victim with an O(n) `min_by_key(last_used)`
//! scan under the pool mutex; at a few thousand frames that scan dominates
//! the miss path.  This module makes replacement a first-class subsystem:
//! the pool drives a [`ReplacementPolicy`] chosen by
//! [`ReplacementPolicyKind`] in `BufferPoolConfig`, and every policy decides
//! victims in amortized O(1).
//!
//! Three policies:
//!
//! * [`LruList`] — classic LRU over an intrusive doubly-linked list: O(1)
//!   touch (unlink + relink at head) and O(1) evict (pop tail).  Scan-hinted
//!   pages enter an *old region* at the tail side (midpoint insertion): a
//!   one-touch page is the preferred victim, a re-referenced page is promoted
//!   into the young region.
//! * [`ClockRing`] — second-chance ring.  A hand sweeps the ring clearing
//!   reference bits; a page is evicted when the hand finds its bit clear.
//!   Scan-hinted pages are inserted *at the hand* with the bit clear, so
//!   they are the next victim candidate unless re-referenced.
//! * [`SieveHand`] — SIEVE (NSDI'24): a FIFO queue with a `visited` bit and
//!   a hand that moves from tail to head, evicting the first unvisited page
//!   and *lazily* clearing bits as it passes.  Pages are never moved on hit,
//!   which keeps hits O(1) with a single bit write and makes the policy
//!   naturally resistant to one-touch pollution; scan-hinted pages are
//!   additionally inserted at the hand.  This is the default.
//!
//! Policies order *frame slots* (stable indices into the pool's frame slab);
//! they never see page ids or page contents.  Pin and dirty discipline stay
//! the pool's job: [`ReplacementPolicy::evict`] consults an `evictable`
//! predicate and must never return a slot the predicate rejects, so a pinned
//! frame or (in no-steal mode) a dirty frame is never chosen no matter the
//! policy.
//!
//! ## Access hints
//!
//! [`AccessHint::Scan`] marks fetches made by sequential, one-touch access
//! patterns — heap sequential scans, whole-tree statistics walks, bulk-build
//! page writes.  A scan-hinted *insertion* places the page at the policy's
//! eviction-preferred position, and a scan-hinted *touch* never promotes, so
//! one pass over a huge table cannot flush the index's hot upper levels out
//! of the pool.  Any later [`AccessHint::Normal`] access promotes the page
//! exactly as if it had entered normally.

/// Sentinel for "no slot" in the intrusive link arrays.
const NIL: usize = usize::MAX;

/// How a page fetch should influence the replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// A point access: the page may be re-referenced soon, cache it normally.
    #[default]
    Normal,
    /// A sequential one-touch access (seq scan, stats walk, bulk build):
    /// insert at the eviction-preferred position and never promote on touch.
    Scan,
}

/// Selects the [`ReplacementPolicy`] a `BufferPool` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicyKind {
    /// Intrusive-list LRU with midpoint (old-region) scan insertion.
    Lru,
    /// Second-chance clock ring.
    Clock,
    /// SIEVE: FIFO with lazy promotion — the scan-resistant default.
    #[default]
    Sieve,
}

impl ReplacementPolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [ReplacementPolicyKind; 3] = [
        ReplacementPolicyKind::Lru,
        ReplacementPolicyKind::Clock,
        ReplacementPolicyKind::Sieve,
    ];

    /// Stable lowercase name, used in `IoStats` and benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicyKind::Lru => "lru",
            ReplacementPolicyKind::Clock => "clock",
            ReplacementPolicyKind::Sieve => "sieve",
        }
    }

    /// Parses a [`ReplacementPolicyKind::name`] back into a kind.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds a fresh policy instance of this kind.
    pub fn build(self) -> Box<dyn ReplacementPolicy + Send> {
        match self {
            ReplacementPolicyKind::Lru => Box::new(LruList::new()),
            ReplacementPolicyKind::Clock => Box::new(ClockRing::new()),
            ReplacementPolicyKind::Sieve => Box::new(SieveHand::new()),
        }
    }
}

/// Victim selection over the pool's frame slots.
///
/// The pool calls `insert` when a page enters a slot, `touch` on every hit,
/// `remove` when a slot leaves the pool outside eviction (page freed), and
/// `evict` to choose and unlink a victim.  A slot is in the policy's
/// structure from `insert` until `remove`/successful `evict`; the pool never
/// passes an untracked slot to `touch`/`remove`.
pub trait ReplacementPolicy {
    /// The policy's stable name (matches [`ReplacementPolicyKind::name`]).
    fn name(&self) -> &'static str;

    /// Tracks a page newly placed in `slot`.
    fn insert(&mut self, slot: usize, hint: AccessHint);

    /// Records a hit on `slot`.
    fn touch(&mut self, slot: usize, hint: AccessHint);

    /// Stops tracking `slot` (page freed or dropped outside eviction).
    fn remove(&mut self, slot: usize);

    /// Chooses a victim among tracked slots for which `evictable` returns
    /// `true`, unlinks it, and returns it; `None` when no tracked slot is
    /// evictable.  Must never return a slot `evictable` rejected.
    fn evict(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize>;

    /// Number of tracked slots.
    fn len(&self) -> usize;

    /// Whether no slots are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Grows a per-slot vector so `slot` is indexable.
fn ensure_slot<T: Clone>(v: &mut Vec<T>, slot: usize, fill: T) {
    if slot >= v.len() {
        v.resize(slot + 1, fill);
    }
}

// ---------------------------------------------------------------------------
// LRU: intrusive doubly-linked list with an old region for scans
// ---------------------------------------------------------------------------

/// O(1) LRU.  `next` points toward the tail (older), `prev` toward the head
/// (recently used).  Evicts from the tail.  Scan-hinted insertions enter at
/// the head of the *old region* — the contiguous run of scan pages at the
/// tail — so sequential one-touch pages compete with each other for frames,
/// not with the recently-used region.
pub struct LruList {
    prev: Vec<usize>,
    next: Vec<usize>,
    /// Whether the slot currently sits in the old (scan) region.
    old: Vec<bool>,
    tracked: Vec<bool>,
    head: usize,
    tail: usize,
    /// Frontmost (most protected) old-region slot; everything from here to
    /// the tail is old.
    old_head: usize,
    len: usize,
}

impl LruList {
    /// An empty list.
    pub fn new() -> Self {
        LruList {
            prev: Vec::new(),
            next: Vec::new(),
            old: Vec::new(),
            tracked: Vec::new(),
            head: NIL,
            tail: NIL,
            old_head: NIL,
            len: 0,
        }
    }

    fn grow(&mut self, slot: usize) {
        ensure_slot(&mut self.prev, slot, NIL);
        ensure_slot(&mut self.next, slot, NIL);
        ensure_slot(&mut self.old, slot, false);
        ensure_slot(&mut self.tracked, slot, false);
    }

    fn push_head(&mut self, slot: usize) {
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn push_tail(&mut self, slot: usize) {
        self.next[slot] = NIL;
        self.prev[slot] = self.tail;
        if self.tail != NIL {
            self.next[self.tail] = slot;
        }
        self.tail = slot;
        if self.head == NIL {
            self.head = slot;
        }
    }

    /// Links `slot` immediately head-ward of `at`.
    fn insert_before(&mut self, slot: usize, at: usize) {
        let p = self.prev[at];
        self.prev[slot] = p;
        self.next[slot] = at;
        self.prev[at] = slot;
        if p == NIL {
            self.head = slot;
        } else {
            self.next[p] = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
    }

    /// Detaches `slot` from the old-region bookkeeping before it leaves its
    /// position.  Everything tail-ward of `old_head` is old, so when the
    /// boundary slot itself leaves, the next old slot (if any) becomes the
    /// boundary.
    fn leave_old(&mut self, slot: usize) {
        if self.old_head == slot {
            let n = self.next[slot];
            self.old_head = if n != NIL && self.old[n] { n } else { NIL };
        }
        self.old[slot] = false;
    }
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for LruList {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn insert(&mut self, slot: usize, hint: AccessHint) {
        self.grow(slot);
        debug_assert!(!self.tracked[slot], "slot inserted twice");
        self.tracked[slot] = true;
        self.len += 1;
        match hint {
            AccessHint::Normal => {
                self.old[slot] = false;
                self.push_head(slot);
            }
            AccessHint::Scan => {
                self.old[slot] = true;
                if self.old_head == NIL {
                    self.push_tail(slot);
                } else {
                    self.insert_before(slot, self.old_head);
                }
                self.old_head = slot;
            }
        }
    }

    fn touch(&mut self, slot: usize, hint: AccessHint) {
        if hint == AccessHint::Scan {
            // Lazy: a scan re-reading a page (several records on one page)
            // must not promote it.
            return;
        }
        self.leave_old(slot);
        if self.head != slot {
            self.unlink(slot);
            self.push_head(slot);
        }
    }

    fn remove(&mut self, slot: usize) {
        debug_assert!(self.tracked[slot], "removing untracked slot");
        self.leave_old(slot);
        self.unlink(slot);
        self.tracked[slot] = false;
        self.len -= 1;
    }

    fn evict(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        // Walk tail-ward frames oldest-first, skipping blocked (pinned or
        // dirty-in-no-steal) ones.  The common case takes the tail directly;
        // blocked frames are rare (pins are closure-scoped under the pool
        // mutex) except in no-steal overflow, where the caller grows the
        // pool anyway.
        let mut cur = self.tail;
        while cur != NIL {
            if evictable(cur) {
                self.remove(cur);
                return Some(cur);
            }
            cur = self.prev[cur];
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Clock: second-chance ring
// ---------------------------------------------------------------------------

/// O(1) amortized second-chance clock.  The hand advances along `next`;
/// every touched frame gets one more sweep before eviction.  Normal
/// insertions land just behind the hand (a full sweep of grace) with their
/// reference bit set; scan insertions land *at* the hand with the bit clear,
/// making them the next victim candidate.
pub struct ClockRing {
    prev: Vec<usize>,
    next: Vec<usize>,
    referenced: Vec<bool>,
    tracked: Vec<bool>,
    hand: usize,
    len: usize,
}

impl ClockRing {
    /// An empty ring.
    pub fn new() -> Self {
        ClockRing {
            prev: Vec::new(),
            next: Vec::new(),
            referenced: Vec::new(),
            tracked: Vec::new(),
            hand: NIL,
            len: 0,
        }
    }

    fn grow(&mut self, slot: usize) {
        ensure_slot(&mut self.prev, slot, NIL);
        ensure_slot(&mut self.next, slot, NIL);
        ensure_slot(&mut self.referenced, slot, false);
        ensure_slot(&mut self.tracked, slot, false);
    }

    /// Links `slot` into the ring immediately before the hand in sweep
    /// order (the hand reaches it only after a full revolution).
    fn link_before_hand(&mut self, slot: usize) {
        if self.hand == NIL {
            self.prev[slot] = slot;
            self.next[slot] = slot;
            self.hand = slot;
        } else {
            let p = self.prev[self.hand];
            self.next[p] = slot;
            self.prev[slot] = p;
            self.next[slot] = self.hand;
            self.prev[self.hand] = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        if self.next[slot] == slot {
            self.hand = NIL;
        } else {
            let (p, n) = (self.prev[slot], self.next[slot]);
            self.next[p] = n;
            self.prev[n] = p;
            if self.hand == slot {
                self.hand = n;
            }
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
    }
}

impl Default for ClockRing {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for ClockRing {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn insert(&mut self, slot: usize, hint: AccessHint) {
        self.grow(slot);
        debug_assert!(!self.tracked[slot], "slot inserted twice");
        self.tracked[slot] = true;
        self.len += 1;
        self.link_before_hand(slot);
        match hint {
            AccessHint::Normal => self.referenced[slot] = true,
            AccessHint::Scan => {
                // Next victim candidate unless re-referenced first.
                self.referenced[slot] = false;
                self.hand = slot;
            }
        }
    }

    fn touch(&mut self, slot: usize, hint: AccessHint) {
        if hint == AccessHint::Normal {
            self.referenced[slot] = true;
            if self.hand == slot {
                // A scan insertion parked the hand on this slot; the
                // re-reference promotes it to a full sweep of grace.
                self.hand = self.next[slot];
            }
        }
    }

    fn remove(&mut self, slot: usize) {
        debug_assert!(self.tracked[slot], "removing untracked slot");
        self.unlink(slot);
        self.tracked[slot] = false;
        self.len -= 1;
    }

    fn evict(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        if self.hand == NIL {
            return None;
        }
        // Two full sweeps bound the search: the first clears every set
        // reference bit, the second must find a victim unless every frame is
        // blocked.  Each cleared bit was paid for by a touch, so the
        // amortized cost per miss is O(1).
        let mut remaining = 2 * self.len + 1;
        while remaining > 0 {
            remaining -= 1;
            let cur = self.hand;
            if !evictable(cur) {
                self.hand = self.next[cur];
            } else if self.referenced[cur] {
                self.referenced[cur] = false;
                self.hand = self.next[cur];
            } else {
                self.remove(cur);
                return Some(cur);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// SIEVE: FIFO queue + lazy-promotion hand
// ---------------------------------------------------------------------------

/// SIEVE (Zhang et al., NSDI'24).  A FIFO list (new pages at the head) with
/// a hand moving tail→head.  The hand evicts the first frame whose `visited`
/// bit is clear and lazily clears bits as it passes; hits only set the bit —
/// frames are never relinked on access, so hot frames are retained without
/// LRU's constant list surgery.  One-touch pages keep a clear bit and are
/// sieved out on the hand's first pass; scan-hinted pages are inserted at
/// the hand, making them immediate candidates.
pub struct SieveHand {
    prev: Vec<usize>,
    next: Vec<usize>,
    visited: Vec<bool>,
    tracked: Vec<bool>,
    head: usize,
    tail: usize,
    /// Next slot the hand examines; `NIL` means "wrap to the tail".
    hand: usize,
    len: usize,
}

impl SieveHand {
    /// An empty queue.
    pub fn new() -> Self {
        SieveHand {
            prev: Vec::new(),
            next: Vec::new(),
            visited: Vec::new(),
            tracked: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            len: 0,
        }
    }

    fn grow(&mut self, slot: usize) {
        ensure_slot(&mut self.prev, slot, NIL);
        ensure_slot(&mut self.next, slot, NIL);
        ensure_slot(&mut self.visited, slot, false);
        ensure_slot(&mut self.tracked, slot, false);
    }

    fn push_head(&mut self, slot: usize) {
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Links `slot` immediately tail-ward of `at`.
    fn insert_after(&mut self, slot: usize, at: usize) {
        let n = self.next[at];
        self.next[at] = slot;
        self.prev[slot] = at;
        self.next[slot] = n;
        if n == NIL {
            self.tail = slot;
        } else {
            self.prev[n] = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        if self.hand == slot {
            // The hand keeps moving tail→head past the vacated position.
            self.hand = self.prev[slot];
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
    }
}

impl Default for SieveHand {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for SieveHand {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn insert(&mut self, slot: usize, hint: AccessHint) {
        self.grow(slot);
        debug_assert!(!self.tracked[slot], "slot inserted twice");
        self.tracked[slot] = true;
        self.len += 1;
        self.visited[slot] = false;
        match hint {
            AccessHint::Normal => self.push_head(slot),
            AccessHint::Scan => {
                // Directly under the hand: examined (and, untouched, evicted)
                // at the very next miss.
                match self.hand {
                    NIL => {
                        self.push_head(slot);
                        self.hand = slot;
                    }
                    h => {
                        self.insert_after(slot, h);
                        self.hand = slot;
                    }
                }
            }
        }
    }

    fn touch(&mut self, slot: usize, hint: AccessHint) {
        if hint == AccessHint::Normal {
            self.visited[slot] = true;
        }
    }

    fn remove(&mut self, slot: usize) {
        debug_assert!(self.tracked[slot], "removing untracked slot");
        self.unlink(slot);
        self.tracked[slot] = false;
        self.len -= 1;
    }

    fn evict(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Two passes bound the walk exactly as for the clock: the first
        // clears `visited` bits (each paid for by a hit), the second finds
        // the victim unless everything is blocked.
        let mut remaining = 2 * self.len + 1;
        while remaining > 0 {
            remaining -= 1;
            let cur = if self.hand == NIL {
                self.tail
            } else {
                self.hand
            };
            if self.visited[cur] {
                self.visited[cur] = false;
                self.hand = self.prev[cur];
            } else if evictable(cur) {
                self.remove(cur);
                return Some(cur);
            } else {
                self.hand = self.prev[cur];
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic xorshift for the crate's property tests (the workspace
    /// builds offline; no rand crate).
    pub(crate) struct Rng(pub(crate) u64);
    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn policies() -> Vec<Box<dyn ReplacementPolicy + Send>> {
        ReplacementPolicyKind::ALL
            .iter()
            .map(|k| k.build())
            .collect()
    }

    #[test]
    fn kind_name_parse_roundtrip() {
        for kind in ReplacementPolicyKind::ALL {
            assert_eq!(ReplacementPolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(ReplacementPolicyKind::parse("mru"), None);
        assert_eq!(
            ReplacementPolicyKind::default(),
            ReplacementPolicyKind::Sieve
        );
    }

    #[test]
    fn evict_empty_returns_none() {
        for mut p in policies() {
            assert_eq!(p.evict(&mut |_| true), None, "{}", p.name());
        }
    }

    #[test]
    fn single_slot_insert_evict() {
        for mut p in policies() {
            p.insert(0, AccessHint::Normal);
            assert_eq!(p.len(), 1);
            assert_eq!(p.evict(&mut |_| true), Some(0), "{}", p.name());
            assert_eq!(p.len(), 0);
            assert_eq!(p.evict(&mut |_| true), None);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = LruList::new();
        for s in 0..4 {
            p.insert(s, AccessHint::Normal);
        }
        p.touch(0, AccessHint::Normal); // order oldest-first: 1, 2, 3, 0
        assert_eq!(p.evict(&mut |_| true), Some(1));
        assert_eq!(p.evict(&mut |_| true), Some(2));
        p.touch(3, AccessHint::Normal); // order: 0, 3
        assert_eq!(p.evict(&mut |_| true), Some(0));
        assert_eq!(p.evict(&mut |_| true), Some(3));
    }

    #[test]
    fn lru_scan_insertions_evict_before_normal_pages() {
        let mut p = LruList::new();
        p.insert(0, AccessHint::Normal);
        p.insert(1, AccessHint::Normal);
        // 0 and 1 are older than every scan page, yet scans must go first.
        p.insert(2, AccessHint::Scan);
        p.insert(3, AccessHint::Scan);
        p.touch(2, AccessHint::Scan); // scan touch must not promote
        assert_eq!(p.evict(&mut |_| true), Some(2), "oldest scan page first");
        assert_eq!(p.evict(&mut |_| true), Some(3));
        assert_eq!(p.evict(&mut |_| true), Some(0), "then normal LRU order");
    }

    #[test]
    fn lru_normal_touch_promotes_scan_page_out_of_old_region() {
        let mut p = LruList::new();
        p.insert(0, AccessHint::Normal);
        p.insert(1, AccessHint::Scan);
        p.touch(1, AccessHint::Normal); // re-referenced: now young, MRU
        p.insert(2, AccessHint::Scan);
        assert_eq!(p.evict(&mut |_| true), Some(2));
        assert_eq!(p.evict(&mut |_| true), Some(0));
        assert_eq!(p.evict(&mut |_| true), Some(1));
    }

    #[test]
    fn clock_gives_touched_frames_a_second_chance() {
        let mut p = ClockRing::new();
        for s in 0..3 {
            p.insert(s, AccessHint::Normal);
        }
        // All referenced: the first eviction clears bits for a full sweep,
        // then takes the first frame it revisits.
        let first = p.evict(&mut |_| true).unwrap();
        p.touch(first ^ 1, AccessHint::Normal); // arbitrary surviving slot
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn clock_scan_insertions_are_next_victims() {
        let mut p = ClockRing::new();
        p.insert(0, AccessHint::Normal);
        p.insert(1, AccessHint::Normal);
        p.insert(2, AccessHint::Scan);
        assert_eq!(p.evict(&mut |_| true), Some(2), "scan page goes first");
    }

    #[test]
    fn clock_scan_page_survives_when_re_referenced() {
        let mut p = ClockRing::new();
        p.insert(0, AccessHint::Normal);
        p.insert(1, AccessHint::Scan);
        p.touch(1, AccessHint::Normal);
        let v = p.evict(&mut |_| true).unwrap();
        assert_ne!(v, 1, "re-referenced scan page must not be the victim");
    }

    #[test]
    fn sieve_sieves_out_one_touch_pages() {
        let mut p = SieveHand::new();
        for s in 0..4 {
            p.insert(s, AccessHint::Normal);
        }
        p.touch(1, AccessHint::Normal);
        p.touch(3, AccessHint::Normal);
        // Hand starts at the tail (0, the first insertion): 0 is unvisited →
        // victim.  Then 2.  Visited 1 and 3 survive with bits cleared.
        assert_eq!(p.evict(&mut |_| true), Some(0));
        assert_eq!(p.evict(&mut |_| true), Some(2));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn sieve_scan_insertions_are_next_victims() {
        let mut p = SieveHand::new();
        for s in 0..3 {
            p.insert(s, AccessHint::Normal);
            p.touch(s, AccessHint::Normal);
        }
        p.insert(3, AccessHint::Scan);
        p.touch(3, AccessHint::Scan); // scan touch: no promotion
        assert_eq!(p.evict(&mut |_| true), Some(3), "scan page sieved first");
    }

    /// The core safety property: whatever the access pattern, `evict` never
    /// returns a slot the predicate rejected (the pool maps "rejected" to
    /// pinned frames and, in no-steal mode, dirty frames).
    #[test]
    fn property_evict_never_returns_blocked_slot() {
        for kind in ReplacementPolicyKind::ALL {
            let mut rng = Rng(0x5EED ^ kind.name().len() as u64);
            let mut p = kind.build();
            let mut tracked: Vec<usize> = Vec::new();
            let mut next_slot = 0usize;
            for _ in 0..4000 {
                match rng.below(10) {
                    0..=3 => {
                        let hint = if rng.below(2) == 0 {
                            AccessHint::Normal
                        } else {
                            AccessHint::Scan
                        };
                        p.insert(next_slot, hint);
                        tracked.push(next_slot);
                        next_slot += 1;
                    }
                    4..=6 if !tracked.is_empty() => {
                        let s = tracked[rng.below(tracked.len())];
                        let hint = if rng.below(2) == 0 {
                            AccessHint::Normal
                        } else {
                            AccessHint::Scan
                        };
                        p.touch(s, hint);
                    }
                    7 if !tracked.is_empty() => {
                        let i = rng.below(tracked.len());
                        let s = tracked.swap_remove(i);
                        p.remove(s);
                    }
                    _ if !tracked.is_empty() => {
                        // Block a random subset; eviction must respect it.
                        let mut blocked = vec![false; next_slot];
                        for _ in 0..rng.below(tracked.len() + 1) {
                            blocked[tracked[rng.below(tracked.len())]] = true;
                        }
                        let all_blocked = tracked.iter().all(|&s| blocked[s]);
                        match p.evict(&mut |s| !blocked[s]) {
                            Some(v) => {
                                assert!(!blocked[v], "{}: evicted a blocked slot", kind.name());
                                let i = tracked.iter().position(|&s| s == v).unwrap();
                                tracked.swap_remove(i);
                            }
                            None => {
                                assert!(
                                    all_blocked,
                                    "{}: refused to evict with unblocked slots tracked",
                                    kind.name()
                                );
                            }
                        }
                    }
                    _ => {}
                }
                assert_eq!(p.len(), tracked.len(), "{}: len drifted", kind.name());
            }
        }
    }

    /// Exercises a scan-heavy mixed pattern and checks each policy's
    /// bookkeeping stays consistent while every eviction request on a
    /// non-empty, fully-evictable policy succeeds.
    #[test]
    fn property_mixed_scan_pattern_always_finds_victims() {
        for kind in ReplacementPolicyKind::ALL {
            let mut p = kind.build();
            let mut rng = Rng(0xBEEF);
            let mut live: Vec<usize> = Vec::new();
            for slot in 0..512 {
                let hint = if slot % 3 == 0 {
                    AccessHint::Scan
                } else {
                    AccessHint::Normal
                };
                p.insert(slot, hint);
                live.push(slot);
                if live.len() > 64 {
                    let hot = live[rng.below(live.len())];
                    p.touch(hot, AccessHint::Normal);
                    let v = p.evict(&mut |_| true).unwrap_or_else(|| {
                        panic!("{}: no victim at {} slots", kind.name(), live.len())
                    });
                    let i = live.iter().position(|&s| s == v).unwrap();
                    live.swap_remove(i);
                }
            }
            assert_eq!(p.len(), live.len());
        }
    }
}
