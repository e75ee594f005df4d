//! SIEVE eviction for the buffer pool, and the access hints that steer it.
//!
//! The paper's headline experiments run disk-based at 2M–32M keys — data far
//! larger than memory — so every buffer-pool miss pays for victim selection
//! under the pool mutex.  The pool orders its frames with one algorithm,
//! SIEVE (Zhang et al., NSDI'24): a FIFO queue with a `visited` bit per frame
//! and a hand that moves from tail to head, evicting the first unvisited
//! frame and *lazily* clearing bits as it passes.  Frames are never moved on
//! a hit — a hit is one bit write — and a one-touch page keeps a clear bit,
//! so it is sieved out on the hand's first pass while re-referenced pages
//! stay.  Victim selection is amortized O(1): every bit the hand clears was
//! paid for by a hit.
//!
//! The queue (`SieveQueue`, private to the crate) orders *frame slots* —
//! stable indices into the pool's frame slab; it never sees page ids or page
//! contents.  Pin and dirty discipline stay the pool's job: `victim`
//! consults the pool's `evictable` predicate and never returns a slot the
//! predicate rejects, so a pinned frame or (in no-steal mode) a dirty frame
//! is never chosen.  `victim` only *chooses*: the slot stays queued until
//! the pool calls `remove`, which lets the pool write a dirty victim back
//! first and keep it — resident, dirty and still the next candidate — when
//! that write fails.
//!
//! ## Access hints
//!
//! [`AccessHint::Scan`] marks fetches made by sequential, one-touch access
//! patterns — heap sequential scans, whole-tree statistics walks, bulk-build
//! page writes.  A scan-hinted *insertion* places the page directly under the
//! hand, and a scan-hinted *touch* never sets the `visited` bit, so one pass
//! over a huge table cannot flush the index's hot upper levels out of the
//! pool.  Any later [`AccessHint::Normal`] access marks the page visited
//! exactly as if it had entered normally.

/// Sentinel for "no slot" in the intrusive link arrays.
const NIL: usize = usize::MAX;

/// How a page fetch should influence eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// A point access: the page may be re-referenced soon, cache it normally.
    #[default]
    Normal,
    /// A sequential one-touch access (seq scan, stats walk, bulk build):
    /// insert at the eviction-preferred position and never promote on touch.
    Scan,
}

/// Grows a per-slot vector so `slot` is indexable.
fn ensure_slot<T: Clone>(v: &mut Vec<T>, slot: usize, fill: T) {
    if slot >= v.len() {
        v.resize(slot + 1, fill);
    }
}

/// The pool's SIEVE queue: a FIFO list (new frames at the head) threaded
/// through per-slot link arrays, with a hand moving tail→head.
///
/// The pool calls `insert` when a page enters a slot, `touch` on every hit,
/// `victim` to choose the slot to evict and `remove` when a slot leaves the
/// pool (evicted or freed).  A slot is queued from `insert` until `remove`;
/// the pool never passes an unqueued slot to `touch`/`remove`.
pub(crate) struct SieveQueue {
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

impl SieveQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        SieveQueue {
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

    /// Queues a page newly placed in `slot`.
    pub(crate) fn insert(&mut self, slot: usize, hint: AccessHint) {
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
                    NIL => self.push_head(slot),
                    h => self.insert_after(slot, h),
                }
                self.hand = slot;
            }
        }
    }

    /// Records a hit on `slot`.
    pub(crate) fn touch(&mut self, slot: usize, hint: AccessHint) {
        if hint == AccessHint::Normal {
            self.visited[slot] = true;
        }
    }

    /// Unqueues `slot` (evicted, or its page freed).
    pub(crate) fn remove(&mut self, slot: usize) {
        debug_assert!(self.tracked[slot], "removing untracked slot");
        self.unlink(slot);
        self.tracked[slot] = false;
        self.len -= 1;
    }

    /// Chooses the eviction victim among queued slots for which `evictable`
    /// returns `true`; `None` when no queued slot is evictable.  Never
    /// returns a slot `evictable` rejected.  The victim stays queued, under
    /// the hand with its bit clear, until the caller [`remove`](Self::remove)s
    /// it — a caller that cannot evict it after all leaves it the next
    /// candidate.
    pub(crate) fn victim(&mut self, mut evictable: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Two passes bound the walk: the first clears `visited` bits (each
        // paid for by a hit), the second finds the victim unless everything
        // is blocked.
        for _ in 0..2 * self.len + 1 {
            let cur = if self.hand == NIL {
                self.tail
            } else {
                self.hand
            };
            if self.visited[cur] {
                self.visited[cur] = false;
            } else if evictable(cur) {
                return Some(cur);
            }
            self.hand = self.prev[cur];
        }
        None
    }

    /// Number of queued slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
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
        fn hint(&mut self) -> AccessHint {
            if self.below(2) == 0 {
                AccessHint::Normal
            } else {
                AccessHint::Scan
            }
        }
    }

    /// Chooses and unqueues a victim, as the pool does when the write-back
    /// (if any) succeeded.
    fn evict(q: &mut SieveQueue, evictable: impl FnMut(usize) -> bool) -> Option<usize> {
        let v = q.victim(evictable)?;
        q.remove(v);
        Some(v)
    }

    #[test]
    fn evict_empty_returns_none() {
        assert_eq!(SieveQueue::new().victim(|_| true), None);
    }

    #[test]
    fn single_slot_insert_evict() {
        let mut q = SieveQueue::new();
        q.insert(0, AccessHint::Normal);
        assert_eq!(q.len(), 1);
        assert_eq!(evict(&mut q, |_| true), Some(0));
        assert_eq!(q.len(), 0);
        assert_eq!(evict(&mut q, |_| true), None);
    }

    #[test]
    fn sieve_sieves_out_one_touch_pages() {
        let mut q = SieveQueue::new();
        for s in 0..4 {
            q.insert(s, AccessHint::Normal);
        }
        q.touch(1, AccessHint::Normal);
        q.touch(3, AccessHint::Normal);
        // Hand starts at the tail (0, the first insertion): 0 is unvisited →
        // victim.  Then 2.  Visited 1 and 3 survive with bits cleared.
        assert_eq!(evict(&mut q, |_| true), Some(0));
        assert_eq!(evict(&mut q, |_| true), Some(2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn sieve_scan_insertions_are_next_victims() {
        let mut q = SieveQueue::new();
        for s in 0..3 {
            q.insert(s, AccessHint::Normal);
            q.touch(s, AccessHint::Normal);
        }
        q.insert(3, AccessHint::Scan);
        q.touch(3, AccessHint::Scan); // scan touch: no promotion
        assert_eq!(evict(&mut q, |_| true), Some(3), "scan page sieved first");
    }

    #[test]
    fn unremoved_victim_stays_the_next_candidate() {
        let mut q = SieveQueue::new();
        for s in 0..3 {
            q.insert(s, AccessHint::Normal);
        }
        assert_eq!(q.victim(|_| true), Some(0));
        // The pool could not evict it (write-back failed): still queued, and
        // chosen again.
        assert_eq!(q.len(), 3);
        assert_eq!(q.victim(|_| true), Some(0));
    }

    /// The core safety property: whatever the access pattern, `victim` never
    /// returns a slot the predicate rejected (the pool maps "rejected" to
    /// pinned frames and, in no-steal mode, dirty frames).
    #[test]
    fn property_evict_never_returns_blocked_slot() {
        let mut rng = Rng(0x5EE8);
        let mut q = SieveQueue::new();
        let mut tracked: Vec<usize> = Vec::new();
        let mut next_slot = 0usize;
        for _ in 0..4000 {
            match rng.below(10) {
                0..=3 => {
                    q.insert(next_slot, rng.hint());
                    tracked.push(next_slot);
                    next_slot += 1;
                }
                4..=6 if !tracked.is_empty() => {
                    let s = tracked[rng.below(tracked.len())];
                    q.touch(s, rng.hint());
                }
                7 if !tracked.is_empty() => {
                    let i = rng.below(tracked.len());
                    let s = tracked.swap_remove(i);
                    q.remove(s);
                }
                _ if !tracked.is_empty() => {
                    // Block a random subset; eviction must respect it.
                    let mut blocked = vec![false; next_slot];
                    for _ in 0..rng.below(tracked.len() + 1) {
                        blocked[tracked[rng.below(tracked.len())]] = true;
                    }
                    let all_blocked = tracked.iter().all(|&s| blocked[s]);
                    match evict(&mut q, |s| !blocked[s]) {
                        Some(v) => {
                            assert!(!blocked[v], "evicted a blocked slot");
                            let i = tracked.iter().position(|&s| s == v).unwrap();
                            tracked.swap_remove(i);
                        }
                        None => {
                            assert!(all_blocked, "refused to evict with unblocked slots queued");
                        }
                    }
                }
                _ => {}
            }
            assert_eq!(q.len(), tracked.len(), "len drifted");
        }
    }

    /// Exercises a scan-heavy mixed pattern and checks the queue's
    /// bookkeeping stays consistent while every eviction request on a
    /// non-empty, fully-evictable queue succeeds.
    #[test]
    fn property_mixed_scan_pattern_always_finds_victims() {
        let mut q = SieveQueue::new();
        let mut rng = Rng(0xBEEF);
        let mut live: Vec<usize> = Vec::new();
        for slot in 0..512 {
            let hint = if slot % 3 == 0 {
                AccessHint::Scan
            } else {
                AccessHint::Normal
            };
            q.insert(slot, hint);
            live.push(slot);
            if live.len() > 64 {
                let hot = live[rng.below(live.len())];
                q.touch(hot, AccessHint::Normal);
                let v = evict(&mut q, |_| true)
                    .unwrap_or_else(|| panic!("no victim at {} slots", live.len()));
                let i = live.iter().position(|&s| s == v).unwrap();
                live.swap_remove(i);
            }
        }
        assert_eq!(q.len(), live.len());
    }

    /// Naive SIEVE, O(n) everything: the queue as a `Vec` of
    /// `(slot, visited)` from tail (index 0, oldest) to head, and the hand
    /// as an index into it (`None` = wrap to the tail).
    #[derive(Default)]
    struct Model {
        fifo: Vec<(usize, bool)>,
        hand: Option<usize>,
    }

    impl Model {
        fn index_of(&self, slot: usize) -> usize {
            self.fifo.iter().position(|e| e.0 == slot).unwrap()
        }
        fn insert(&mut self, slot: usize, hint: AccessHint) {
            match (hint, self.hand) {
                (AccessHint::Normal, _) => self.fifo.push((slot, false)),
                (AccessHint::Scan, None) => {
                    self.fifo.push((slot, false));
                    self.hand = Some(self.fifo.len() - 1);
                }
                // Tail-ward of the hand: the hand's index, which the hand
                // then points at.
                (AccessHint::Scan, Some(h)) => self.fifo.insert(h, (slot, false)),
            }
        }
        fn touch(&mut self, slot: usize, hint: AccessHint) {
            let i = self.index_of(slot);
            self.fifo[i].1 |= hint == AccessHint::Normal;
        }
        fn remove(&mut self, slot: usize) {
            let i = self.index_of(slot);
            self.fifo.remove(i);
            // Entries head-ward of `i` moved down one; a hand on `i` itself
            // now rests on its head-ward neighbour.
            self.hand = match self.hand {
                Some(h) if h > i => Some(h - 1),
                h => h,
            }
            .filter(|&h| h < self.fifo.len());
        }
        fn victim(&mut self, blocked: &[bool]) -> Option<usize> {
            for _ in 0..2 * self.fifo.len() + 1 {
                let cur = self.hand.unwrap_or(0);
                let (slot, visited) = *self.fifo.get(cur)?;
                if !visited && !blocked[slot] {
                    return Some(slot);
                }
                self.fifo[cur].1 = false;
                self.hand = Some(cur + 1).filter(|&h| h < self.fifo.len());
            }
            None
        }
    }

    /// Drives the queue and the naive model with one seeded stream of
    /// inserts, touches, removals and evictions under random blocked sets —
    /// some of them abandoned after the choice, as after a failed
    /// write-back — and demands identical victims and lengths at every step.
    #[test]
    fn differential_against_naive_sieve_model() {
        for seed in [1u64, 0xC0FFEE, 0x5EED_5EED, 20060403] {
            let mut rng = Rng(seed);
            let mut q = SieveQueue::new();
            let mut model = Model::default();
            let mut queued: Vec<usize> = Vec::new();
            let mut next_slot = 0usize;
            let mut evictions = 0usize;
            for step in 0..12_000 {
                match rng.below(10) {
                    // Bounded so the stream keeps evicting, not just growing.
                    0..=3 if queued.len() < 48 => {
                        let hint = rng.hint();
                        q.insert(next_slot, hint);
                        model.insert(next_slot, hint);
                        queued.push(next_slot);
                        next_slot += 1;
                    }
                    4..=6 if !queued.is_empty() => {
                        let s = queued[rng.below(queued.len())];
                        let hint = rng.hint();
                        q.touch(s, hint);
                        model.touch(s, hint);
                    }
                    7 if !queued.is_empty() => {
                        let s = queued.swap_remove(rng.below(queued.len()));
                        q.remove(s);
                        model.remove(s);
                    }
                    _ => {
                        let mut blocked = vec![false; next_slot];
                        for _ in 0..rng.below(queued.len() / 2 + 1) {
                            blocked[queued[rng.below(queued.len())]] = true;
                        }
                        let got = q.victim(|s| !blocked[s]);
                        let want = model.victim(&blocked);
                        assert_eq!(got, want, "seed {seed:#x} step {step}: victims differ");
                        if let Some(v) = got.filter(|_| rng.below(8) != 0) {
                            q.remove(v);
                            model.remove(v);
                            queued.retain(|&s| s != v);
                            evictions += 1;
                        }
                    }
                }
                assert_eq!(q.len(), model.fifo.len(), "seed {seed:#x} step {step}");
                assert_eq!(q.len(), queued.len(), "seed {seed:#x} step {step}");
            }
            assert!(
                evictions > 1_000,
                "seed {seed:#x}: only {evictions} evictions"
            );
        }
    }
}
