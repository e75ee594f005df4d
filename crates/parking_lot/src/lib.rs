//! Offline shim over [`std::sync`] locks with the `parking_lot` API shape.
//!
//! The build environment has no network access, so the real
//! [parking_lot](https://crates.io/crates/parking_lot) crate cannot be
//! fetched.  Only the surface the workspace uses is provided: a [`Mutex`]
//! whose `lock()` returns the guard directly (no poison `Result`) and a
//! [`RwLock`] with the matching `read()` / `write()` shape — the buffer
//! pool's per-frame page lock, the gate a tree's inserts share and its
//! restructuring operations take exclusively, and each table's heap state.
//! Poisoning is deliberately ignored, matching `parking_lot` semantics: a
//! panic while holding a lock does not make the data permanently
//! inaccessible.  Swapping back to the real crate is a one-line change in
//! `Cargo.toml`.

use std::sync::PoisonError;

/// Re-export of the guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// Re-export of the guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;

/// Re-export of the guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutual-exclusion lock with `parking_lot`-style non-poisoning `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.  Unlike
    /// `std::sync::Mutex::lock` this never fails: a poisoned lock is
    /// recovered transparently.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (no locking
    /// needed: the receiver is exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock with `parking_lot`-style non-poisoning guards.
///
/// Many readers may hold the lock at once; a writer is exclusive.  This is
/// the latch the index layer wraps each `spgist_core` tree in: queries
/// take `read()` for their cursor's lifetime, updates take `write()` for
/// the duration of one structure modification.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read latch, blocking while a writer holds the lock.
    /// Never fails: a poisoned lock is recovered transparently.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the exclusive write latch, blocking until all readers and
    /// writers release theirs.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire a read latch without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts to acquire the write latch without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (no locking
    /// needed: the receiver is exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn contended_lock_is_exclusive() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn rwlock_roundtrip_and_try_locks() {
        let mut l = RwLock::new(1);
        *l.write() += 41;
        assert_eq!(*l.read(), 42);
        *l.get_mut() += 1;
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!((*r1, *r2), (43, 43), "readers share the latch");
            assert!(l.try_write().is_none(), "readers block the write latch");
        }
        {
            let _w = l.write();
            assert!(l.try_read().is_none(), "a writer blocks read latches");
        }
        assert_eq!(l.into_inner(), 43);
    }

    #[test]
    fn rwlock_readers_run_concurrently_with_serialized_writers() {
        let l = Arc::new(RwLock::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if i % 2 == 0 {
                            *l.write() += 1;
                        } else {
                            let _ = *l.read();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 1000);
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(RwLock::new(7));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the std rwlock underneath");
        })
        .join();
        assert_eq!(*l.read(), 7, "parking_lot semantics: no permanent poison");
        assert_eq!(*l.write(), 7);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the std mutex underneath");
        })
        .join();
        assert_eq!(*m.lock(), 7, "parking_lot semantics: no permanent poison");
    }
}
