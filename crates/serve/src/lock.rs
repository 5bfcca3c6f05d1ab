//! Poison-tolerant lock acquisition for the serving layer.
//!
//! A `std` lock gets poisoned when a thread panics while holding its guard.
//! In this crate the only code that runs under a lock is trivial — a pointer
//! swap of the published snapshot `Arc` or a push onto the flush log — so a
//! poisoned lock never means the protected data is torn; it means some
//! *caller* panicked (a reader's sink, a test's assertion) after acquiring.
//! Propagating that panic into every subsequent reader via `.unwrap()` would
//! wedge the whole serving layer on behalf of one crashed client thread.
//!
//! These helpers are the designated poison-recovery points: they take the
//! guard from a poisoned lock and carry on.  The workspace lint
//! (`treenum-analyze`, rule `lock-unwrap`) bans bare `.lock().unwrap()` /
//! `.read().unwrap()` / `.write().unwrap()` everywhere else in
//! `crates/serve/src`, so every lock acquisition in the serving layer is
//! poison-tolerant by construction.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` for at most `timeout`, recovering the guard if a previous
/// holder of its mutex panicked.  Spurious and timed-out wake-ups both just
/// return the guard; the caller re-checks its condition.
pub(crate) fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

/// Read-locks `l`, recovering the guard if a previous holder panicked.
pub(crate) fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a previous holder panicked.
pub(crate) fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Non-blocking read-lock attempt on `l`: `Some(guard)` when the lock was
/// free (recovering from poison), `None` when a writer currently holds it.
/// This is the deadline-read primitive — the caller decides how long to keep
/// trying instead of parking on a stalled publication.
pub(crate) fn try_read_unpoisoned<T>(l: &RwLock<T>) -> Option<RwLockReadGuard<'_, T>> {
    match l.try_read() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_mutex_is_recovered() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
    }

    #[test]
    fn poisoned_rwlock_is_recovered() {
        let l = std::sync::Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(read_unpoisoned(&l).len(), 3);
        write_unpoisoned(&l).push(4);
        assert_eq!(read_unpoisoned(&l).len(), 4);
        assert_eq!(try_read_unpoisoned(&l).expect("free lock").len(), 4);
    }

    #[test]
    fn try_read_yields_none_while_write_held() {
        let l = RwLock::new(0u32);
        let g = l.write().unwrap();
        assert!(try_read_unpoisoned(&l).is_none());
        drop(g);
        assert!(try_read_unpoisoned(&l).is_some());
    }
}
