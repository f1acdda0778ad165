//! Poison-free synchronization wrappers over `std::sync`.
//!
//! The simulator deliberately keeps locking usable after a rank thread
//! panics: the kernel propagates "poison" itself (waking every rank so it
//! can unwind), and the surviving ranks still need to take the scheduler
//! lock on their way out. `std`'s lock poisoning would turn that orderly
//! teardown into a second panic, so these wrappers strip `PoisonError`
//! and expose the guard-returning API (`lock()`,
//! `Condvar::wait(&mut guard)`) the codebase was written against.
//!
//! The one module allowed the `std::sync` locks `clippy.toml` bans.
#![allow(clippy::disallowed_types)]

use std::sync::PoisonError;

/// A mutual-exclusion lock. `lock()` returns the guard directly; a
/// poisoned inner lock (some holder panicked) is treated as unlocked.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the inner guard out and back
    // while the caller keeps holding `&mut MutexGuard`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is acquired. The guard comes back directly —
    /// there is no poison `Result` to unwrap:
    ///
    /// ```compile_fail,E0599
    /// let m = scioto_det::sync::Mutex::new(0i32);
    /// *m.lock().unwrap() += 1;
    /// ```
    ///
    /// ```
    /// let m = scioto_det::sync::Mutex::new(0i32);
    /// *m.lock() += 1;
    /// assert_eq!(*m.lock(), 1);
    /// ```
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken by Condvar::wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken by Condvar::wait")
    }
}

/// A condition variable paired with [`Mutex`]. `wait` takes the guard by
/// `&mut` and reacquires the lock before returning, so the caller's
/// borrow stays valid across the wait (the `parking_lot` calling
/// convention).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and park; on wakeup the lock is
    /// reacquired before returning. Wakeups may be spurious.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard already taken");
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Pads and aligns `T` to 128 bytes so that per-rank slots of an array
/// never share a cache line: a rank hammering its own slot (a clock
/// stamp, a counter block, the lock word of its memory segment) must not
/// invalidate the line its neighbour is working on. 128 rather than 64
/// because x86-64 prefetches lines in adjacent pairs and several aarch64
/// cores have 128-byte lines.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cache_padded_slots_are_128_bytes_apart() {
        let v: Vec<CachePadded<u8>> = (0..3).map(CachePadded).collect();
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        assert_eq!(&*v[1] as *const u8 as usize - &*v[0] as *const u8 as usize, 128);
        assert_eq!(&*v[0] as *const u8 as usize % 128, 0);
        assert_eq!(*v[2], 2);
    }

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies with the lock");
        })
        .join();
        // parking_lot semantics: the data is still reachable.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            true
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().unwrap());
    }
}
