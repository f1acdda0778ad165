//! [`AppendTable`] — an append-only table whose reads take no lock.
//!
//! The runtime resolves small integer handles (`Gmem`, `MutexSet`,
//! `TaskHandle`, `CloHandle`) to the object behind them on every
//! one-sided operation and every task dispatch. Those objects are created
//! collectively, a handful per run, and are never freed — so the table
//! only ever grows, an element never moves once published, and `get` can
//! hand out a plain borrow: no reader lock, no reference count, nothing
//! another rank's thread writes.
//!
//! Storage is a fixed array of lazily allocated chunks, chunk `k` holding
//! `16 << k` slots, so growing never relocates an element. Every chunk and
//! every slot is a [`OnceLock`]: a push initializes them under the table's
//! mutex, a read is two acquire loads.

use std::sync::OnceLock;

use crate::sync::Mutex;

const BASE_BITS: u32 = 4;
const BASE: usize = 1 << BASE_BITS;
/// `16 * (2^29 - 1)` slots: every `u32` handle fits.
const CHUNKS: usize = 29;

/// Append-only table with lock-free reads; see the module docs.
pub struct AppendTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    /// Number of elements pushed; holding it serializes pushes.
    len: Mutex<usize>,
}

/// `(chunk, offset within chunk)` of index `i`.
fn locate(i: usize) -> Option<(usize, usize)> {
    let j = i.checked_add(BASE)?;
    let k = j.ilog2() - BASE_BITS;
    Some((k as usize, j - (BASE << k)))
}

impl<T> AppendTable<T> {
    pub fn new() -> Self {
        AppendTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: Mutex::new(0),
        }
    }

    /// Append `value`, returning its index. Indices are dense: the n-th
    /// push (0-based) returns `n`. Once `push` has returned `i`, every
    /// `get(i)` that happens after it — on any thread — sees the element.
    ///
    /// # Panics
    /// Panics when the table already holds `16 * (2^29 - 1)` elements.
    pub fn push(&self, value: T) -> usize {
        let mut len = self.len.lock();
        let i = *len;
        let (k, off) = locate(i).expect("AppendTable index overflow");
        let chunk = self
            .chunks
            .get(k)
            .expect("AppendTable is full")
            .get_or_init(|| (0..BASE << k).map(|_| OnceLock::new()).collect());
        if chunk[off].set(value).is_err() {
            unreachable!("AppendTable slot {i} written twice");
        }
        *len = i + 1;
        i
    }

    /// The element at index `i`, or `None` if no push has returned `i`
    /// yet. Takes no lock.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        let (k, off) = locate(i)?;
        self.chunks.get(k)?.get()?.get(off)?.get()
    }

    /// Number of elements pushed so far.
    pub fn len(&self) -> usize {
        *self.len.lock()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for AppendTable<T> {
    fn default() -> Self {
        AppendTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn indices_are_dense_and_elements_never_move() {
        let t = AppendTable::new();
        assert!(t.is_empty());
        assert!(t.get(0).is_none());
        // 100 elements span chunks 0 (16), 1 (32) and 2 (64).
        let first: *const usize = {
            assert_eq!(t.push(0usize), 0);
            t.get(0).expect("just pushed")
        };
        for i in 1..100 {
            assert_eq!(t.push(i * 10), i);
        }
        assert_eq!(t.len(), 100);
        for i in 0..100 {
            assert_eq!(t.get(i), Some(&(i * 10)));
        }
        assert!(t.get(100).is_none());
        assert!(t.get(usize::MAX).is_none());
        assert!(std::ptr::eq(first, t.get(0).expect("still there")));
    }

    #[test]
    fn chunk_boundaries_map_to_distinct_slots() {
        assert_eq!(locate(0), Some((0, 0)));
        assert_eq!(locate(15), Some((0, 15)));
        assert_eq!(locate(16), Some((1, 0)));
        assert_eq!(locate(47), Some((1, 31)));
        assert_eq!(locate(48), Some((2, 0)));
        assert_eq!(
            locate(u32::MAX as usize).map(|(k, _)| k < CHUNKS),
            Some(true)
        );
        assert_eq!(locate(usize::MAX), None);
    }

    /// Two writers push while two readers follow the published indices:
    /// an index a writer has announced is never `None`, holds the value
    /// pushed under that index, and the indices handed out are exactly
    /// `0..total` with no gap or repeat. 200 pushes cross the chunk
    /// boundaries at 16, 48 and 112.
    #[test]
    fn readers_never_miss_a_published_index() {
        const WRITERS: usize = 2;
        const PER_WRITER: usize = 100;
        let table = AppendTable::new();
        // Highest index + 1 any writer has announced after its push returned.
        let announced = AtomicUsize::new(0);
        let writers_done = AtomicUsize::new(0);
        let start = Barrier::new(WRITERS + 2);
        let mut indices: Vec<usize> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (table, announced, writers_done, start) =
                        (&table, &announced, &writers_done, &start);
                    s.spawn(move || {
                        start.wait();
                        let mine: Vec<usize> = (0..PER_WRITER)
                            .map(|n| {
                                // The value records who pushed it and when.
                                let i = table.push((w, n));
                                // Release: pairs with the readers' Acquire load.
                                announced.fetch_max(i + 1, Ordering::Release);
                                i
                            })
                            .collect();
                        writers_done.fetch_add(1, Ordering::Release);
                        mine
                    })
                })
                .collect();
            for _ in 0..2 {
                let (table, announced, writers_done, start) =
                    (&table, &announced, &writers_done, &start);
                s.spawn(move || {
                    start.wait();
                    loop {
                        let done = writers_done.load(Ordering::Acquire) == WRITERS;
                        let upto = announced.load(Ordering::Acquire);
                        // `announced` is a maximum, so an index below it may
                        // belong to the *other* writer's push still in
                        // flight — but pushes are serialized, so every
                        // index below a returned one has returned too.
                        for i in 0..upto {
                            let &(w, n) = table.get(i).expect("published index read as None");
                            assert!(w < WRITERS && n < PER_WRITER);
                        }
                        if done {
                            break;
                        }
                    }
                });
            }
            writers
                .into_iter()
                .flat_map(|h| h.join().expect("writer panicked"))
                .collect()
        });
        indices.sort_unstable();
        assert_eq!(indices, (0..WRITERS * PER_WRITER).collect::<Vec<_>>());
        assert_eq!(table.len(), WRITERS * PER_WRITER);
        // Each writer's elements appear in its own push order.
        for w in 0..WRITERS {
            let ns: Vec<usize> = (0..table.len())
                .filter_map(|i| table.get(i).filter(|e| e.0 == w).map(|e| e.1))
                .collect();
            assert_eq!(ns, (0..PER_WRITER).collect::<Vec<_>>());
        }
    }
}
