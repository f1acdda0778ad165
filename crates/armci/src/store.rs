//! The per-rank backing store of a segment: little-endian 64-bit words
//! that never move, reachable from any thread without a lock.
//!
//! A segment of `len` bytes is `len.div_ceil(8)` words per rank, laid out
//! in [`scioto_det::AppendTable`]'s geometry: chunk `k` holds `16 << k`
//! words (the last one cut at the segment's end) and is a `OnceLock`
//! allocated, zero-filled, by the first write that reaches it. A read of a
//! chunk nobody has written returns zeros and allocates nothing, so a rank
//! pays host memory only for the chunks its traffic touched — and since a
//! chunk, once published, never moves, a word is one `OnceLock::get` away
//! for every thread at every moment.
//!
//! Every access goes through one rank's [`Row`]. Orderings are the
//! caller's to choose where a protocol word is involved ([`Row::word`]
//! hands out the atomic itself, [`Row::get_bytes`] and [`Row::put_bytes`]
//! take one); words moved by [`Row::update`] are ordered as Acquire loads
//! and Release stores (by one fence per access). The per-rank
//! read-modify-write lock
//! ([`Store::rmw_lock`]) is what keeps an accumulate's load + store atomic
//! against other accumulates and RMWs.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

use scioto_det::sync::{Mutex, MutexGuard};
use scioto_det::table::{chunk_slots, locate};

/// What [`Row::update`] does to each word it hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Load; the closure's edits are dropped. Allocates nothing.
    Read,
    /// The closure starts from zero and its value is stored.
    Write,
    /// Load, let the closure edit, store.
    Modify,
}

pub(crate) struct Store {
    /// Words per rank.
    words: usize,
    /// Chunks per rank.
    nchunks: usize,
    /// `chunks[rank * nchunks + k]`.
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// One read-modify-write lock per rank's store.
    rmw: Box<[Mutex<()>]>,
}

/// One rank's words of a [`Store`]: its row of chunk slots. Every access
/// of a one-sided operation or of the owner's view goes through one.
#[derive(Clone, Copy)]
pub(crate) struct Row<'a> {
    chunks: &'a [OnceLock<Box<[AtomicU64]>>],
    words: usize,
}

/// One chunk of a [`Row`]: its first word, its length in words, and its
/// words — `None` while untouched.
type Chunk<'a> = (usize, usize, Option<&'a [AtomicU64]>);

/// Failure ordering of a CAS whose success ordering is `order`.
fn failure(order: Ordering) -> Ordering {
    match order {
        Ordering::SeqCst => Ordering::SeqCst,
        _ => Ordering::Relaxed,
    }
}

impl Store {
    pub(crate) fn new(nranks: usize, len: usize) -> Store {
        let words = len.div_ceil(8);
        let nchunks = words.checked_sub(1).map_or(0, |last| {
            locate(last).expect("a segment length fits the chunk table").0 + 1
        });
        Store {
            words,
            nchunks,
            chunks: (0..nranks * nchunks).map(|_| OnceLock::new()).collect(),
            rmw: (0..nranks).map(|_| Mutex::new(())).collect(),
        }
    }

    /// `rank`'s words.
    #[inline]
    pub(crate) fn row(&self, rank: usize) -> Row<'_> {
        Row {
            chunks: &self.chunks[rank * self.nchunks..][..self.nchunks],
            words: self.words,
        }
    }

    /// The lock that makes an accumulate or RMW on `rank`'s store atomic
    /// against every other accumulate and RMW on it.
    pub(crate) fn rmw_lock(&self, rank: usize) -> MutexGuard<'_, ()> {
        self.rmw[rank].lock()
    }

    /// Host bytes backing each rank's store.
    pub(crate) fn materialised(&self) -> Vec<usize> {
        (0..self.rmw.len())
            .map(|rank| {
                let row = self.row(rank).chunks.iter();
                row.filter_map(OnceLock::get).map(|c| c.len() * 8).sum()
            })
            .collect()
    }
}

impl<'a> Row<'a> {
    /// Words in chunk `k`: its capacity, cut at the segment's end.
    #[inline]
    fn span(&self, k: usize) -> usize {
        chunk_slots(k).min(self.words + chunk_slots(0) - chunk_slots(k))
    }

    /// Chunk `k`; `alloc` zero-fills it on first use, otherwise an
    /// untouched chunk is `None`.
    #[inline]
    fn chunk(&self, k: usize, alloc: bool) -> Option<&'a [AtomicU64]> {
        let cell = &self.chunks[k];
        if alloc {
            Some(cell.get_or_init(|| (0..self.span(k)).map(|_| AtomicU64::new(0)).collect()))
        } else {
            cell.get().map(|c| &**c)
        }
    }

    /// Word `w`, or `None` if its chunk is untouched and `alloc` is false
    /// (the word reads as zero). `w` must lie in the segment.
    #[inline]
    pub(crate) fn word(&self, w: usize, alloc: bool) -> Option<&'a AtomicU64> {
        assert!(
            w < self.words,
            "word {w} out of bounds for a segment of {} words",
            self.words
        );
        let (k, off) = locate(w).expect("an in-bounds word has a chunk");
        self.chunk(k, alloc).map(|c| &c[off])
    }

    /// Walk words `[w, w + n)` one chunk run at a time: `f(j, m, run)`
    /// gets the run's first word relative to `w`, its length, and its
    /// words — `None` for an untouched chunk when `alloc` is false.
    /// Bounds-checked once, up front.
    #[inline]
    pub(crate) fn runs(
        &self,
        w: usize,
        n: usize,
        alloc: bool,
        mut f: impl FnMut(usize, usize, Option<&'a [AtomicU64]>),
    ) {
        let end = w
            .checked_add(n)
            .filter(|&end| end <= self.words)
            .unwrap_or_else(|| {
                panic!(
                    "words [{w}, {w}+{n}) out of bounds for a segment of {} words",
                    self.words
                )
            });
        let mut at = w;
        while at < end {
            let (k, off) = locate(at).expect("an in-bounds word has a chunk");
            let m = (self.span(k) - off).min(end - at);
            f(at - w, m, self.chunk(k, alloc).map(|c| &c[off..off + m]));
            at += m;
        }
    }

    /// Store `bytes` at byte `at` of word `w`, leaving the word's other
    /// bytes as they are: one CAS, so a concurrent writer of the other
    /// bytes loses nothing.
    fn merge(&self, w: usize, at: usize, bytes: &[u8], order: Ordering) {
        let (mut mask, mut val) = ([0u8; 8], [0u8; 8]);
        mask[at..at + bytes.len()].fill(0xFF);
        val[at..at + bytes.len()].copy_from_slice(bytes);
        let (mask, val) = (u64::from_le_bytes(mask), u64::from_le_bytes(val));
        let word = self.word(w, true).expect("allocated");
        let _ = word.fetch_update(order, failure(order), |cur| Some(cur & !mask | val));
    }

    /// Copy `src` to byte `offset`: whole words stored with `order`
    /// (Release or SeqCst), ragged bytes at either end merged by
    /// [`Row::merge`].
    pub(crate) fn put_bytes(&self, offset: usize, src: &[u8], order: Ordering) {
        let (mut w, at) = (offset / 8, offset % 8);
        let mut src = src;
        if at != 0 && !src.is_empty() {
            let (head, rest) = src.split_at(src.len().min(8 - at));
            self.merge(w, at, head, order);
            (w, src) = (w + 1, rest);
        }
        let (body, tail) = src.split_at(src.len() / 8 * 8);
        self.runs(w, body.len() / 8, true, |j, m, run| {
            let words = body[8 * j..8 * (j + m)].chunks_exact(8);
            for (word, b) in run.expect("allocated").iter().zip(words) {
                word.store(u64::from_le_bytes(b.try_into().expect("8 bytes")), order);
            }
        });
        if !tail.is_empty() {
            self.merge(w + body.len() / 8, 0, tail, order);
        }
    }

    /// Copy byte `offset` onwards into `dst`, loading each word once with
    /// `order` (Acquire or SeqCst); untouched chunks read as zeros.
    pub(crate) fn get_bytes(&self, offset: usize, dst: &mut [u8], order: Ordering) {
        let (w, at) = (offset / 8, offset % 8);
        let head = if at == 0 { 0 } else { dst.len().min(8 - at) };
        if head > 0 {
            let v = self.word(w, false).map_or(0, |word| word.load(order));
            dst[..head].copy_from_slice(&v.to_le_bytes()[at..at + head]);
        }
        let rest = &mut dst[head..];
        let len = rest.len();
        self.runs(
            w + usize::from(head > 0),
            len.div_ceil(8),
            false,
            |j, m, run| {
                let out = &mut rest[8 * j..(8 * (j + m)).min(len)];
                match run {
                    Some(run) => {
                        // Whole words as fixed 8-byte copies; a ragged last
                        // word copies its prefix.
                        let mut words = run.iter();
                        let mut whole = out.chunks_exact_mut(8);
                        for (d, word) in (&mut whole).zip(&mut words) {
                            d.copy_from_slice(&word.load(order).to_le_bytes());
                        }
                        let tail = whole.into_remainder();
                        if let Some(word) = words.next().filter(|_| !tail.is_empty()) {
                            tail.copy_from_slice(&word.load(order).to_le_bytes()[..tail.len()]);
                        }
                    }
                    None => out.fill(0),
                }
            },
        );
    }

    /// Hand each word of `[w, w + n)` to `f(j, word)` in order (`j`
    /// relative to `w`), as `access` says. The words are Relaxed atomics
    /// bracketed by one fence — Release before a writing access, Acquire
    /// after a reading one — which orders them as Release stores and
    /// Acquire loads would, while leaving the compiler free to keep what
    /// `f` captured in registers across them.
    #[inline]
    pub(crate) fn update(
        &self,
        w: usize,
        n: usize,
        access: Access,
        mut f: impl FnMut(usize, &mut u64),
    ) {
        self.update_strided((w, 0, n, 1), access, |_, j, word| f(j, word));
    }

    /// [`Row::update`] over `count` runs of `n` words, `stride` apart from
    /// `w` — a strided region: `f(i, j, word)` for word `j` of run `i`.
    /// A run inside the chunk the run before it lay in reuses that chunk
    /// instead of looking it up again.
    #[inline]
    pub(crate) fn update_strided(
        &self,
        (w, stride, n, count): (usize, usize, usize, usize),
        access: Access,
        mut f: impl FnMut(usize, usize, &mut u64),
    ) {
        let alloc = access != Access::Read;
        if alloc {
            fence(Ordering::Release);
        }
        // The last chunk a run lay in: its first word, length and words.
        let mut last: Chunk<'a> = (0, 0, None);
        for i in 0..count {
            let at = w + i * stride;
            let g = &mut |j, x: &mut u64| f(i, j, x);
            let fits = |(first, len, chunk): Chunk<'a>| {
                let off = at.checked_sub(first).filter(|&off| off + n <= len)?;
                Some(chunk.map(|c| &c[off..off + n]))
            };
            let cached = fits(last).or_else(|| {
                last = self.chunk_of(at, alloc)?;
                fits(last)
            });
            match cached {
                Some(run) => visit(run, 0, n, access, g),
                None => self.runs(at, n, alloc, move |j, m, run| visit(run, j, m, access, g)),
            }
        }
        if access != Access::Write {
            fence(Ordering::Acquire);
        }
    }

    /// The chunk word `w` lies in (see [`Chunk`]); `None` past the segment.
    #[inline]
    fn chunk_of(&self, w: usize, alloc: bool) -> Option<Chunk<'a>> {
        let (k, off) = locate(w).filter(|_| w < self.words)?;
        Some((w - off, self.span(k), self.chunk(k, alloc)))
    }

    /// Set words `[w, w + n)` to `v` (Release). A zero fill leaves
    /// untouched chunks untouched: they already read as zero.
    pub(crate) fn fill(&self, w: usize, n: usize, v: u64) {
        self.runs(w, n, v != 0, |_, _, run| {
            for word in run.into_iter().flatten() {
                word.store(v, Ordering::Release);
            }
        });
    }
}

/// Hand the `m` words of `run` to `f`, the `t`-th as `f(j + t, word)`, as
/// [`Row::update`] says; `None` is an untouched chunk, read as zeros.
#[inline]
fn visit(
    run: Option<&[AtomicU64]>,
    j: usize,
    m: usize,
    access: Access,
    f: &mut impl FnMut(usize, &mut u64),
) {
    match run {
        Some(run) => {
            for (j, word) in (j..).zip(run) {
                let mut x = match access {
                    Access::Write => 0,
                    _ => word.load(Ordering::Relaxed),
                };
                f(j, &mut x);
                if access != Access::Read {
                    word.store(x, Ordering::Relaxed);
                }
            }
        }
        None => (j..j + m).for_each(|j| f(j, &mut 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_follow_the_table_geometry_and_stop_at_the_segment_end() {
        // 1000 bytes = 125 words: chunks of 16, 32, 64 and the last 13.
        let s = Store::new(2, 1000);
        assert_eq!((s.words, s.nchunks), (125, 4));
        assert_eq!(
            (0..4).map(|k| s.row(1).span(k)).collect::<Vec<_>>(),
            [16, 32, 64, 13]
        );
        assert_eq!(Store::new(1, 0).nchunks, 0);
        assert_eq!(Store::new(1, 5).row(0).span(0), 1);
        assert_eq!(s.materialised(), [0, 0]);
    }

    #[test]
    fn ragged_bytes_round_trip_and_leave_their_neighbours() {
        let s = Store::new(1, 64);
        let r = s.row(0);
        r.put_bytes(0, &[0xAA; 64], Ordering::Release);
        r.put_bytes(3, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], Ordering::Release);
        r.put_bytes(21, &[0x55], Ordering::SeqCst);
        let mut all = [0u8; 64];
        r.get_bytes(0, &mut all, Ordering::Acquire);
        let mut want = [0xAAu8; 64];
        want[3..14].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        want[21] = 0x55;
        assert_eq!(all, want);
        let mut mid = [0u8; 13];
        r.get_bytes(5, &mut mid, Ordering::Acquire);
        assert_eq!(mid, want[5..18]);
    }

    #[test]
    fn reads_of_untouched_chunks_are_zero_and_allocate_nothing() {
        let s = Store::new(1, 1 << 16);
        let r = s.row(0);
        let mut buf = [0xEEu8; 300];
        r.get_bytes(1001, &mut buf, Ordering::Acquire);
        assert!(buf.iter().all(|&b| b == 0));
        r.update(100, 200, Access::Read, |_, &mut w| assert_eq!(w, 0));
        r.fill(0, 1 << 13, 0);
        assert!(r.word(7000, false).is_none());
        assert_eq!(s.materialised(), [0]);
    }
}
