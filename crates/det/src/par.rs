//! One job split across the host's cores: how many cores there are (asked
//! of the OS once, for every crate), how many parts a job of a given size
//! is cut into, and running the parts on scoped threads. Callers make the
//! answer independent of the cut — the trace codec writes and reads the
//! same bytes with one part or eight — so the part count is a speed
//! choice only, and nothing configures it.

use std::sync::OnceLock;

/// Hardware threads this process may run on, asked of the OS once (1 if
/// it will not say).
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The fewest bytes worth a part of their own: a scoped thread costs tens
/// to hundreds of microseconds, a MiB of trace text about a millisecond.
pub const PART_MIN_BYTES: usize = 1 << 20;

/// How many parts a job over `bytes` bytes is cut into: one per
/// [`PART_MIN_BYTES`], at most one per core, at least one.
pub fn parts_for(bytes: usize) -> usize {
    (bytes / PART_MIN_BYTES).min(host_cores()).max(1)
}

/// `f` of every job, in job order: the first job runs on this thread, each
/// other on a scoped thread of its own (one job spawns nothing). A panic in
/// any job resumes on this thread.
pub fn in_parts<J: Send, R: Send>(
    jobs: impl IntoIterator<Item = J>,
    f: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let others: Vec<_> = jobs.map(|job| s.spawn(move || f(job))).collect();
        let mut out = vec![f(first)];
        for other in others {
            out.push(other.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_grow_with_the_job_up_to_the_core_count() {
        assert_eq!(parts_for(0), 1);
        assert_eq!(parts_for(PART_MIN_BYTES - 1), 1);
        assert_eq!(parts_for(2 * PART_MIN_BYTES), 2.min(host_cores()));
        assert_eq!(parts_for(usize::MAX), host_cores());
    }

    #[test]
    fn results_come_back_in_job_order() {
        assert_eq!(in_parts(0..8, |i| i * i), [0, 1, 4, 9, 16, 25, 36, 49]);
        assert_eq!(in_parts(Vec::<u8>::new(), |b| b), Vec::<u8>::new());
        // Jobs may borrow mutably, each its own piece.
        let mut buf = [0u8; 6];
        in_parts(buf.chunks_mut(2).enumerate(), |(i, piece)| piece.fill(i as u8));
        assert_eq!(buf, [0, 0, 1, 1, 2, 2]);
    }
}
