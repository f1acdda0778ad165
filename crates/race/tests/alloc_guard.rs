//! The race fold allocates per table, not per word or per sync event:
//! `check_trace` and `predict` make about as many heap allocations on a
//! recorded UTS run as on one several times its size. A run of words
//! keeps its access classes inline, a segment's runs share one buffer,
//! published clocks share one arena, and the sync walk's wave and barrier
//! producers share one; only the hash maps' and buffers' doublings
//! remain, which grow with the logarithm of the run. A per-word `Vec` or a
//! cloned clock per producer would add thousands, a list per wave key
//! dozens.
//!
//! Its own test binary, holding one test, because it installs a counting
//! global allocator: every allocation of the process goes through it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use scioto_race::{check_trace, predict};
use scioto_sim::{Machine, MachineConfig, Trace, TraceConfig};
use scioto_uts::presets;
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::TreeParams;

/// `System`, counting the calls that hand out new memory.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter has no say in the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A traced 8-rank virtual-time UTS run over `tree`.
fn recorded(tree: TreeParams) -> Trace {
    let cfg = MachineConfig::virtual_time(8).with_trace(TraceConfig::enabled().with_capacity(1 << 22));
    let run = Machine::run(cfg, move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(tree)).0);
    run.report.trace.expect("tracing was enabled")
}

/// Heap allocations of one call of `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (ALLOCS.load(Relaxed) - before, out)
}

#[test]
fn the_race_fold_allocates_the_same_for_any_word_or_sync_count() {
    let (tiny, small) = (recorded(presets::tiny()), recorded(presets::small()));
    let (hb_tiny, r_tiny) = allocations(|| check_trace(&tiny).expect("replayable"));
    let (hb_small, r_small) = allocations(|| check_trace(&small).expect("replayable"));
    let (p_tiny, _) = allocations(|| predict(&tiny).expect("replayable"));
    let (p_small, _) = allocations(|| predict(&small).expect("replayable"));
    let runs = format!(
        "words {} -> {}, sync edges {} -> {}; check_trace {hb_tiny} -> {hb_small} allocations, \
         predict {p_tiny} -> {p_small}",
        r_tiny.words, r_small.words, r_tiny.sync_edges, r_small.sync_edges
    );
    assert!(r_small.words > 3 * r_tiny.words / 2 + 1000, "{runs}");
    assert!(r_small.sync_edges > r_tiny.sync_edges + 1000, "{runs}");
    // What may grow: the hash tables' and buffers' doublings, the run lists
    // of each segment among them (158 -> 214 and 353 -> 440 measured; the
    // sync walk alone 32 -> 35); nowhere near one per word or per sync edge.
    assert!(hb_small <= hb_tiny + 100, "{runs}");
    assert!(p_small <= p_tiny + 150, "{runs}");
}
