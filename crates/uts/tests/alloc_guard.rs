//! The owner's task path allocates nothing: a 1-rank Scioto UTS run makes
//! as many heap allocations for a 56k-node tree as for a 2k-node one, up
//! to a constant (the queue's slot store grows one chunk per doubling of
//! its depth). A per-node allocation — a fresh child `Task`, a staged slot,
//! a copied body — would add thousands.
//!
//! Its own test binary, holding one test, because it installs a counting
//! global allocator: every allocation of the process goes through it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use scioto_sim::{Machine, MachineConfig};
use scioto_uts::presets;
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::sequential::count_tree;
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

/// Heap allocations of one 1-rank virtual-time run over `tree`, and the
/// nodes it visited.
fn allocations(tree: TreeParams) -> (u64, u64) {
    let cfg = SciotoUtsConfig::new(tree);
    let before = ALLOCS.load(Relaxed);
    let out = Machine::run(MachineConfig::virtual_time(1), move |ctx| run_scioto_uts(ctx, &cfg).0);
    (ALLOCS.load(Relaxed) - before, out.results[0].nodes)
}

#[test]
fn a_one_rank_uts_run_allocates_the_same_for_any_task_count() {
    let (tiny, tiny_nodes) = allocations(presets::tiny());
    let (small, small_nodes) = allocations(presets::small());
    assert_eq!(tiny_nodes, count_tree(&presets::tiny()).nodes);
    assert_eq!(small_nodes, count_tree(&presets::small()).nodes);
    assert!(small_nodes > 8 * tiny_nodes, "{tiny_nodes} vs {small_nodes} nodes");
    // The slot store's chunk per doubling of the queue's depth (one more
    // here), with room for a few; nowhere near the 54k extra nodes.
    assert!(
        small <= tiny + 8,
        "{small} allocations for {small_nodes} nodes vs {tiny} for {tiny_nodes}"
    );
}
