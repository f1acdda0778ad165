//! The barrier-free collective protocol: one instance everywhere,
//! schedule-independent waiter clocks, epoch commit semantics and the
//! pinned divergence diagnostic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scioto_sim::{Machine, MachineConfig, TraceConfig};

/// Every rank receives the same rank-0 object and `make` runs exactly
/// once per collective.
#[test]
fn every_rank_receives_the_one_instance() {
    let made = Arc::new(AtomicUsize::new(0));
    let made2 = Arc::clone(&made);
    let out = Machine::run(MachineConfig::virtual_time(4), move |ctx| {
        ctx.compute(1_000 * ctx.rank() as u64);
        let made = Arc::clone(&made2);
        let a = ctx.collective(move || {
            made.fetch_add(1, Ordering::Relaxed);
            vec![7u64, 8, 9]
        });
        let b = ctx.collective(|| String::from("shared"));
        (Arc::as_ptr(&a) as usize, a[ctx.rank() % 3], b.len())
    });
    let (p0, ..) = out.results[0];
    for &(p, v, l) in &out.results {
        assert_eq!(p, p0, "same instance everywhere");
        assert!(v >= 7 && l == 6);
    }
    assert_eq!(made.load(Ordering::Relaxed), 1);
}

/// A waiter's post-collective clock is max(own arrival, rank 0's publish
/// stamp): early ranks park until publication, late ranks pay nothing.
#[test]
fn coalesced_waiter_clock_is_max_of_arrival_and_publish() {
    let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
        let arrival = [10_000u64, 0, 25_000][ctx.rank()];
        ctx.compute(arrival);
        let _ = ctx.collective(|| 42u8);
        ctx.now()
    });
    // rank 0 publishes at 10_000; rank 1 arrived at 0 and waited for it;
    // rank 2 arrived after publication and kept its own clock.
    assert_eq!(out.results, vec![10_000, 10_000, 25_000]);
}

/// Same seed, same program: the protocol is deterministic —
/// byte-identical traces run to run.
#[test]
fn coalesced_runs_are_deterministic() {
    let run = || {
        Machine::run(
            MachineConfig::virtual_time(4).with_trace(TraceConfig::enabled()),
            |ctx| {
                ctx.compute(500 * (ctx.rank() as u64 + 1));
                let v = ctx.collective(|| 11u32);
                ctx.collective_epoch(|| {
                    let _ = ctx.collective(|| 0.5f64);
                });
                *v as u64 + ctx.now()
            },
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.results, b.results);
    assert_eq!(a.report.makespan_ns, b.report.makespan_ns);
    let (ta, tb) = (a.report.trace.unwrap(), b.report.trace.unwrap());
    assert_eq!(ta.to_jsonl(), tb.to_jsonl());
}

/// Closing the outermost epoch runs exactly one commit barrier: all
/// ranks leave aligned at max(arrival) + barrier cost, and nested
/// epochs do not add further barriers.
#[test]
fn epoch_commits_once_and_aligns_ranks() {
    let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
        ctx.collective_epoch(|| {
            let _ = ctx.collective(|| 1u8);
            // Nested epoch: transparent, no extra commit.
            ctx.collective_epoch(|| {
                let _ = ctx.collective(|| 2u16);
            });
            // Rank-local fill the commit barrier must cover.
            ctx.compute(if ctx.rank() == 1 { 9_000 } else { 100 });
        });
        ctx.now()
    });
    let t = out.results[0];
    assert_eq!(out.results, vec![t, t], "commit barrier aligns all ranks");
    assert!(t >= 9_000, "slowest rank's fill dominates: {t}");
    // One barrier's worth of release cost over the slowest fill, not two.
    let one_barrier = Machine::run(MachineConfig::virtual_time(2), |ctx| {
        ctx.compute(if ctx.rank() == 1 { 9_000 } else { 100 });
        ctx.barrier();
        ctx.now()
    });
    assert_eq!(t, one_barrier.results[0]);
}

fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = catch_unwind(f).expect_err("machine must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

/// Pinned diagnostic: a rank whose collective sequence diverges by type
/// is named with its rank, ordinal, and both types.
#[test]
fn coalesced_type_divergence_names_rank_ordinal_and_types() {
    let msg = panic_message(AssertUnwindSafe(|| {
        let _ = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.collective(|| 1u32);
            } else {
                let _ = ctx.collective(String::new);
            }
            ctx.barrier();
        });
    }));
    assert!(
        msg.contains(
            "collective divergence: rank 1 reached collective #0 expecting a \
             alloc::string::String, but rank 0 published a u32 (ranks disagree on the \
             collective call sequence)"
        ),
        "unexpected diagnostic: {msg}"
    );
}
