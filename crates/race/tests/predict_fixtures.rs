//! Seeded predictive-analysis fixtures against real machine traces:
//! each one plants a specific hazard that the observed (deterministic)
//! schedule hides, and pins the exact report the analysis produces.
//! A closing regression drives a real UTS work-stealing run through all
//! three analyses and requires them to find nothing.

use scioto_armci::Armci;
use scioto_race::{check_deadlocks, check_trace, predict, Resource};
use scioto_sim::{Machine, MachineConfig, Trace, TraceConfig};

/// The canonical schedule-masked race. Rank 0 writes the shared word
/// *before* its critical section; rank 1 writes it *after* its own.
/// The two critical sections touch disjoint scratch words, so the
/// release→acquire edge the observed schedule happens to create is
/// accidental — swapping the critical sections exposes the write/write
/// race. HB must stay clean; predict must report exactly this pair.
fn masked_race_trace() -> Trace {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let shared = armci.malloc(ctx, 8); // the raced word, on rank 0
            let scratch = armci.malloc(ctx, 16); // disjoint CS footprints
            let m = armci.create_mutexes(ctx, 1);
            if ctx.rank() == 0 {
                armci.put(ctx, shared, 0, 0, &1i64.to_le_bytes());
                armci.lock(ctx, m, 0, 0);
                armci.put(ctx, scratch, 0, 0, &2i64.to_le_bytes());
                armci.unlock(ctx, m, 0, 0);
            } else {
                // Stagger so rank 0's critical section deterministically
                // runs first — the masking edge points 0 → 1.
                ctx.compute(10_000_000);
                armci.lock(ctx, m, 0, 0);
                armci.put(ctx, scratch, 0, 8, &3i64.to_le_bytes());
                armci.unlock(ctx, m, 0, 0);
                armci.put(ctx, shared, 0, 0, &4i64.to_le_bytes());
            }
            armci.barrier(ctx);
        },
    );
    out.report.trace.expect("tracing enabled")
}

#[test]
fn masked_race_fixture_pins_exact_predicted_report() {
    let trace = masked_race_trace();
    // The observed schedule is happens-before clean...
    let hb = check_trace(&trace).expect("replay succeeds");
    assert!(hb.is_clean(), "the mask must hold in the observed order:\n{hb}");
    // ...but the predictive pass sees through the accidental edge.
    let p = predict(&trace).expect("predict succeeds");
    assert!(p.atomicity.is_empty(), "{p}");
    assert_eq!(p.predicted.len(), 1, "{p}");
    let r = &p.predicted[0];
    assert_eq!(r.owner, 0, "the raced word lives on rank 0");
    assert_eq!((r.word_hi, r.word_count), (r.word, 1));
    assert_eq!((r.first.rank, r.second.rank), (0, 1));
    assert_eq!((r.first.op.as_str(), r.second.op.as_str()), ("put", "put"));
    assert!(r.first.write && r.second.write);
    // The masking lock is the fixture's only mutex (idx 0) and the
    // dropped edge is the one into rank 1's acquire (generation 2).
    assert_eq!(r.lock.2, 0, "mutex idx 0 masks the race");
    assert_eq!(r.gen, 2, "rank 1 holds the second ownership generation");
    assert!(r.witness.contains("swap"), "witness explains the reorder: {}", r.witness);
    assert!(p.dropped_edges >= 1, "the masking edge must be dropped: {p}");
    // No lock-order hazard in this fixture.
    let d = check_deadlocks(&trace).expect("scan succeeds");
    assert!(d.is_clean(), "{d}");
}

/// Two ranks nest the same two VLocks in opposite orders, serialized by
/// a large compute stagger so the observed run never actually blocks.
#[test]
fn two_rank_lock_order_cycle_fixture() {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let m = armci.create_mutexes(ctx, 2);
            if ctx.rank() == 0 {
                armci.lock(ctx, m, 0, 0);
                armci.lock(ctx, m, 1, 0);
                armci.unlock(ctx, m, 1, 0);
                armci.unlock(ctx, m, 0, 0);
            } else {
                ctx.compute(10_000_000); // serialize: rank 0 is long done
                armci.lock(ctx, m, 1, 0);
                armci.lock(ctx, m, 0, 0);
                armci.unlock(ctx, m, 0, 0);
                armci.unlock(ctx, m, 1, 0);
            }
            armci.barrier(ctx);
        },
    );
    let trace = out.report.trace.expect("tracing enabled");
    // The run completed (we are here) and is HB-clean...
    assert!(check_trace(&trace).expect("replay succeeds").is_clean());
    // ...yet the nesting inversion is a one-schedule-away deadlock.
    let d = check_deadlocks(&trace).expect("scan succeeds");
    assert_eq!(d.cycles.len(), 1, "{d}");
    assert!(!d.truncated);
    let c = &d.cycles[0];
    assert_eq!(c.ranks, vec![0, 1]);
    let idxs: Vec<u32> = c
        .nodes
        .iter()
        .map(|n| match n {
            Resource::Lock((_, _, idx)) => *idx,
            other => panic!("pure lock cycle expected, got {other}"),
        })
        .collect();
    assert_eq!(idxs.len(), 2);
    assert!(idxs.contains(&0) && idxs.contains(&1), "{idxs:?}");
    // Each edge's witness names the two acquisition events and the lock
    // held at the request.
    for w in &c.witnesses {
        assert_eq!(w.holdset.len(), 1, "one lock held at each inner acquire");
        assert!(w.held_ev < w.req_ev, "hold precedes request");
    }
}

/// Three ranks form an A→B→C→A nesting cycle — no two ranks alone are
/// inconsistent, so pairwise analysis would miss it.
#[test]
fn three_rank_lock_order_cycle_fixture() {
    let out = Machine::run(
        MachineConfig::virtual_time(3).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let m = armci.create_mutexes(ctx, 3);
            let r = ctx.rank();
            ctx.compute(10_000_000 * r as u64); // serialize the sections
            let (outer, inner) = (r, (r + 1) % 3);
            armci.lock(ctx, m, outer, 0);
            armci.lock(ctx, m, inner, 0);
            armci.unlock(ctx, m, inner, 0);
            armci.unlock(ctx, m, outer, 0);
            armci.barrier(ctx);
        },
    );
    let trace = out.report.trace.expect("tracing enabled");
    let d = check_deadlocks(&trace).expect("scan succeeds");
    assert_eq!(d.cycles.len(), 1, "{d}");
    let c = &d.cycles[0];
    assert_eq!(c.nodes.len(), 3);
    assert_eq!(c.ranks, vec![0, 1, 2]);
    let mut idxs: Vec<u32> = c
        .nodes
        .iter()
        .map(|n| match n {
            Resource::Lock((_, _, idx)) => *idx,
            other => panic!("pure lock cycle expected, got {other}"),
        })
        .collect();
    idxs.sort_unstable();
    assert_eq!(idxs, vec![0, 1, 2]);
}

/// A protocol word written atomic-marked by one rank and plain by
/// another: the declared single-word discipline is violated even though
/// a barrier orders the writes (no HB race to report).
#[test]
fn protocol_atomicity_violation_fixture() {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            if ctx.rank() == 0 {
                armci.put(ctx, g, 0, 0, &1i64.to_le_bytes());
            }
            armci.barrier(ctx);
            if ctx.rank() == 1 {
                // The seeded bug under test: a marked store to a word
                // another rank writes plain.
                // protocol: (seeded violation fixture — no real protocol)
                armci.put_atomic(ctx, g, 0, 0, &2i64.to_le_bytes());
            }
            armci.barrier(ctx);
        },
    );
    let trace = out.report.trace.expect("tracing enabled");
    // Barriers order the writes: HB-clean, no predicted race either.
    let hb = check_trace(&trace).expect("replay succeeds");
    assert!(hb.is_clean(), "{hb}");
    let p = predict(&trace).expect("predict succeeds");
    assert!(p.predicted.is_empty(), "{p}");
    assert_eq!(p.atomicity.len(), 1, "{p}");
    let v = &p.atomicity[0];
    assert_eq!((v.owner, v.word), (0, 0));
    assert_eq!(v.writers, vec![0, 1]);
    assert!(v.detail.contains("not single-writer"), "{}", v.detail);
    assert!(v.detail.contains("not CAS-chain"), "{}", v.detail);
    assert!(v.detail.contains("no lock held"), "{}", v.detail);
    assert!(
        v.detail.contains("unmarked write by rank 0"),
        "{}",
        v.detail
    );
}

/// Regression: a real work-stealing workload (UTS over the split-queue
/// task collection, 4 ranks, steals and TD waves included) must come
/// through *all three* analyses clean — the predictive pass finds
/// nothing the HB pass missed, the protocol words all classify, and the
/// lock-order graph is acyclic. This is the in-tree twin of the
/// verify.sh gate that runs the figure subcommands with
/// `--predict --deadlock`.
#[test]
fn uts_work_stealing_predicts_nothing_new() {
    let cfg = scioto_uts::scioto_driver::SciotoUtsConfig::new(scioto_uts::presets::tiny());
    let out = Machine::run(
        MachineConfig::virtual_time(4).with_trace(TraceConfig::enabled()),
        move |ctx| scioto_uts::scioto_driver::run_scioto_uts(ctx, &cfg),
    );
    let trace = out.report.trace.expect("tracing enabled");
    let hb = check_trace(&trace).expect("replay succeeds");
    assert!(hb.is_clean(), "{hb}");
    let p = predict(&trace).expect("predict succeeds");
    assert!(p.is_clean(), "{p}");
    assert!(p.protocol_words > 0, "the queue/TD protocols are exercised");
    let d = check_deadlocks(&trace).expect("scan succeeds");
    assert!(d.is_clean(), "{d}");
}
