//! End-to-end race checking against real machine traces: the properly
//! locked shared-counter protocol is clean, and a seeded synthetic race
//! (one rank skipping the shared-portion lock) is flagged with exact
//! rank / clock / operation attribution.

use scioto_armci::Armci;
use scioto_race::check_trace;
use scioto_sim::{Machine, MachineConfig, TraceConfig};

#[test]
fn locked_shared_counter_is_clean() {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let m = armci.create_mutexes(ctx, 1);
            for _ in 0..3 {
                armci.lock(ctx, m, 0, 0);
                let mut buf = [0u8; 8];
                armci.get(ctx, g, 0, 0, &mut buf);
                let v = i64::from_le_bytes(buf);
                ctx.compute(50);
                armci.put(ctx, g, 0, 0, &(v + 1).to_le_bytes());
                armci.unlock(ctx, m, 0, 0);
            }
            armci.barrier(ctx);
            armci.read_i64(ctx, g, 0, 0)
        },
    );
    assert!(out.results.iter().all(|&v| v == 6));
    let trace = out.report.trace.expect("tracing enabled");
    let report = check_trace(&trace).expect("replay succeeds");
    assert!(report.is_clean(), "locked protocol must be race-free:\n{report}");
    assert!(report.sync_edges > 0);
}

#[test]
fn lock_skipping_rank_is_flagged_with_attribution() {
    // Seeded synthetic race: rank 0 plays by the rules (read-modify-write
    // under the mutex), rank 1 skips the lock entirely. Setup collectives
    // are barrier-free, so the program fences setup from the accesses
    // with an explicit barrier — the lock-skipping rank's only sync.
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let m = armci.create_mutexes(ctx, 1);
            armci.barrier(ctx);
            let mut buf = [0u8; 8];
            if ctx.rank() == 0 {
                armci.lock(ctx, m, 0, 0);
                armci.get(ctx, g, 0, 0, &mut buf);
                let v = i64::from_le_bytes(buf);
                armci.put(ctx, g, 0, 0, &(v + 1).to_le_bytes());
                armci.unlock(ctx, m, 0, 0);
            } else {
                // The bug under test: no lock around the shared portion.
                armci.get(ctx, g, 0, 0, &mut buf);
                let v = i64::from_le_bytes(buf);
                armci.put(ctx, g, 0, 0, &(v + 1).to_le_bytes());
            }
            armci.barrier(ctx);
        },
    );
    let trace = out.report.trace.expect("tracing enabled");
    let report = check_trace(&trace).expect("replay succeeds");

    // rank 0's locked get+put vs rank 1's unlocked get+put on the same
    // word: put/get, put/put, and get/put pairs are unordered (read pairs
    // are not conflicts), giving exactly three races.
    assert_eq!(report.races.len(), 3, "{report}");
    for race in &report.races {
        assert_eq!(race.owner, 0, "counter lives on rank 0");
        // Site-pair dedup: each op pair races on exactly the one counter
        // word, so every deduped report has word_count 1.
        assert_eq!((race.word, race.word_hi, race.word_count), (0, 0, 1));
        // The replay releases the setup barrier on its last arriver, rank
        // 1, and runs that stream on first: `first` is the lock-skipper.
        assert_eq!(race.first.rank, 1);
        assert_eq!(race.second.rank, 0);
        assert!(
            race.first.write || race.second.write,
            "at least one side writes: {race}"
        );
        // Rank 0 synchronized (its lock acquire) before its access; the
        // lock-skipping rank's nearest sync is the setup barrier, never a
        // lock.
        let (_, skipper_sync) = race.first.nearest_sync.as_ref().expect("setup barrier");
        assert!(skipper_sync.starts_with("barrier "), "{skipper_sync}");
        let (_, locker_sync) = race.second.nearest_sync.as_ref().expect("rank 0 synced");
        assert!(locker_sync.starts_with("lock "), "{locker_sync}");
    }
    let ops: Vec<(&str, &str)> = report
        .races
        .iter()
        .map(|r| (r.first.op.as_str(), r.second.op.as_str()))
        .collect();
    assert_eq!(ops, vec![("put", "get"), ("put", "put"), ("get", "put")]);
    // Both ranks race at the clock position of their last pre-access sync
    // edge; the replay is deterministic, so the positions are exact: rank 1
    // has ticked through the setup barrier (2), rank 0 through the barrier
    // plus its lock acquire (3).
    let clocks: Vec<(u64, u64)> = report
        .races
        .iter()
        .map(|r| (r.first.clock, r.second.clock))
        .collect();
    assert_eq!(clocks, vec![(2, 3); 3]);
}
