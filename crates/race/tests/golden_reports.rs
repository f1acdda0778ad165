//! Goldens of the full `scioto-race-v1` line for every fixture that
//! produces findings. Every real trace is clean, so nothing else pins
//! report *order* and *attribution* — which follow the order the sync
//! walk yields events in. The label is fixed so the lines are stable.
//!
//! Four fixtures are real machine traces (virtual time is deterministic);
//! a deliberate virtual-time change moves their stamps: refresh with
//! `SCIOTO_BLESS_GOLDENS=1 cargo test -p scioto-race --test golden_reports`
//! and commit the files with the explanation.

use scioto_armci::Armci;
use scioto_race::{check_deadlocks, check_trace, predict, render_report};
use scioto_sim::{
    Ctx, Machine, MachineConfig, RemoteOpKind, StampedEvent, Trace, TraceConfig, TraceEvent,
    WaveDir,
};

fn check_golden(name: &str, trace: &Trace) {
    let hb = check_trace(trace).expect("hb replay succeeds");
    let p = predict(trace).expect("predict succeeds");
    let d = check_deadlocks(trace).expect("deadlock scan succeeds");
    let line = render_report("golden", trace.nranks(), &hb, Some(&p), Some(&d)) + "\n";
    assert!(line.contains("\"clean\":false"), "{name}: a golden fixture has findings");
    let path = format!("{}/tests/goldens/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SCIOTO_BLESS_GOLDENS").is_some() {
        std::fs::write(&path, &line).expect("golden is writable");
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(line, want, "{name}: report differs from {path}");
}

fn traced(ranks: usize, program: impl Fn(&Ctx) + Send + Sync) -> Trace {
    let cfg = MachineConfig::virtual_time(ranks).with_trace(TraceConfig::enabled());
    Machine::run(cfg, program).report.trace.expect("tracing enabled")
}

/// `seeded_race.rs`'s fixture: rank 1 skips the counter's mutex (3 races).
#[test]
fn lock_skipping_rank() {
    let trace = traced(2, |ctx| {
        let armci = Armci::init(ctx);
        let g = armci.malloc(ctx, 8);
        let m = armci.create_mutexes(ctx, 1);
        armci.barrier(ctx);
        let mut buf = [0u8; 8];
        if ctx.rank() == 0 {
            armci.lock(ctx, m, 0, 0);
        }
        armci.get(ctx, g, 0, 0, &mut buf);
        let v = i64::from_le_bytes(buf);
        armci.put(ctx, g, 0, 0, &(v + 1).to_le_bytes());
        if ctx.rank() == 0 {
            armci.unlock(ctx, m, 0, 0);
        }
        armci.barrier(ctx);
    });
    check_golden("lock_skipping_rank", &trace);
}

/// `predict_fixtures.rs`'s masked race (1 predicted race + witness).
#[test]
fn masked_race() {
    let trace = traced(2, |ctx| {
        let armci = Armci::init(ctx);
        let shared = armci.malloc(ctx, 8);
        let scratch = armci.malloc(ctx, 16);
        let m = armci.create_mutexes(ctx, 1);
        if ctx.rank() == 0 {
            armci.put(ctx, shared, 0, 0, &1i64.to_le_bytes());
            armci.lock(ctx, m, 0, 0);
            armci.put(ctx, scratch, 0, 0, &2i64.to_le_bytes());
            armci.unlock(ctx, m, 0, 0);
        } else {
            ctx.compute(10_000_000);
            armci.lock(ctx, m, 0, 0);
            armci.put(ctx, scratch, 0, 8, &3i64.to_le_bytes());
            armci.unlock(ctx, m, 0, 0);
            armci.put(ctx, shared, 0, 0, &4i64.to_le_bytes());
        }
        armci.barrier(ctx);
    });
    check_golden("masked_race", &trace);
}

/// Two ranks nest two mutexes in opposite orders (1 deadlock cycle).
#[test]
fn lock_order_cycle() {
    let trace = traced(2, |ctx| {
        let armci = Armci::init(ctx);
        let m = armci.create_mutexes(ctx, 2);
        let (outer, inner) = (ctx.rank(), 1 - ctx.rank());
        ctx.compute(10_000_000 * ctx.rank() as u64);
        armci.lock(ctx, m, outer, 0);
        armci.lock(ctx, m, inner, 0);
        armci.unlock(ctx, m, inner, 0);
        armci.unlock(ctx, m, outer, 0);
        armci.barrier(ctx);
    });
    check_golden("lock_order_cycle", &trace);
}

/// A word written plain by rank 0 and atomic-marked by rank 1, barrier
/// between them (1 atomicity violation, nothing else).
#[test]
fn atomicity_violation() {
    let trace = traced(2, |ctx| {
        let armci = Armci::init(ctx);
        let g = armci.malloc(ctx, 8);
        if ctx.rank() == 0 {
            armci.put(ctx, g, 0, 0, &1i64.to_le_bytes());
        }
        armci.barrier(ctx);
        if ctx.rank() == 1 {
            // protocol: (seeded violation fixture — no real protocol)
            armci.put_atomic(ctx, g, 0, 0, &2i64.to_le_bytes());
        }
        armci.barrier(ctx);
    });
    check_golden("atomicity_violation", &trace);
}

/// Wave numbers restart across episodes and rank 0 sits the second one
/// out, so both children's second `Down(1)` clamp to rank 0's only
/// `Down(1)`: the stale match still orders word 0 (written before it)
/// but not word 1 (written after it) — rank 1's put races — and rank 2's
/// clean get shows the edge was taken, not skipped. Unclamped, the
/// replay would wait for a second emission forever.
#[test]
fn clamped_td_wave() {
    let wave = |dir| TraceEvent::TdWave { wave: 1, dir, black: false };
    let local = |offset| TraceEvent::LocalAccess {
        seg: 0,
        offset,
        bytes: 8,
        write: true,
        atomic: false,
    };
    let remote = |kind, offset| TraceEvent::RemoteOp {
        kind,
        target: 0,
        seg: 0,
        offset,
        bytes: 8,
        atomic: false,
    };
    let barrier = TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 };
    let ranks = vec![
        vec![barrier, local(0), wave(WaveDir::Down), wave(WaveDir::Up), local(8)],
        vec![
            barrier,
            wave(WaveDir::Down),
            wave(WaveDir::Up),
            wave(WaveDir::Down),
            remote(RemoteOpKind::Get, 0),
            remote(RemoteOpKind::Put, 8),
        ],
        vec![
            barrier,
            wave(WaveDir::Down),
            wave(WaveDir::Up),
            wave(WaveDir::Down),
            remote(RemoteOpKind::Get, 0),
        ],
    ];
    let n = ranks.len();
    let trace = Trace {
        events: ranks
            .into_iter()
            .map(|evs| {
                evs.into_iter()
                    .enumerate()
                    .map(|(i, event)| StampedEvent { t_ns: 10 * (i as u64 + 1), event })
                    .collect()
            })
            .collect(),
        dropped: vec![0; n],
        final_clock_ns: Vec::new(),
        wall_clock: false,
        hists: (0..n).map(|_| Default::default()).collect(),
        gauges: (0..n).map(|_| Default::default()).collect(),
    };
    check_golden("clamped_td_wave", &trace);
}
