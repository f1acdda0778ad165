//! `scioto table1` — Table 1, microbenchmark timings for core
//! task-collection operations.
//!
//! Reproduces: local insert, remote insert, local get, remote steal, with
//! a 1 KiB task body and chunk size 10, under the cluster and Cray XT4
//! latency models. Times are *modelled* (virtual) microseconds; the
//! paper's measured values are printed alongside for comparison.
//! Takes the latency, policy and trace/check flags of [`RunSpec`]; the
//! cluster measurement doubles as the traced run.

use scioto::{Task, TaskCollection, TcConfig};
use scioto_armci::Armci;
use scioto_sim::{LatencyModel, Machine, Report, SpeedModel, TraceConfig};

use crate::front::Outcome;
use crate::{render_table, us, Args, BenchOut, RunSpec};

const BODY: usize = 1024;
const CHUNK: usize = 10;

/// The table's rows: `(label, metric key, the paper's cluster µs, the
/// paper's XT4 µs)`.
const OPS: [(&str, &str, &str, &str); 4] = [
    ("Local Insert", "local_insert", "0.4952", "0.9330"),
    ("Remote Insert", "remote_insert", "18.0819", "27.018"),
    ("Local Get", "local_get", "0.3613", "0.6913"),
    ("Remote Steal", "remote_steal", "29.0080", "32.384"),
];

/// The virtual-time cost in ns of the four operations, in [`OPS`] order:
/// the local ones as rank 0 times them, the remote ones as rank 1 does.
fn measure(base_latency: LatencyModel, trace: TraceConfig, spec: &RunSpec) -> ([u64; 4], Report) {
    let policy = spec.policy;
    let out = Machine::run(
        spec.machine(2, base_latency, SpeedModel::uniform(2)).with_trace(trace),
        move |ctx| {
            let armci = Armci::init(ctx);
            // Local-op collection with default split policy.
            let base_cfg = policy.tc(TcConfig::new(BODY, CHUNK, 8192));
            let tc = TaskCollection::create(ctx, &armci, base_cfg);
            // Steal-target collection with an eager release policy so the
            // shared portion always has chunks available.
            let steal_cfg = TcConfig {
                release_threshold: 1 << 20,
                ..base_cfg
            };
            let tc2 = TaskCollection::create(ctx, &armci, steal_cfg);
            let h = tc.register(ctx, std::sync::Arc::new(|_| {}));
            let h2 = tc2.register(ctx, std::sync::Arc::new(|_| {}));
            let task = Task::with_body_size(h, BODY);
            let task2 = Task::with_body_size(h2, BODY);

            let mut times = [0u64; 4];
            const N: u64 = 1000;
            if ctx.rank() == 0 {
                // Local insert.
                let t0 = ctx.now();
                for _ in 0..N {
                    tc.bench_push_local(ctx, &task);
                }
                times[0] = (ctx.now() - t0) / N;
                // Local get.
                let t0 = ctx.now();
                for _ in 0..N {
                    assert!(tc.bench_pop_local(ctx));
                }
                times[1] = (ctx.now() - t0) / N;
                // Seed the steal-target collection generously.
                for _ in 0..2000 {
                    tc2.bench_push_local(ctx, &task2);
                }
            }
            armci.barrier(ctx);
            if ctx.rank() == 1 {
                // Remote insert.
                let t0 = ctx.now();
                for _ in 0..N {
                    tc.bench_insert_remote(ctx, 0, &task);
                }
                times[2] = (ctx.now() - t0) / N;
                // Remote steal (chunk tasks per operation).
                const S: u64 = 100;
                let t0 = ctx.now();
                for _ in 0..S {
                    let got = tc2.bench_steal(ctx, 0);
                    assert_eq!(got, CHUNK, "steal bench ran out of shared tasks");
                }
                times[3] = (ctx.now() - t0) / S;
            }
            armci.barrier(ctx);
            times
        },
    );
    let (r0, r1) = (out.results[0], out.results[1]);
    ([r0[0], r1[2], r0[1], r1[3]], out.report)
}

pub fn run(args: &Args) -> Outcome {
    let spec = RunSpec::from_args(args);
    let trace = if spec.obs_requested() {
        spec.trace_config()
    } else {
        TraceConfig::disabled()
    };
    let (cluster, cluster_report) = measure(LatencyModel::cluster(), trace, &spec);
    let (xt4, _) = measure(LatencyModel::xt4(), TraceConfig::disabled(), &spec);
    spec.observe(&cluster_report)?;

    let mut bench = BenchOut::new("table1");
    bench.param("body_bytes", BODY);
    bench.param("chunk", CHUNK);
    bench.param("ranks", 2);
    spec.record(&mut bench);
    let mut rows = Vec::new();
    for (i, (label, key, paper_cluster, paper_xt4)) in OPS.into_iter().enumerate() {
        bench.metric(&format!("cluster_{key}_ns"), cluster[i] as f64);
        bench.metric(&format!("xt4_{key}_ns"), xt4[i] as f64);
        rows.push(vec![
            label.into(),
            us(cluster[i]),
            paper_cluster.into(),
            us(xt4[i]),
            paper_xt4.into(),
        ]);
    }
    bench.write_if_requested(args)?;
    print!(
        "{}",
        render_table(
            "Table 1: task collection operation timings (µs; 1 KiB body, chunk 10)",
            &[
                "Operation",
                "Cluster (model)",
                "Cluster (paper)",
                "XT4 (model)",
                "XT4 (paper)",
            ],
            &rows,
        )
    );
    Ok(())
}
