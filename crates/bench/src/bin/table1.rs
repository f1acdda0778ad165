//! Table 1 — microbenchmark timings for core task-collection operations.
//!
//! Reproduces: local insert, remote insert, local get, remote steal, with
//! a 1 KiB task body and chunk size 10, under the cluster and Cray XT4
//! latency models. Times are *modelled* (virtual) microseconds; the
//! paper's measured values are printed alongside for comparison.
//!
//! Run: `cargo run --release -p scioto-bench --bin table1`
//! Options: the latency, policy and trace/check flags every figure bin
//! takes (`scioto_bench::RunSpec`).

use scioto::{Task, TaskCollection, TcConfig};
use scioto_armci::Armci;
use scioto_bench::{render_table, us, Args, BenchOut, RunSpec};
use scioto_sim::{LatencyModel, Machine, Report, SpeedModel, TraceConfig};

const BODY: usize = 1024;
const CHUNK: usize = 10;

/// Measured virtual-time costs of the four operations, in ns.
struct OpTimes {
    local_insert: u64,
    local_get: u64,
    remote_insert: u64,
    remote_steal: u64,
}

fn measure(base_latency: LatencyModel, trace: TraceConfig, spec: &RunSpec) -> (OpTimes, Report) {
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
    let times = OpTimes {
        local_insert: out.results[0][0],
        local_get: out.results[0][1],
        remote_insert: out.results[1][2],
        remote_steal: out.results[1][3],
    };
    (times, out.report)
}

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let spec = RunSpec::from_args(&args);
    // The cluster measurement doubles as the traced run when asked for.
    let trace = if spec.obs_requested() {
        spec.trace_config()
    } else {
        TraceConfig::disabled()
    };
    let (cluster, cluster_report) = measure(LatencyModel::cluster(), trace, &spec);
    let (xt4, _) = measure(LatencyModel::xt4(), TraceConfig::disabled(), &spec);
    spec.observe(&cluster_report);

    let mut bench = BenchOut::new("table1");
    bench.param("body_bytes", BODY);
    bench.param("chunk", CHUNK);
    bench.param("ranks", 2);
    spec.record(&mut bench);
    for (model, t) in [("cluster", &cluster), ("xt4", &xt4)] {
        bench.metric(&format!("{model}_local_insert_ns"), t.local_insert as f64);
        bench.metric(&format!("{model}_local_get_ns"), t.local_get as f64);
        bench.metric(&format!("{model}_remote_insert_ns"), t.remote_insert as f64);
        bench.metric(&format!("{model}_remote_steal_ns"), t.remote_steal as f64);
    }
    bench.write_if_requested(&args);
    let rows = vec![
        vec![
            "Local Insert".into(),
            us(cluster.local_insert),
            "0.4952".into(),
            us(xt4.local_insert),
            "0.9330".into(),
        ],
        vec![
            "Remote Insert".into(),
            us(cluster.remote_insert),
            "18.0819".into(),
            us(xt4.remote_insert),
            "27.018".into(),
        ],
        vec![
            "Local Get".into(),
            us(cluster.local_get),
            "0.3613".into(),
            us(xt4.local_get),
            "0.6913".into(),
        ],
        vec![
            "Remote Steal".into(),
            us(cluster.remote_steal),
            "29.0080".into(),
            us(xt4.remote_steal),
            "32.384".into(),
        ],
    ];
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
}
