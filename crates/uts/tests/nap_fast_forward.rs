//! The idle loop's nap ticks, pinned on a run that is mostly napping.
//!
//! 64 ranks share a tree of a few thousand nodes under the near/far
//! cluster latencies and heterogeneous speeds, so most ranks spend the
//! phase failing steals and backing off. The golden holds the makespan,
//! every rank's final clock, the kernel's event counts and the summed
//! `ProcessStats` for both victim policies: an idle loop that charges a
//! different amount of CPU per nap, or polls the detector one tick early
//! or late, moves at least one of them. Refresh deliberately with
//! `SCIOTO_BLESS_GOLDENS=1 cargo test -p scioto-uts --test nap_fast_forward`
//! and commit the file with the explanation.

use scioto::{ProcessStats, VictimPolicy};
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel};
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::sequential::count_tree;
use scioto_uts::{TreeKind, TreeParams, TreeStats};

const RANKS: usize = 64;

fn tree() -> TreeParams {
    TreeParams {
        kind: TreeKind::Geometric { b0: 2.0, gen_mx: 10 },
        seed: 7,
    }
}

fn sum(results: &[(TreeStats, ProcessStats)]) -> (TreeStats, ProcessStats) {
    let mut tree = TreeStats::default();
    let mut stats = ProcessStats::default();
    for (t, s) in results {
        tree.merge(t);
        stats.merge(s);
    }
    (tree, stats)
}

fn summary(victim: VictimPolicy) -> String {
    let mut cfg = SciotoUtsConfig::new(tree());
    cfg.tc = cfg.tc.with_victim(victim);
    let machine = MachineConfig::virtual_time(RANKS)
        .with_latency(LatencyModel::cluster_nearfar())
        .with_speed(SpeedModel::hetero_cluster(RANKS));
    let out = Machine::run(machine, move |ctx| run_scioto_uts(ctx, &cfg));
    let (total, stats) = sum(&out.results);
    assert_eq!(total, count_tree(&tree()), "{victim:?}: every node visited once");
    // Nap-heavy: every failed steal starts a backoff nap, and each rank
    // fails many times over.
    let failed = stats.steals_attempted - stats.steals_succeeded;
    assert!(
        failed > 16 * RANKS as u64,
        "{victim:?}: the run must be mostly idle ({stats:?})"
    );
    let r = &out.report;
    format!(
        "victim {victim:?}\nmakespan_ns {}\nrank_clock_ns {:?}\nevents {:?}\nprocess_stats {stats:?}\n",
        r.makespan_ns, r.rank_clock_ns, r.events
    )
}

#[test]
fn nap_heavy_run_matches_its_golden() {
    let got = summary(VictimPolicy::Locality) + &summary(VictimPolicy::Uniform);
    let path = format!("{}/tests/goldens/nap_heavy_p64.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SCIOTO_BLESS_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("golden is writable");
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(got == want, "nap-heavy run differs from {path}:\n{got}");
}

/// On real threads a nap is real waiting: the same tree on four threads
/// executes every task exactly once and the phase terminates.
#[test]
fn concurrent_napping_ranks_execute_every_task_once() {
    let expect = count_tree(&tree());
    for victim in [VictimPolicy::Locality, VictimPolicy::Uniform] {
        let mut cfg = SciotoUtsConfig::new(tree());
        cfg.tc = cfg.tc.with_victim(victim);
        let out = Machine::run(MachineConfig::concurrent(4), move |ctx| run_scioto_uts(ctx, &cfg));
        let (total, stats) = sum(&out.results);
        assert_eq!(total, expect, "{victim:?}");
        assert_eq!(stats.tasks_executed, expect.nodes, "{victim:?}");
        assert_eq!(stats.tasks_spawned, expect.nodes, "{victim:?}");
    }
}
