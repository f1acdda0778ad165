//! UTS over Scioto task collections: one task per tree node, statistics
//! accumulated in a common local object (exactly the structure described
//! in §6.2 of the paper).

use std::sync::Arc;

use scioto_det::sync::Mutex;

use scioto::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_armci::Armci;
use scioto_sim::Ctx;

use crate::node::{Node, TreeParams, TreeStats, NODE_BYTES};
use crate::NODE_COST_NS;

/// Configuration of a Scioto UTS run.
#[derive(Debug, Clone, Copy)]
pub struct SciotoUtsConfig {
    /// Tree to traverse.
    pub params: TreeParams,
    /// Virtual CPU cost per node on the reference CPU.
    pub node_cost_ns: u64,
    /// The task collection's configuration, used as is: chunk, queue
    /// kind, release policy, victim selection, termination detection.
    pub tc: TcConfig,
}

impl SciotoUtsConfig {
    /// Paper-flavoured defaults: chunk 10, split queues.
    pub fn new(params: TreeParams) -> Self {
        SciotoUtsConfig {
            params,
            node_cost_ns: NODE_COST_NS,
            tc: TcConfig::new(NODE_BYTES, 10, 1 << 17),
        }
    }
}

/// Run UTS on an already-running machine. Collective. Returns this rank's
/// partial tree statistics and its task-collection statistics.
pub fn run_scioto_uts(ctx: &Ctx, cfg: &SciotoUtsConfig) -> (TreeStats, scioto::ProcessStats) {
    let armci = Armci::init(ctx);
    let tc = TaskCollection::create(ctx, &armci, cfg.tc);

    // Common local object: this rank's partial statistics (§2.3 — "common
    // local objects are used to accumulate the tree statistics").
    let stats = Arc::new(Mutex::new(TreeStats::default()));
    let stats_clo = tc.register_clo(ctx, stats.clone());

    // The callback spawns children through its own handle.
    let self_handle = Arc::new(std::sync::OnceLock::new());
    let handle_ref = self_handle.clone();
    let params = cfg.params;
    let node_cost = cfg.node_cost_ns;
    let h = tc.register(
        ctx,
        Arc::new(move |t| {
            let node = Node::decode(t.body());
            let kids = params.num_children(&node);
            let stats: Arc<Mutex<TreeStats>> = t.tc.clo(t.ctx, stats_clo);
            stats.lock().visit(node.depth, kids);
            t.ctx.compute(node_cost);
            if kids > 0 {
                let h = *handle_ref.get().expect("handle registered before use");
                let me = t.ctx.rank();
                let mut task = Task::with_body_size(h, NODE_BYTES);
                for i in 0..kids {
                    task.body_mut().copy_from_slice(&node.child(i).encode());
                    t.tc.add(t.ctx, me, AFFINITY_HIGH, &task);
                }
            }
        }),
    );
    self_handle.set(h).expect("handle set once");

    if ctx.rank() == 0 {
        let root = cfg.params.root();
        tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, root.encode().to_vec()));
    }
    let pstats = tc.process(ctx);
    let local = *stats.lock();
    (local, pstats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::sequential::count_tree;
    use scioto_sim::{BarrierKind, LatencyModel, Machine, MachineConfig};

    #[test]
    fn scioto_count_matches_sequential() {
        let expect = count_tree(&presets::tiny());
        // The defaults, and the paper's configuration: uniform victims,
        // per-slot termination detection, flat barrier.
        let defaults = SciotoUtsConfig::new(presets::tiny());
        let mut paper = defaults;
        paper.tc = paper.tc.with_victim(scioto::VictimPolicy::Uniform).with_td_batch(false);
        for (cfg, barrier) in [(defaults, BarrierKind::Tree), (paper, BarrierKind::Flat)] {
            for ranks in [1, 2, 4] {
                let out = Machine::run(
                    MachineConfig::virtual_time(ranks)
                        .with_latency(LatencyModel::cluster())
                        .with_barrier(barrier),
                    move |ctx| run_scioto_uts(ctx, &cfg).0,
                );
                let mut total = TreeStats::default();
                for s in &out.results {
                    total.merge(s);
                }
                assert_eq!(total.nodes, expect.nodes, "ranks={ranks} {barrier:?}");
                assert_eq!(total.leaves, expect.leaves, "ranks={ranks} {barrier:?}");
                assert_eq!(total.max_depth, expect.max_depth, "ranks={ranks} {barrier:?}");
            }
        }
    }

    #[test]
    fn locked_queue_driver_matches_too() {
        let expect = count_tree(&presets::tiny());
        let out = Machine::run(
            MachineConfig::virtual_time(3).with_latency(LatencyModel::cluster()),
            |ctx| {
                let mut cfg = SciotoUtsConfig::new(presets::tiny());
                cfg.tc.queue = scioto::QueueKind::Locked;
                run_scioto_uts(ctx, &cfg).0
            },
        );
        let mut total = TreeStats::default();
        for s in &out.results {
            total.merge(s);
        }
        assert_eq!(total.nodes, expect.nodes);
    }

    #[test]
    fn parallel_run_spreads_nodes() {
        let out = Machine::run(
            MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
            |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(presets::small())).0,
        );
        let busy = out.results.iter().filter(|s| s.nodes > 0).count();
        assert!(busy >= 3, "nodes per rank: {:?}", out.results);
    }

    #[test]
    fn more_ranks_reduce_virtual_makespan() {
        let time = |ranks| {
            Machine::run(
                MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
                |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(presets::small())).0,
            )
            .report
            .makespan_ns
        };
        let t1 = time(1);
        let t4 = time(4);
        assert!(
            (t4 as f64) < 0.5 * t1 as f64,
            "4 ranks ({t4} ns) should be well under half of 1 rank ({t1} ns)"
        );
    }
}
