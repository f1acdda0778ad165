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
    /// Steal chunk size.
    pub chunk: usize,
    /// Per-rank queue capacity.
    pub max_tasks: usize,
    /// Queue implementation (split vs. the locked "No Split" ablation).
    pub queue: scioto::QueueKind,
    /// Split release threshold (shared-portion low-water mark), or `None`
    /// for the collection default.
    pub release_threshold: Option<usize>,
    /// Split release fraction, or `None` for the collection default.
    pub release_fraction: Option<f64>,
    /// Steal victim-selection policy, or `None` for the collection default.
    pub victim: Option<scioto::VictimPolicy>,
    /// Locality-bias continuation probability, or `None` for the default.
    pub victim_cont: Option<f64>,
    /// Locality-bias uniform-escape probability, or `None` for the default.
    pub victim_escape: Option<f64>,
    /// Batched termination detection, or `None` for the collection default.
    pub td_batch: Option<bool>,
}

impl SciotoUtsConfig {
    /// Paper-flavoured defaults: chunk 10, split queues.
    pub fn new(params: TreeParams) -> Self {
        SciotoUtsConfig {
            params,
            node_cost_ns: NODE_COST_NS,
            chunk: 10,
            max_tasks: 1 << 17,
            queue: scioto::QueueKind::Split,
            release_threshold: None,
            release_fraction: None,
            victim: None,
            victim_cont: None,
            victim_escape: None,
            td_batch: None,
        }
    }
}

/// Run UTS on an already-running machine. Collective. Returns this rank's
/// partial tree statistics and its task-collection statistics.
pub fn run_scioto_uts(ctx: &Ctx, cfg: &SciotoUtsConfig) -> (TreeStats, scioto::ProcessStats) {
    let armci = Armci::init(ctx);
    let mut tc_cfg = TcConfig::new(NODE_BYTES, cfg.chunk, cfg.max_tasks).with_queue(cfg.queue);
    if let Some(t) = cfg.release_threshold {
        tc_cfg.release_threshold = t;
    }
    if let Some(f) = cfg.release_fraction {
        tc_cfg.release_fraction = f;
    }
    if let Some(v) = cfg.victim {
        tc_cfg = tc_cfg.with_victim(v);
    }
    if let Some(c) = cfg.victim_cont {
        tc_cfg.victim_cont = c;
    }
    if let Some(e) = cfg.victim_escape {
        tc_cfg.victim_escape = e;
    }
    if let Some(b) = cfg.td_batch {
        tc_cfg = tc_cfg.with_td_batch(b);
    }
    let tc = TaskCollection::create(ctx, &armci, tc_cfg);

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

/// Configuration of the chunked-task UTS driver.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedUtsConfig {
    /// Base driver configuration.
    pub base: SciotoUtsConfig,
    /// Maximum tree nodes carried per task.
    pub nodes_per_task: usize,
    /// Nodes a task may process before flushing its frontier as new tasks.
    pub budget: usize,
}

impl ChunkedUtsConfig {
    /// Defaults: up to 16 nodes per task, 64-node processing budget.
    pub fn new(params: TreeParams) -> Self {
        ChunkedUtsConfig {
            base: SciotoUtsConfig::new(params),
            nodes_per_task: 16,
            budget: 64,
        }
    }
}

/// A coarser-grained UTS driver: each task carries up to `nodes_per_task`
/// tree nodes, performs a bounded DFS locally, and spawns its remaining
/// frontier as new tasks. Amortizes per-task overhead over many nodes —
/// the granularity refinement later Scioto-based UTS implementations use.
pub fn run_scioto_uts_chunked(
    ctx: &Ctx,
    cfg: &ChunkedUtsConfig,
) -> (TreeStats, scioto::ProcessStats) {
    let armci = Armci::init(ctx);
    let body_cap = 4 + cfg.nodes_per_task * NODE_BYTES;
    let mut tc_cfg = TcConfig::new(body_cap, cfg.base.chunk, cfg.base.max_tasks)
        .with_queue(cfg.base.queue);
    if let Some(v) = cfg.base.victim {
        tc_cfg = tc_cfg.with_victim(v);
    }
    if let Some(b) = cfg.base.td_batch {
        tc_cfg = tc_cfg.with_td_batch(b);
    }
    let tc = TaskCollection::create(ctx, &armci, tc_cfg);

    let stats = Arc::new(Mutex::new(TreeStats::default()));
    let stats_clo = tc.register_clo(ctx, stats.clone());

    let self_handle = Arc::new(std::sync::OnceLock::new());
    let handle_ref = self_handle.clone();
    let params = cfg.base.params;
    let node_cost = cfg.base.node_cost_ns;
    let per_task = cfg.nodes_per_task;
    let budget = cfg.budget.max(1);

    let encode = move |nodes: &[Node]| -> Vec<u8> {
        let mut body = Vec::with_capacity(4 + nodes.len() * NODE_BYTES);
        body.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
        for n in nodes {
            body.extend_from_slice(&n.encode());
        }
        body
    };

    let h = tc.register(
        ctx,
        Arc::new(move |t| {
            let count = u32::from_le_bytes(t.body()[0..4].try_into().expect("4")) as usize;
            let mut stack: Vec<Node> = (0..count)
                .map(|i| Node::decode(&t.body()[4 + i * NODE_BYTES..4 + (i + 1) * NODE_BYTES]))
                .collect();
            let stats: Arc<Mutex<TreeStats>> = t.tc.clo(t.ctx, stats_clo);
            let mut local = TreeStats::default();
            let mut processed = 0usize;
            while let Some(node) = stack.pop() {
                let kids = params.num_children(&node);
                local.visit(node.depth, kids);
                t.ctx.compute(node_cost);
                for i in 0..kids {
                    stack.push(node.child(i));
                }
                processed += 1;
                if processed >= budget {
                    break;
                }
            }
            stats.lock().merge(&local);
            // Flush the remaining frontier as new tasks.
            if !stack.is_empty() {
                let h = *handle_ref.get().expect("handle registered");
                let me = t.ctx.rank();
                for chunk in stack.chunks(per_task) {
                    let task = Task::new(h, encode(chunk));
                    t.tc.add(t.ctx, me, AFFINITY_HIGH, &task);
                }
            }
        }),
    );
    self_handle.set(h).expect("handle set once");

    if ctx.rank() == 0 {
        let root = cfg.base.params.root();
        let mut body = Vec::with_capacity(4 + NODE_BYTES);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&root.encode());
        tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, body));
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
        let paper = SciotoUtsConfig {
            victim: Some(scioto::VictimPolicy::Uniform),
            td_batch: Some(false),
            ..defaults
        };
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
                let cfg = SciotoUtsConfig {
                    queue: scioto::QueueKind::Locked,
                    ..SciotoUtsConfig::new(presets::tiny())
                };
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
    fn chunked_driver_matches_sequential() {
        let expect = count_tree(&presets::tiny());
        for ranks in [1, 3] {
            let out = Machine::run(
                MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
                |ctx| run_scioto_uts_chunked(ctx, &ChunkedUtsConfig::new(presets::tiny())).0,
            );
            let mut total = TreeStats::default();
            for s in &out.results {
                total.merge(s);
            }
            assert_eq!(total.nodes, expect.nodes, "ranks={ranks}");
            assert_eq!(total.leaves, expect.leaves, "ranks={ranks}");
            assert_eq!(total.max_depth, expect.max_depth, "ranks={ranks}");
        }
    }

    #[test]
    fn chunked_driver_is_faster_than_per_node_tasks() {
        let time_chunked = Machine::run(
            MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
            |ctx| run_scioto_uts_chunked(ctx, &ChunkedUtsConfig::new(presets::small())).0,
        )
        .report
        .makespan_ns;
        let time_per_node = Machine::run(
            MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
            |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(presets::small())).0,
        )
        .report
        .makespan_ns;
        assert!(
            time_chunked < time_per_node,
            "chunked {time_chunked} ns should beat per-node {time_per_node} ns"
        );
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
