//! Contraction drivers: sequential reference, global-counter original,
//! and Scioto task-parallel.

use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, VictimPolicy, AFFINITY_HIGH};
use scioto_ga::{Ga, LoadBalance};
use scioto_sim::Ctx;

use crate::tensor::{dense_matmul_acc, BlockSparse, SparsityPattern};
use crate::FLOP_COST_NS;

/// Problem and scheme configuration.
#[derive(Debug, Clone, Copy)]
pub struct ContractionConfig {
    /// Tile rows of C (and A).
    pub nbr: usize,
    /// Inner tile dimension (columns of A, rows of B).
    pub nbk: usize,
    /// Tile columns of C (and B).
    pub nbc: usize,
    /// Tile edge length.
    pub bs: usize,
    /// Sparsity of A.
    pub pattern_a: SparsityPattern,
    /// Sparsity of B.
    pub pattern_b: SparsityPattern,
    /// Load-balancing scheme.
    pub lb: LoadBalance,
    /// Steal chunk size (Scioto scheme).
    pub chunk: usize,
    /// Number of times the contraction is repeated (a CC solver reruns
    /// the same contraction every residual iteration).
    pub iterations: usize,
    /// Steal victim-selection policy (default: locality-aware, as in
    /// [`TcConfig`]).
    pub victim: VictimPolicy,
}

impl ContractionConfig {
    /// A small default problem.
    pub fn new(lb: LoadBalance) -> Self {
        ContractionConfig {
            nbr: 8,
            nbk: 8,
            nbc: 8,
            bs: 8,
            pattern_a: SparsityPattern::standard(11),
            pattern_b: SparsityPattern::standard(23),
            lb,
            chunk: 2,
            iterations: 1,
            victim: VictimPolicy::Locality,
        }
    }
}

/// Per-rank outcome of a contraction run.
#[derive(Debug, Clone)]
pub struct ContractionReport {
    /// Output tiles this rank computed (summed over iterations).
    pub tasks_executed: u64,
    /// Tile-multiplies this rank performed (cost units).
    pub tile_multiplies: u64,
    /// Output tiles enumerated per iteration (after sparsity analysis).
    pub tasks_total: usize,
    /// Frobenius norm of the result (identical on every rank).
    pub checksum: f64,
    /// Virtual time this rank spent in the contraction phase (excludes
    /// tensor creation/fill).
    pub contract_ns: u64,
}

/// The task list: each output tile `(r, c)` with at least one contributing
/// inner index, plus its contributor list length for cost estimation.
fn enumerate_tasks(a: &BlockSparse, b: &BlockSparse) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for r in 0..a.nbr {
        for c in 0..b.nbc {
            let any = (0..a.nbc).any(|m| a.present(r, m) && b.present(m, c));
            if any {
                out.push((r as u32, c as u32));
            }
        }
    }
    out
}

/// Compute one output tile: gather contributing A/B tiles, multiply-
/// accumulate locally, then one `ga.acc` into C.
fn run_tile_task(
    ctx: &Ctx,
    ga: &Ga,
    a: &BlockSparse,
    b: &BlockSparse,
    c: &BlockSparse,
    r: usize,
    col: usize,
) -> u64 {
    let bs = a.bs;
    let mut acc = vec![0.0f64; bs * bs];
    let mut multiplies = 0u64;
    for m in 0..a.nbc {
        if !(a.present(r, m) && b.present(m, col)) {
            continue;
        }
        let ta = a.get_tile(ctx, ga, r, m);
        let tb = b.get_tile(ctx, ga, m, col);
        dense_matmul_acc(&mut acc, &ta, &tb, bs, bs, bs);
        multiplies += 1;
        ctx.compute((2 * bs * bs * bs) as u64 * FLOP_COST_NS as u64);
    }
    ga.acc(ctx, c.handle, c.tile_patch(r, col), 1.0, &acc);
    multiplies
}

/// Run the contraction `C = A · B` (block level) under the configured
/// scheme. Collective. Returns this rank's report; the result lives in
/// the returned C tensor's GA array.
pub fn run_contraction(ctx: &Ctx, cfg: &ContractionConfig) -> (ContractionReport, f64) {
    let ga = Ga::init(ctx);
    let a = Arc::new(BlockSparse::create(
        ctx,
        &ga,
        "A",
        cfg.nbr,
        cfg.nbk,
        cfg.bs,
        &cfg.pattern_a,
    ));
    let b = Arc::new(BlockSparse::create(
        ctx,
        &ga,
        "B",
        cfg.nbk,
        cfg.nbc,
        cfg.bs,
        &cfg.pattern_b,
    ));
    let c = Arc::new(BlockSparse::create_dense_zero(
        ctx,
        &ga,
        "C",
        cfg.nbr,
        cfg.nbc,
        cfg.bs,
    ));
    ga.zero(ctx, c.handle);
    ga.sync(ctx);

    let tasks = enumerate_tasks(&a, &b);
    let mut executed = 0u64;
    let mut multiplies = 0u64;
    let iterations = cfg.iterations.max(1);
    let contract_ns;

    match cfg.lb {
        LoadBalance::GlobalCounter => {
            let counter = ga.create_counter(ctx, 0);
            ga.sync(ctx);
            let t0 = ctx.now();
            for _ in 0..iterations {
                ga.zero(ctx, c.handle);
                ga.reset_counter(ctx, counter);
                ga.sync(ctx);
                loop {
                    let idx = ga.read_inc(ctx, counter, 1);
                    if idx as usize >= tasks.len() {
                        break;
                    }
                    let (r, col) = tasks[idx as usize];
                    multiplies += run_tile_task(ctx, &ga, &a, &b, &c, r as usize, col as usize);
                    executed += 1;
                }
                ga.sync(ctx);
            }
            contract_ns = ctx.now() - t0;
        }
        LoadBalance::Scioto => {
            let armci = ga.armci().clone();
            let tc_cfg = TcConfig::new(8, cfg.chunk, 1 << 14).with_victim(cfg.victim);
            let tc = TaskCollection::create(ctx, &armci, tc_cfg);
            let (ga2, a2, b2, c2) = (ga.clone(), a.clone(), b.clone(), c.clone());
            let mult_counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let mult_clo = tc.register_clo(ctx, mult_counter.clone());
            let h = tc.register(
                ctx,
                Arc::new(move |t| {
                    let r = u32::from_le_bytes(t.body()[0..4].try_into().expect("4")) as usize;
                    let col = u32::from_le_bytes(t.body()[4..8].try_into().expect("4")) as usize;
                    let m = run_tile_task(t.ctx, &ga2, &a2, &b2, &c2, r, col);
                    let counter: &std::sync::atomic::AtomicU64 = t.tc.clo(t.ctx, mult_clo);
                    counter.fetch_add(m, std::sync::atomic::Ordering::Relaxed);
                }),
            );
            let t0 = ctx.now();
            for _ in 0..iterations {
                ga.zero(ctx, c.handle);
                ga.sync(ctx);
                let mut task = Task::with_body_size(h, 8);
                for &(r, col) in &tasks {
                    // Seed at the owner of the output tile (locality: the
                    // final acc is then a local operation).
                    let owner =
                        ga.locate(c.handle, r as usize * cfg.bs, col as usize * cfg.bs);
                    if owner == ctx.rank() {
                        task.body_mut()[0..4].copy_from_slice(&r.to_le_bytes());
                        task.body_mut()[4..8].copy_from_slice(&col.to_le_bytes());
                        tc.add(ctx, owner, AFFINITY_HIGH, &task);
                    }
                }
                let stats = tc.process(ctx);
                executed += stats.tasks_executed;
                tc.reset(ctx);
            }
            contract_ns = ctx.now() - t0;
            multiplies = mult_counter.load(std::sync::atomic::Ordering::Relaxed);
        }
    }

    // Verification value: Frobenius norm of C (every rank computes it from
    // the distributed array; identical everywhere).
    let dense_c = c.to_dense(ctx, &ga);
    let checksum = dense_c.iter().map(|v| v * v).sum::<f64>().sqrt();
    (
        ContractionReport {
            tasks_executed: executed,
            tile_multiplies: multiplies,
            tasks_total: tasks.len(),
            checksum,
            contract_ns,
        },
        checksum,
    )
}

/// Dense reference: run the same contraction without any distribution.
/// Must be called inside a machine (it builds the same GA tensors).
pub fn reference_checksum(ctx: &Ctx, cfg: &ContractionConfig) -> f64 {
    let ga = Ga::init(ctx);
    let a = BlockSparse::create(ctx, &ga, "Aref", cfg.nbr, cfg.nbk, cfg.bs, &cfg.pattern_a);
    let b = BlockSparse::create(ctx, &ga, "Bref", cfg.nbk, cfg.nbc, cfg.bs, &cfg.pattern_b);
    let da = a.to_dense(ctx, &ga);
    let db = b.to_dense(ctx, &ga);
    let (m, k, n) = (
        cfg.nbr * cfg.bs,
        cfg.nbk * cfg.bs,
        cfg.nbc * cfg.bs,
    );
    let mut dc = vec![0.0; m * n];
    dense_matmul_acc(&mut dc, &da, &db, m, k, n);
    dc.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{LatencyModel, Machine, MachineConfig};

    #[test]
    fn both_schemes_match_the_dense_reference() {
        for lb in [LoadBalance::Scioto, LoadBalance::GlobalCounter] {
            let out = Machine::run(
                MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
                move |ctx| {
                    let cfg = ContractionConfig::new(lb);
                    let reference = reference_checksum(ctx, &cfg);
                    let (report, checksum) = run_contraction(ctx, &cfg);
                    (reference, checksum, report.tasks_executed)
                },
            );
            let (reference, checksum, _) = out.results[0];
            assert!(
                (reference - checksum).abs() < 1e-9 * reference.max(1.0),
                "{lb:?}: {checksum} vs reference {reference}"
            );
            assert!(reference > 0.0, "degenerate all-zero contraction");
            let total: u64 = out.results.iter().map(|r| r.2).sum();
            let expected = Machine::run(MachineConfig::virtual_time(1), move |ctx| {
                let cfg = ContractionConfig::new(lb);
                let ga = Ga::init(ctx);
                let a = BlockSparse::create(ctx, &ga, "a", cfg.nbr, cfg.nbk, cfg.bs, &cfg.pattern_a);
                let b = BlockSparse::create(ctx, &ga, "b", cfg.nbk, cfg.nbc, cfg.bs, &cfg.pattern_b);
                enumerate_tasks(&a, &b).len()
            })
            .results[0];
            assert_eq!(total as usize, expected, "{lb:?} executed wrong task count");
        }
    }

    #[test]
    fn sparsity_makes_task_costs_irregular() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let cfg = ContractionConfig::new(LoadBalance::Scioto);
            let ga = Ga::init(ctx);
            let a = BlockSparse::create(ctx, &ga, "a", cfg.nbr, cfg.nbk, cfg.bs, &cfg.pattern_a);
            let b = BlockSparse::create(ctx, &ga, "b", cfg.nbk, cfg.nbc, cfg.bs, &cfg.pattern_b);
            let mut costs = Vec::new();
            for r in 0..a.nbr {
                for c in 0..b.nbc {
                    let k = (0..a.nbc)
                        .filter(|&m| a.present(r, m) && b.present(m, c))
                        .count();
                    if k > 0 {
                        costs.push(k);
                    }
                }
            }
            costs
        });
        let costs = &out.results[0];
        let min = costs.iter().min().copied().unwrap_or(0);
        let max = costs.iter().max().copied().unwrap_or(0);
        assert!(max > min, "costs are uniform: {costs:?}");
    }

    #[test]
    fn work_spreads_under_scioto() {
        let out = Machine::run(
            MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
            |ctx| {
                let cfg = ContractionConfig::new(LoadBalance::Scioto);
                run_contraction(ctx, &cfg).0.tasks_executed
            },
        );
        let busy = out.results.iter().filter(|&&t| t > 0).count();
        assert!(busy >= 3, "{:?}", out.results);
    }
}
