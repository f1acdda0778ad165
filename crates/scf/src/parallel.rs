//! Distributed Fock builds over Global Arrays, in both of the paper's
//! flavours (§6.2, Figures 5–6):
//!
//! * **Original**: the task list (screened block quartets) is replicated
//!   on every process and the next task index is drawn by atomically
//!   incrementing a shared `read_inc` counter — locality-oblivious, and
//!   the counter serializes under scale.
//! * **Scioto**: the same tasks go into a task collection, each seeded on
//!   the process that owns the destination Fock block (the `get_owner`
//!   idiom of the paper's §4 example) with high affinity; idle processes
//!   steal from the tail.
//!
//! Both compute identical contributions: the G-matrix block task
//! `(bi,bj,bk,bl)` reads density block `(bk,bl)` from the distributed D
//! array, computes `2(ij|kl)·D_kl` into `G[bi,bj]` and `−(ik|jl)·D_kl`
//! into the same block, and accumulates one-sidedly with `ga.acc`.

use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_ga::{Ga, GaHandle, Patch};
use scioto_sim::Ctx;

use crate::basis::BasisSet;
use crate::integrals::{core_hamiltonian, overlap_matrix, PairTable};
use crate::linalg::inv_sqrt_spd;
use crate::scf::{electronic_energy, roothaan_step, ScfConfig};
use crate::ERI_COST_NS;

/// Which load-balancing scheme drives the Fock build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Replicated task list + shared `read_inc` counter (the original
    /// implementation the paper compares against).
    GlobalCounter,
    /// Scioto task collection with locality-aware work stealing.
    Scioto,
}

/// Configuration of a parallel SCF run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelScfConfig {
    /// SCF iteration parameters.
    pub scf: ScfConfig,
    /// Basis-function block size for task decomposition.
    pub block: usize,
    /// Load-balancing scheme.
    pub lb: LoadBalance,
    /// Steal chunk size (Scioto scheme).
    pub chunk: usize,
    /// Steal victim-selection override; `None` keeps the
    /// [`TcConfig`] default.
    pub victim: Option<scioto::VictimPolicy>,
    /// Batched termination-detection override; `None` keeps the
    /// [`TcConfig`] default.
    pub td_batch: Option<bool>,
}

impl Default for ParallelScfConfig {
    fn default() -> Self {
        ParallelScfConfig {
            scf: ScfConfig::default(),
            block: 4,
            lb: LoadBalance::Scioto,
            chunk: 2,
            victim: None,
            td_batch: None,
        }
    }
}

/// Outcome of a parallel SCF run on one rank.
#[derive(Debug, Clone)]
pub struct ScfRunReport {
    /// Converged total energy.
    pub energy: f64,
    /// Roothaan iterations performed.
    pub iterations: usize,
    /// Whether the energy change dropped below tolerance.
    pub converged: bool,
    /// Fock-build tasks executed by this rank (across all iterations).
    pub tasks_executed: u64,
    /// Total tasks enumerated per iteration (after screening), for
    /// reference.
    pub tasks_per_iteration: usize,
}

/// One G-matrix block task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockTask {
    bi: u32,
    bj: u32,
    bk: u32,
    bl: u32,
}

impl BlockTask {
    fn encode(&self) -> [u8; 16] {
        let words = [self.bi, self.bj, self.bk, self.bl];
        let mut b = [0; 16];
        for (dst, w) in b.chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        b
    }

    fn decode(buf: &[u8]) -> BlockTask {
        BlockTask {
            bi: u32::from_le_bytes(buf[0..4].try_into().expect("4")),
            bj: u32::from_le_bytes(buf[4..8].try_into().expect("4")),
            bk: u32::from_le_bytes(buf[8..12].try_into().expect("4")),
            bl: u32::from_le_bytes(buf[12..16].try_into().expect("4")),
        }
    }
}

/// Shared immutable state of one Fock build.
struct FockContext {
    table: PairTable,
    block: usize,
    nb: usize,
    /// Block-level Schwarz maxima (nb × nb).
    qblock: Vec<f64>,
    d_handle: GaHandle,
    g_handle: GaHandle,
}

impl FockContext {
    fn block_range(&self, b: u32) -> (usize, usize) {
        let lo = (b as usize) * self.block;
        (lo, ((b as usize + 1) * self.block).min(self.table.n()))
    }

    /// Execute one block task: read the density block, compute the
    /// Coulomb and exchange contributions, accumulate into G.
    fn run_task(&self, ctx: &Ctx, ga: &Ga, t: BlockTask) {
        let (ilo, ihi) = self.block_range(t.bi);
        let (jlo, jhi) = self.block_range(t.bj);
        let (klo, khi) = self.block_range(t.bk);
        let (llo, lhi) = self.block_range(t.bl);
        let dpatch = Patch::new(klo, khi, llo, lhi);
        let d = ga.get(ctx, self.d_handle, dpatch);
        let mut g = vec![0.0; (ihi - ilo) * (jhi - jlo)];
        let mut eris = 0u64;
        for i in ilo..ihi {
            for j in jlo..jhi {
                let mut v = 0.0;
                for k in klo..khi {
                    for l in llo..lhi {
                        let dkl = d[(k - klo) * (lhi - llo) + (l - llo)];
                        v += 2.0 * dkl * self.table.eri(i, j, k, l);
                        v -= dkl * self.table.eri(i, k, j, l);
                        eris += 2;
                    }
                }
                g[(i - ilo) * (jhi - jlo) + (j - jlo)] = v;
            }
        }
        ctx.compute(eris * ERI_COST_NS);
        ga.acc(ctx, self.g_handle, Patch::new(ilo, ihi, jlo, jhi), 1.0, &g);
    }

    /// Enumerate the screened task list (identical on every rank).
    fn enumerate(&self, dmax: f64, screen_tol: f64) -> Vec<BlockTask> {
        let nb = self.nb as u32;
        let mut out = Vec::new();
        for bi in 0..nb {
            for bj in 0..nb {
                for bk in 0..nb {
                    for bl in 0..nb {
                        let qij = self.qblock[(bi * nb + bj) as usize];
                        let qkl = self.qblock[(bk * nb + bl) as usize];
                        let qik = self.qblock[(bi * nb + bk) as usize];
                        let qjl = self.qblock[(bj * nb + bl) as usize];
                        let coulomb = qij * qkl * dmax;
                        let exchange = qik * qjl * dmax;
                        if coulomb > screen_tol || exchange > screen_tol {
                            out.push(BlockTask { bi, bj, bk, bl });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Run the full parallel SCF to convergence. Collective; every rank
/// returns the same converged energy.
pub fn run_scf_parallel(ctx: &Ctx, basis: &BasisSet, cfg: &ParallelScfConfig) -> ScfRunReport {
    let ga = Ga::init(ctx);
    let n = basis.len();
    let n_elec = basis.molecule.n_electrons();
    assert!(n_elec.is_multiple_of(2), "closed-shell SCF needs an even electron count");
    let n_occ = n_elec / 2;
    let nb = n.div_ceil(cfg.block);

    // Replicated one-electron work (standard practice for small n).
    let s = overlap_matrix(basis);
    let x = inv_sqrt_spd(&s, n);
    let hcore = core_hamiltonian(basis);
    let e_nuc = basis.molecule.nuclear_repulsion();
    let table = PairTable::new(basis);
    let q = table.schwarz();
    // Charge the replicated O(n^3) setup (eigensolve + matrix products).
    ctx.compute((n as u64).pow(3) * 4);

    let mut qblock = vec![0.0f64; nb * nb];
    for i in 0..n {
        for j in 0..n {
            let (bi, bj) = (i / cfg.block, j / cfg.block);
            let cur = &mut qblock[bi * nb + bj];
            *cur = cur.max(q[i * n + j]);
        }
    }

    let d_handle = ga.create(ctx, "density", n, n);
    let g_handle = ga.create(ctx, "gmatrix", n, n);

    let fctx = Arc::new(FockContext {
        table,
        block: cfg.block,
        nb,
        qblock,
        d_handle,
        g_handle,
    });

    // Scioto machinery (created even for the counter scheme: cheap).
    let armci = ga.armci().clone();
    let mut tc_cfg = TcConfig::new(16, cfg.chunk, 1 << 14);
    if let Some(v) = cfg.victim {
        tc_cfg = tc_cfg.with_victim(v);
    }
    if let Some(b) = cfg.td_batch {
        tc_cfg = tc_cfg.with_td_batch(b);
    }
    let tc = TaskCollection::create(ctx, &armci, tc_cfg);
    let ga_for_cb = ga.clone();
    let fctx_cb = fctx.clone();
    let h = tc.register(
        ctx,
        Arc::new(move |t| {
            let task = BlockTask::decode(t.body());
            fctx_cb.run_task(t.ctx, &ga_for_cb, task);
        }),
    );
    let counter = ga.create_counter(ctx, 0);

    // Initial density from the core guess, computed redundantly.
    let mut density = roothaan_step(&hcore, &x, n, n_occ);
    ctx.compute((n as u64).pow(3) * 4);
    let full = Patch::new(0, n, 0, n);
    if ctx.rank() == 0 {
        ga.put(ctx, d_handle, full, &density);
    }
    ga.sync(ctx);

    let mut energy = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    let mut my_tasks = 0u64;
    let mut tasks_per_iteration = 0;

    for it in 0..cfg.scf.max_iters {
        iterations = it + 1;
        ga.zero(ctx, g_handle);
        ga.sync(ctx);

        let dmax = density.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);
        let tasks = fctx.enumerate(dmax, cfg.scf.screen_tol);
        tasks_per_iteration = tasks.len();

        match cfg.lb {
            LoadBalance::GlobalCounter => {
                // The original scheme: every rank holds the full list and
                // draws indices from the shared counter.
                ga.reset_counter(ctx, counter);
                ga.sync(ctx);
                loop {
                    let idx = ga.read_inc(ctx, counter, 1);
                    if idx as usize >= tasks.len() {
                        break;
                    }
                    fctx.run_task(ctx, &ga, tasks[idx as usize]);
                    my_tasks += 1;
                }
                ga.sync(ctx);
            }
            LoadBalance::Scioto => {
                // Seed each task at the owner of its destination G block.
                let mut task_buf = Task::with_body_size(h, 16);
                for t in &tasks {
                    let (ilo, _) = fctx.block_range(t.bi);
                    let (jlo, _) = fctx.block_range(t.bj);
                    let owner = ga.locate(g_handle, ilo, jlo);
                    if owner == ctx.rank() {
                        task_buf.body_mut().copy_from_slice(&t.encode());
                        tc.add(ctx, owner, AFFINITY_HIGH, &task_buf);
                    }
                }
                let stats = tc.process(ctx);
                my_tasks += stats.tasks_executed;
                tc.reset(ctx);
            }
        }

        // Everybody reads the completed G matrix and closes the iteration
        // redundantly.
        let g = ga.get(ctx, g_handle, full);
        let fock: Vec<f64> = hcore.iter().zip(g.iter()).map(|(a, b)| a + b).collect();
        let e_elec = electronic_energy(&density, &hcore, &fock);
        let e_tot = e_elec + e_nuc;
        if (e_tot - energy).abs() < cfg.scf.tol {
            energy = e_tot;
            converged = true;
            break;
        }
        energy = e_tot;
        let new_d = roothaan_step(&fock, &x, n, n_occ);
        ctx.compute((n as u64).pow(3) * 4);
        for (d, nd) in density.iter_mut().zip(new_d.iter()) {
            *d = cfg.scf.damping * *d + (1.0 - cfg.scf.damping) * nd;
        }
        if ctx.rank() == 0 {
            ga.put(ctx, d_handle, full, &density);
        }
        ga.sync(ctx);
    }

    ScfRunReport {
        energy,
        iterations,
        converged,
        tasks_executed: my_tasks,
        tasks_per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Molecule;
    use crate::scf::scf_sequential;
    use scioto_sim::{LatencyModel, Machine, MachineConfig};

    fn test_basis() -> BasisSet {
        BasisSet::even_tempered(Molecule::h_chain(4), 2, 0.4, 3.5)
    }

    #[test]
    fn both_schemes_match_the_sequential_energy() {
        let basis = test_basis();
        let seq = scf_sequential(&basis, &ScfConfig::default());
        assert!(seq.converged);
        for lb in [LoadBalance::Scioto, LoadBalance::GlobalCounter] {
            let b = basis.clone();
            let out = Machine::run(
                MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
                move |ctx| {
                    let cfg = ParallelScfConfig {
                        lb,
                        ..Default::default()
                    };
                    run_scf_parallel(ctx, &b, &cfg)
                },
            );
            for r in &out.results {
                assert!(r.converged, "{lb:?} did not converge");
                assert!(
                    (r.energy - seq.energy).abs() < 1e-8,
                    "{lb:?}: {} vs sequential {}",
                    r.energy,
                    seq.energy
                );
            }
            let total: u64 = out.results.iter().map(|r| r.tasks_executed).sum();
            assert!(total > 0);
        }
    }

    #[test]
    fn work_is_distributed_across_ranks() {
        let basis = test_basis();
        let out = Machine::run(
            MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
            move |ctx| run_scf_parallel(ctx, &basis, &ParallelScfConfig::default()),
        );
        let busy = out.results.iter().filter(|r| r.tasks_executed > 0).count();
        assert!(busy >= 3, "task counts: {:?}", out
            .results
            .iter()
            .map(|r| r.tasks_executed)
            .collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_parallel_matches_sequential() {
        let basis = test_basis();
        let seq = scf_sequential(&basis, &ScfConfig::default());
        let b = basis.clone();
        let out = Machine::run(MachineConfig::virtual_time(1), move |ctx| {
            run_scf_parallel(ctx, &b, &ParallelScfConfig::default())
        });
        assert!((out.results[0].energy - seq.energy).abs() < 1e-8);
    }
}
