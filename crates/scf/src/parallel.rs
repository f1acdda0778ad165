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
//!
//! The paper replicates the one-electron setup and every Roothaan step on
//! all processes. Here the P ranks share one host, so each such value is
//! made once per machine through [`Ctx::replicated`] and the integrals
//! come from one `EriStore` (`store.rs`); every rank still charges the modelled cost
//! of doing the work itself, so virtual time cannot tell the difference.

use std::iter::once;
use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, VictimPolicy, AFFINITY_HIGH};
use scioto_det::rng::mix64;
use scioto_ga::{BlockDist, Ga, GaHandle, LoadBalance, Patch};
use scioto_sim::Ctx;

use crate::basis::BasisSet;
use crate::integrals::{core_hamiltonian, overlap_matrix, PairTable};
use crate::linalg::inv_sqrt_spd;
use crate::scf::{closed_shell_occupation, electronic_energy, roothaan_step, ScfConfig};
use crate::store::EriStore;
use crate::ERI_COST_NS;

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
    /// Steal victim-selection policy (default: locality-aware, as in
    /// [`TcConfig`]).
    pub victim: VictimPolicy,
}

impl Default for ParallelScfConfig {
    fn default() -> Self {
        ParallelScfConfig {
            scf: ScfConfig::default(),
            block: 4,
            lb: LoadBalance::Scioto,
            chunk: 2,
            victim: VictimPolicy::Locality,
        }
    }
}

impl ParallelScfConfig {
    /// Check the invariants `run_scf_parallel` relies on. Run at its top,
    /// so a struct-literal misconfiguration fails with a message instead
    /// of a divide-by-zero in the block count, a steal that moves nothing,
    /// or an energy that is silently wrong (a NaN `screen_tol` screens out
    /// every task) or infinite (no iteration at all).
    pub fn validate(&self) -> Result<(), String> {
        if self.block == 0 {
            return Err("block size must be at least 1 basis function".to_string());
        }
        if self.chunk == 0 {
            return Err("chunk size must be at least 1 task per steal".to_string());
        }
        if !(0.0..1.0).contains(&self.scf.damping) {
            return Err(format!(
                "damping = {}: must be in [0, 1)",
                self.scf.damping
            ));
        }
        if self.scf.max_iters == 0 {
            return Err("max_iters must be at least 1 Roothaan iteration".to_string());
        }
        if self.scf.tol.is_nan() {
            return Err("tol is NaN: no energy change would ever converge".to_string());
        }
        if self.scf.screen_tol.is_nan() {
            return Err("screen_tol is NaN: every task would be screened out".to_string());
        }
        Ok(())
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

/// Fold 64-bit words into the input fingerprint [`Ctx::replicated`]
/// checks across ranks.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |h, w| mix64(h ^ w))
}

/// Everything of a run that is a function of the basis and the block size
/// alone. Made once per machine.
struct Setup {
    /// `S^(-1/2)`.
    x: Vec<f64>,
    hcore: Vec<f64>,
    /// Block-level Schwarz maxima (nb × nb).
    qblock: Vec<f64>,
    eris: EriStore,
}

impl Setup {
    fn new(basis: &BasisSet, block: usize) -> Setup {
        let n = basis.len();
        let x = inv_sqrt_spd(&overlap_matrix(basis), n);
        let hcore = core_hamiltonian(basis);
        let eris = EriStore::new(PairTable::new(basis), block);
        let nb = eris.nb();
        let q = eris.table().schwarz();
        let mut qblock = vec![0.0f64; nb * nb];
        for i in 0..n {
            for j in 0..n {
                let cur = &mut qblock[(i / block) * nb + j / block];
                *cur = cur.max(q[i * n + j]);
            }
        }
        Setup { x, hcore, qblock, eris }
    }

    /// Fingerprint of what [`Setup::new`] reads.
    fn inputs(basis: &BasisSet, block: usize) -> u64 {
        let funcs = basis.funcs.iter().flat_map(|f| once(f.alpha).chain(f.center));
        let atoms = basis.molecule.atoms.iter().flat_map(|a| once(a.z).chain(a.pos));
        fingerprint(
            [block as u64, basis.len() as u64]
                .into_iter()
                .chain(funcs.chain(atoms).map(f64::to_bits)),
        )
    }

    /// The G patch of task `t` from density block `d`: the Coulomb block
    /// `(bi,bj|bk,bl)` and the exchange block `(bi,bk|bj,bl)` of the
    /// store, contracted with `d` in `(i, j, k, l)` order.
    fn contract(&self, t: BlockTask, d: &[f64]) -> Vec<f64> {
        let eris = &self.eris;
        let [ni, nj, nk, nl] = [t.bi, t.bj, t.bk, t.bl].map(|b| eris.extent(b));
        let coulomb = eris.block(t.bi, t.bj, t.bk, t.bl);
        let exchange = eris.block(t.bi, t.bk, t.bj, t.bl);
        let mut g = vec![0.0; ni * nj];
        for i in 0..ni {
            for j in 0..nj {
                let mut v = 0.0;
                for k in 0..nk {
                    for l in 0..nl {
                        let dkl = d[k * nl + l];
                        v += 2.0 * dkl * coulomb[((i * nj + j) * nk + k) * nl + l];
                        v -= dkl * exchange[((i * nk + k) * nj + j) * nl + l];
                    }
                }
                g[i * nj + j] = v;
            }
        }
        g
    }

    /// [`Setup::contract`] as it stood before the store: every
    /// integral evaluated in the loop. The oracle of the bitwise tests.
    #[cfg(test)]
    fn contract_reference(&self, t: BlockTask, d: &[f64]) -> Vec<f64> {
        let eris = &self.eris;
        let table = eris.table();
        let ((ilo, ihi), (jlo, jhi)) = (eris.range(t.bi), eris.range(t.bj));
        let ((klo, khi), (llo, lhi)) = (eris.range(t.bk), eris.range(t.bl));
        let mut g = vec![0.0; (ihi - ilo) * (jhi - jlo)];
        for i in ilo..ihi {
            for j in jlo..jhi {
                let mut v = 0.0;
                for k in klo..khi {
                    for l in llo..lhi {
                        let dkl = d[(k - klo) * (lhi - llo) + (l - llo)];
                        v += 2.0 * dkl * table.eri(i, j, k, l);
                        v -= dkl * table.eri(i, k, j, l);
                    }
                }
                g[(i - ilo) * (jhi - jlo) + (j - jlo)] = v;
            }
        }
        g
    }

    /// Enumerate the screened task list (identical on every rank).
    fn enumerate(&self, dmax: f64, screen_tol: f64) -> Vec<BlockTask> {
        let nb = self.eris.nb() as u32;
        let qblock = &self.qblock;
        let mut out = Vec::new();
        for bi in 0..nb {
            for bj in 0..nb {
                for bk in 0..nb {
                    for bl in 0..nb {
                        let qij = qblock[(bi * nb + bj) as usize];
                        let qkl = qblock[(bk * nb + bl) as usize];
                        let qik = qblock[(bi * nb + bk) as usize];
                        let qjl = qblock[(bj * nb + bl) as usize];
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

/// One iteration's screened task list, made once per machine.
struct TaskList {
    /// Every task in enumeration order: what the global counter indexes.
    all: Vec<BlockTask>,
    /// The same tasks grouped by the owner of their destination G block,
    /// each group in enumeration order — the order its owner adds them.
    by_owner: Vec<Vec<BlockTask>>,
}

impl TaskList {
    fn new(setup: &Setup, dist: BlockDist, dmax: f64, screen_tol: f64) -> TaskList {
        let all = setup.enumerate(dmax, screen_tol);
        let mut by_owner = vec![Vec::new(); dist.pr * dist.pc];
        for &t in &all {
            let ((ilo, _), (jlo, _)) = (setup.eris.range(t.bi), setup.eris.range(t.bj));
            by_owner[dist.locate(ilo, jlo)].push(t);
        }
        TaskList { all, by_owner }
    }
}

/// Where a rank's host-side values come from. Not a setting: the driver
/// shares them across the machine; the tests also drive it with every
/// rank computing its own, the way the code stood before the memo, and
/// hold the two to the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostWork {
    Shared,
    #[cfg(test)]
    RankLocal,
}

impl HostWork {
    /// `make()`, once per machine.
    fn per_machine<T>(self, ctx: &Ctx, inputs: u64, make: impl FnOnce() -> T) -> Arc<T>
    where
        T: Send + Sync + 'static,
    {
        match self {
            HostWork::Shared => ctx.replicated(inputs, make),
            #[cfg(test)]
            HostWork::RankLocal => Arc::new(make()),
        }
    }
}

/// Shared immutable state of one Fock build.
struct FockContext {
    setup: Arc<Setup>,
    host: HostWork,
    d_handle: GaHandle,
    g_handle: GaHandle,
}

impl FockContext {
    /// Execute one block task: read the density block, compute the
    /// Coulomb and exchange contributions, accumulate into G.
    fn run_task(&self, ctx: &Ctx, ga: &Ga, t: BlockTask) {
        let eris = &self.setup.eris;
        let ((ilo, ihi), (jlo, jhi)) = (eris.range(t.bi), eris.range(t.bj));
        let ((klo, khi), (llo, lhi)) = (eris.range(t.bk), eris.range(t.bl));
        let d = ga.get(ctx, self.d_handle, Patch::new(klo, khi, llo, lhi));
        let g = match self.host {
            HostWork::Shared => self.setup.contract(t, &d),
            #[cfg(test)]
            HostWork::RankLocal => self.setup.contract_reference(t, &d),
        };
        // One Coulomb and one exchange integral per (G element, D element).
        ctx.compute(2 * (g.len() * d.len()) as u64 * ERI_COST_NS);
        ga.acc(ctx, self.g_handle, Patch::new(ilo, ihi, jlo, jhi), 1.0, &g);
    }
}

/// Run the full parallel SCF to convergence. Collective; every rank
/// returns the same converged energy.
///
/// # Panics
/// Panics if `cfg` fails [`ParallelScfConfig::validate`], or the basis
/// cannot hold the molecule's electrons as closed shells.
pub fn run_scf_parallel(ctx: &Ctx, basis: &BasisSet, cfg: &ParallelScfConfig) -> ScfRunReport {
    drive(ctx, basis, cfg, HostWork::Shared)
}

fn drive(ctx: &Ctx, basis: &BasisSet, cfg: &ParallelScfConfig, host: HostWork) -> ScfRunReport {
    if let Err(e) = cfg.validate() {
        panic!("invalid ParallelScfConfig: {e}");
    }
    let ga = Ga::init(ctx);
    let n = basis.len();
    let n_occ = closed_shell_occupation(basis);

    // Replicated one-electron work (standard practice for small n).
    let setup = host.per_machine(ctx, Setup::inputs(basis, cfg.block), || {
        Setup::new(basis, cfg.block)
    });
    let e_nuc = basis.molecule.nuclear_repulsion();
    // Charge the replicated O(n^3) setup (eigensolve + matrix products).
    ctx.compute((n as u64).pow(3) * 4);
    // A Roothaan step from the Fock matrix this rank holds. The matrix is
    // the fingerprint: a rank that read a different G back is an error,
    // not a silently different density.
    let next_density = |fock: &[f64]| {
        let d = host.per_machine(ctx, fingerprint(fock.iter().map(|v| v.to_bits())), || {
            roothaan_step(fock, &setup.x, n, n_occ)
        });
        ctx.compute((n as u64).pow(3) * 4);
        d
    };

    let d_handle = ga.create(ctx, "density", n, n);
    let g_handle = ga.create(ctx, "gmatrix", n, n);
    let g_dist = ga.dist(g_handle);

    let fctx = Arc::new(FockContext {
        setup: Arc::clone(&setup),
        host,
        d_handle,
        g_handle,
    });

    // Scioto machinery (created even for the counter scheme: cheap).
    let armci = ga.armci().clone();
    let tc_cfg = TcConfig::new(16, cfg.chunk, 1 << 14).with_victim(cfg.victim);
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

    // Initial density from the core guess.
    let hcore = &setup.hcore;
    let mut density = next_density(hcore).to_vec();
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
        let screen_tol = cfg.scf.screen_tol;
        let inputs = fingerprint([dmax.to_bits(), screen_tol.to_bits(), cfg.block as u64]);
        let tasks = host.per_machine(ctx, inputs, || {
            TaskList::new(&setup, g_dist, dmax, screen_tol)
        });
        tasks_per_iteration = tasks.all.len();

        match cfg.lb {
            LoadBalance::GlobalCounter => {
                // The original scheme: every rank holds the full list and
                // draws indices from the shared counter.
                ga.reset_counter(ctx, counter);
                ga.sync(ctx);
                loop {
                    let idx = ga.read_inc(ctx, counter, 1);
                    let Some(&t) = tasks.all.get(idx as usize) else {
                        break;
                    };
                    fctx.run_task(ctx, &ga, t);
                    my_tasks += 1;
                }
                ga.sync(ctx);
            }
            LoadBalance::Scioto => {
                // Each rank seeds the tasks whose destination G block it
                // owns.
                let mut task_buf = Task::with_body_size(h, 16);
                for t in &tasks.by_owner[ctx.rank()] {
                    task_buf.body_mut().copy_from_slice(&t.encode());
                    tc.add(ctx, ctx.rank(), AFFINITY_HIGH, &task_buf);
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
        let e_elec = electronic_energy(&density, hcore, &fock);
        let e_tot = e_elec + e_nuc;
        if (e_tot - energy).abs() < cfg.scf.tol {
            energy = e_tot;
            converged = true;
            break;
        }
        energy = e_tot;
        let new_d = next_density(&fock);
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

    #[test]
    fn every_task_patch_is_the_in_loop_contraction_bit_for_bit() {
        // 10 functions in blocks of 4: the last block is 2 wide.
        let basis = BasisSet::even_tempered(Molecule::h_chain(5), 2, 0.4, 3.5);
        let setup = Setup::new(&basis, 4);
        let tasks = setup.enumerate(1.0, ScfConfig::default().screen_tol);
        assert!(tasks.len() > 50 && tasks.iter().any(|t| t.bl == 2));
        let mut rng = scioto_det::Rng::seed_from_u64(9);
        for t in tasks {
            let (klo, khi) = setup.eris.range(t.bk);
            let (llo, lhi) = setup.eris.range(t.bl);
            let d: Vec<f64> = (0..(khi - klo) * (lhi - llo)).map(|_| rng.gen_f64() - 0.5).collect();
            let bits = |g: Vec<f64>| g.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(setup.contract(t, &d)),
                bits(setup.contract_reference(t, &d)),
                "{t:?}"
            );
        }
    }

    #[test]
    fn shared_host_work_changes_no_bit_of_a_run() {
        // Accumulate order follows virtual time, which the memo cannot
        // move, so the two drivers agree exactly — not to a tolerance.
        // 12 functions in blocks of 5: the last block is 2 wide.
        let basis = BasisSet::even_tempered(Molecule::h_chain(6), 2, 0.4, 3.5);
        for ranks in [1, 4, 7] {
            for lb in [LoadBalance::Scioto, LoadBalance::GlobalCounter] {
                let run = |host| {
                    let cfg = ParallelScfConfig {
                        lb,
                        block: 5,
                        ..Default::default()
                    };
                    Machine::run(
                        MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
                        |ctx| drive(ctx, &basis, &cfg, host),
                    )
                };
                let (shared, local) = (run(HostWork::Shared), run(HostWork::RankLocal));
                let what = format!("{ranks} ranks, {lb:?}");
                assert_eq!(shared.report.makespan_ns, local.report.makespan_ns, "{what}");
                assert_eq!(shared.report.rank_clock_ns, local.report.rank_clock_ns, "{what}");
                assert_eq!(shared.report.events, local.report.events, "{what}");
                let first = &shared.results[0];
                assert!(first.converged, "{what}");
                for (s, l) in shared.results.iter().zip(&local.results) {
                    assert_eq!(s.energy.to_bits(), first.energy.to_bits(), "{what}");
                    assert_eq!(s.energy.to_bits(), l.energy.to_bits(), "{what}");
                    assert_eq!(s.iterations, l.iterations, "{what}");
                    assert_eq!(s.tasks_per_iteration, l.tasks_per_iteration, "{what}");
                    assert_eq!(s.tasks_executed, l.tasks_executed, "{what}");
                }
            }
        }
    }

    #[test]
    fn validate_catches_struct_literal_violations() {
        let ok = ParallelScfConfig::default();
        assert!(ok.validate().is_ok());
        let bad_block = ParallelScfConfig { block: 0, ..ok };
        assert!(bad_block.validate().unwrap_err().contains("block size"));
        let bad_chunk = ParallelScfConfig { chunk: 0, ..ok };
        assert!(bad_chunk.validate().unwrap_err().contains("chunk size"));
        for damping in [1.0, -0.1, f64::NAN] {
            let scf = ScfConfig { damping, ..ok.scf };
            let bad = ParallelScfConfig { scf, ..ok };
            assert!(bad.validate().unwrap_err().contains("damping"), "{damping}");
        }
        let nan = f64::NAN;
        for (scf, start) in [
            (ScfConfig { screen_tol: nan, ..ok.scf }, "screen_tol is NaN"),
            (ScfConfig { tol: nan, ..ok.scf }, "tol is NaN"),
            (ScfConfig { max_iters: 0, ..ok.scf }, "max_iters"),
        ] {
            let err = ParallelScfConfig { scf, ..ok }.validate().unwrap_err();
            assert!(err.starts_with(start), "{err}");
        }
        // A zero `tol` runs exactly `max_iters` iterations; it stays valid.
        let fixed = ScfConfig { tol: 0.0, max_iters: 1, ..ok.scf };
        assert!(ParallelScfConfig { scf: fixed, ..ok }.validate().is_ok());
    }

    #[test]
    fn task_groups_are_the_locate_filter_in_enumeration_order() {
        // 12 functions in blocks of 5 on grids of 1 × 1 … 2 × 3 ranks.
        let basis = BasisSet::even_tempered(Molecule::h_chain(6), 2, 0.4, 3.5);
        let setup = Setup::new(&basis, 5);
        for ranks in 1..=6 {
            let dist = BlockDist::new(basis.len(), basis.len(), ranks);
            let tasks = TaskList::new(&setup, dist, 1.0, ScfConfig::default().screen_tol);
            assert_eq!(tasks.all, setup.enumerate(1.0, ScfConfig::default().screen_tol));
            assert_eq!(tasks.by_owner.len(), ranks);
            for (rank, mine) in tasks.by_owner.iter().enumerate() {
                let want: Vec<BlockTask> = tasks
                    .all
                    .iter()
                    .filter(|t| {
                        let ((ilo, _), (jlo, _)) = (setup.eris.range(t.bi), setup.eris.range(t.bj));
                        dist.locate(ilo, jlo) == rank
                    })
                    .copied()
                    .collect();
                assert_eq!(*mine, want, "rank {rank} of {ranks}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid ParallelScfConfig: block size must be at least 1")]
    fn a_zero_block_is_rejected_up_front() {
        let basis = test_basis();
        Machine::run(MachineConfig::virtual_time(2), move |ctx| {
            let cfg = ParallelScfConfig {
                block: 0,
                ..Default::default()
            };
            run_scf_parallel(ctx, &basis, &cfg)
        });
    }

    #[test]
    #[should_panic(expected = "basis too small for the electron count")]
    fn a_basis_too_small_for_the_electrons_is_rejected() {
        // Four electrons, one function: two pairs cannot fit.
        let mut basis = BasisSet::even_tempered(Molecule::h_chain(4), 1, 0.4, 3.5);
        basis.funcs.truncate(1);
        Machine::run(MachineConfig::virtual_time(2), move |ctx| {
            run_scf_parallel(ctx, &basis, &ParallelScfConfig::default())
        });
    }
}
