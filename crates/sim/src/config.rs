//! Machine configuration: execution mode, latency model, CPU speed model,
//! tracing.

use crate::trace::TraceConfig;

/// How the simulated machine executes rank programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Conservative discrete-event execution: exactly one rank runs at a
    /// time, chosen as the runnable rank with the smallest virtual clock
    /// (ties broken by rank id). Deterministic; all performance figures are
    /// produced in this mode.
    VirtualTime,
    /// Free-running OS threads with real locks and wall-clock time. Used to
    /// stress the same runtime code under genuine preemption; timing is not
    /// modelled and runs are not deterministic.
    Concurrent,
}

/// Near/far latency tiers over ring distance.
///
/// Models the PGAS-over-fabric hierarchy of DART-MPI-style runtimes: a
/// one-sided op to a rank on the same node (ring distance within
/// `near_radius`) moves over shared memory or the local NIC loopback,
/// while a cross-switch op pays the full fabric traversal. Attached to a
/// [`LatencyModel`] via [`LatencyModel::with_tiers`]; untiered models
/// (all pre-existing presets) are distance-blind and byte-identical to
/// their historical behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyTiers {
    /// Ranks within this ring distance are "near" (same node/switch).
    pub near_radius: usize,
    /// Multiplier on base + per-byte remote costs for near targets.
    pub near_scale: f64,
    /// Multiplier for far targets.
    pub far_scale: f64,
}

impl LatencyTiers {
    /// The figure subcommands' `--latency nearfar` preset. `near_radius` 2 matches
    /// the analyzer's near-steal radius (`scioto-analyze` derives its
    /// constant from here); 0.35 tracks the intra-node vs inter-node RMA
    /// ratio DART-MPI reports, and 1.25 charges cross-switch ops the extra
    /// hop a two-level fat tree adds.
    pub const fn nearfar() -> Self {
        LatencyTiers {
            near_radius: 2,
            near_scale: 0.35,
            far_scale: 1.25,
        }
    }

    /// Cost multiplier for an op from `from` to `to` on an `n`-rank ring.
    pub fn scale(&self, from: usize, to: usize, n: usize) -> f64 {
        if ring_distance(from, to, n) <= self.near_radius {
            self.near_scale
        } else {
            self.far_scale
        }
    }
}

/// Shortest ring distance between ranks `a` and `b` on an `n`-rank ring.
pub fn ring_distance(a: usize, b: usize, n: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(n - d)
}

/// Communication and queue-operation costs, in nanoseconds.
///
/// The presets are calibrated so that the Table 1 microbenchmarks of the
/// paper land in the reported regime (local ops well under 1 µs, remote
/// insert ~18/27 µs, steal ~29/32 µs on cluster/XT4 respectively, with a
/// 1 KiB task body and chunk size 10).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Software overhead of a lock-free local queue insert.
    pub local_insert: u64,
    /// Software overhead of a lock-free local queue get.
    pub local_get: u64,
    /// Base latency of a one-sided remote operation (put/get/acc/rmw).
    pub remote_op: u64,
    /// Additional cost per byte transferred by a remote operation.
    pub per_byte: f64,
    /// Cost of acquiring *or* releasing a remote lock (one one-sided RMW).
    pub lock: u64,
    /// Target-side service time of an atomic read-modify-write: the host
    /// adapter processes RMWs on one word serially, so a hot location
    /// (e.g. a shared `read_inc` counter) saturates at `1/rmw_service`
    /// operations per second — the bottleneck behind the original
    /// SCF/TCE load balancers in Figures 5 and 6.
    pub rmw_service: u64,
    /// Base latency of a two-sided message (send to matching receive).
    pub msg: u64,
    /// Per-hop cost of a tree barrier (a barrier costs
    /// `2 * ceil(log2 n) * barrier_hop`).
    pub barrier_hop: u64,
    /// Optional near/far distance tiers. `None` (every pre-existing
    /// preset) keeps all remote costs distance-blind.
    pub tiers: Option<LatencyTiers>,
}

impl LatencyModel {
    /// All costs zero. Useful for unit tests that only check functional
    /// behaviour.
    pub fn zero() -> Self {
        LatencyModel {
            local_insert: 0,
            local_get: 0,
            remote_op: 0,
            per_byte: 0.0,
            lock: 0,
            rmw_service: 0,
            msg: 0,
            barrier_hop: 0,
            tiers: None,
        }
    }

    /// The paper's heterogeneous InfiniBand cluster (Mellanox 10 Gb/s NICs).
    pub fn cluster() -> Self {
        LatencyModel {
            local_insert: 495,
            local_get: 361,
            remote_op: 3_300,
            per_byte: 1.05,
            lock: 3_500,
            rmw_service: 3_000,
            msg: 4_000,
            barrier_hop: 4_500,
            tiers: None,
        }
    }

    /// The paper's Cray XT4 (SeaStar interconnect; slower per-op software
    /// path, comparable network).
    pub fn xt4() -> Self {
        LatencyModel {
            local_insert: 933,
            local_get: 691,
            remote_op: 5_600,
            per_byte: 0.55,
            lock: 5_200,
            rmw_service: 2_000,
            msg: 5_000,
            barrier_hop: 5_000,
            tiers: None,
        }
    }

    /// The cluster preset with [`LatencyTiers::nearfar`] attached — the
    /// figure subcommands' `--latency nearfar` model.
    pub fn cluster_nearfar() -> Self {
        LatencyModel::cluster().with_tiers(LatencyTiers::nearfar())
    }

    /// The XT4 preset with [`LatencyTiers::nearfar`] attached.
    pub fn xt4_nearfar() -> Self {
        LatencyModel::xt4().with_tiers(LatencyTiers::nearfar())
    }

    /// Attach near/far distance tiers.
    pub fn with_tiers(mut self, tiers: LatencyTiers) -> Self {
        self.tiers = Some(tiers);
        self
    }

    /// Cost of moving `bytes` with one one-sided operation.
    pub fn xfer(&self, bytes: usize) -> u64 {
        self.remote_op + (self.per_byte * bytes as f64) as u64
    }

    /// Tier multiplier for `from -> to` on an `n`-rank machine, or `None`
    /// when this model is distance-blind.
    fn tier_scale(&self, from: usize, to: usize, n: usize) -> Option<f64> {
        self.tiers.map(|t| t.scale(from, to, n))
    }

    /// Distance-aware [`LatencyModel::xfer`]: cost of moving `bytes` from
    /// rank `from` to rank `to` on an `n`-rank machine. Untiered models
    /// delegate to `xfer` exactly, so existing results are unchanged.
    pub fn xfer_to(&self, from: usize, to: usize, n: usize, bytes: usize) -> u64 {
        match self.tier_scale(from, to, n) {
            None => self.xfer(bytes),
            Some(s) => scale_ns(self.remote_op, s) + ((self.per_byte * s) * bytes as f64) as u64,
        }
    }

    /// Distance-aware base latency of a one-sided op from `from` to `to`.
    pub fn remote_op_to(&self, from: usize, to: usize, n: usize) -> u64 {
        match self.tier_scale(from, to, n) {
            None => self.remote_op,
            Some(s) => scale_ns(self.remote_op, s),
        }
    }

    /// Distance-aware cost of one remote lock acquire/release half.
    pub fn lock_to(&self, from: usize, to: usize, n: usize) -> u64 {
        match self.tier_scale(from, to, n) {
            None => self.lock,
            Some(s) => scale_ns(self.lock, s),
        }
    }

    /// Distance-aware two-sided message cost for `bytes` from `from` to
    /// `to`. The untiered arm is the exact historical send formula.
    pub fn msg_to(&self, from: usize, to: usize, n: usize, bytes: usize) -> u64 {
        match self.tier_scale(from, to, n) {
            None => self.msg + (self.per_byte * bytes as f64) as u64,
            Some(s) => scale_ns(self.msg, s) + ((self.per_byte * s) * bytes as f64) as u64,
        }
    }

    /// Modelled cost of an `n`-rank tree barrier (up-wave plus down-wave).
    pub fn barrier_cost(&self, n: usize) -> u64 {
        2 * ceil_log2(n) * self.barrier_hop
    }
}

/// Scale a nanosecond cost by a tier multiplier, rounding to nearest.
fn scale_ns(ns: u64, s: f64) -> u64 {
    (ns as f64 * s).round() as u64
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::cluster()
    }
}

/// `ceil(log2(n))` for `n >= 1`.
pub fn ceil_log2(n: usize) -> u64 {
    debug_assert!(n >= 1);
    (usize::BITS - n.saturating_sub(1).leading_zeros()) as u64
}

/// Per-rank CPU cost multipliers applied to [`crate::Ctx::compute`] charges.
///
/// A factor of 1.0 is the reference CPU; larger factors are *slower* CPUs.
/// The paper measures UTS node-processing costs of 0.3158 µs (Opteron),
/// 0.4753 µs (Xeon) and 0.5681 µs (XT4 Opteron 285); [`SpeedModel::hetero_cluster`]
/// reproduces the cluster's 50% Opteron/Xeon split.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedModel {
    factors: Vec<f64>,
}

impl SpeedModel {
    /// All ranks run at the reference speed.
    pub fn uniform(n: usize) -> Self {
        SpeedModel {
            factors: vec![1.0; n],
        }
    }

    /// Explicit per-rank factors.
    pub fn from_factors(factors: Vec<f64>) -> Self {
        assert!(
            factors.iter().all(|f| *f > 0.0),
            "speed factors must be positive"
        );
        SpeedModel { factors }
    }

    /// The paper's heterogeneous cluster: even ranks are Opterons (factor
    /// 1.0), odd ranks are Xeons (factor 0.4753/0.3158 ≈ 1.505 — ~50% slower
    /// on the UTS SHA-1 kernel). Interleaving even/odd reflects the paper's
    /// "half Opteron and half Xeon" runs at every machine size.
    pub fn hetero_cluster(n: usize) -> Self {
        let xeon = 0.4753 / 0.3158;
        SpeedModel {
            factors: (0..n).map(|r| if r % 2 == 0 { 1.0 } else { xeon }).collect(),
        }
    }

    /// Cost multiplier for `rank`.
    pub fn factor(&self, rank: usize) -> f64 {
        self.factors[rank]
    }

    /// Number of ranks this model covers.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// True when the model covers zero ranks.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }
}

/// How the machine-wide barrier charges its participants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierKind {
    /// Flat release: every rank leaves at `max(arrival) + cost` — the full
    /// synchronous cost is charged on top of the slowest arrival. The
    /// historical model and the ablation baseline.
    Flat,
    /// Dissemination barrier: `ceil(log2 n)` rounds, each costing one hop
    /// (`cost / (2 * ceil(log2 n))`, i.e. `barrier_hop` when `cost` is a
    /// [`LatencyModel::barrier_cost`]). A rank's release time is its own
    /// arrival pushed through the round schedule, so ranks far from the
    /// stragglers leave earlier and equal arrivals pay only half the flat
    /// cost (K hops instead of the up-and-down 2K). Hop cost is
    /// `cost / 2K`, truncated (under-charging at most `2K - 1` ns); a
    /// nonzero cost below `2K` rides the final round whole instead of
    /// truncating to a free barrier.
    Tree,
}

/// Full configuration for [`crate::Machine::run`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of simulated processes.
    pub ranks: usize,
    /// Execution mode (virtual time vs. real threads).
    pub mode: ExecMode,
    /// Communication cost model (consulted by the comm layers).
    pub latency: LatencyModel,
    /// Per-rank CPU speed factors.
    pub speed: SpeedModel,
    /// Seed for the per-rank deterministic RNGs ([`crate::Ctx::rng`]).
    pub seed: u64,
    /// Stack size for rank threads. 512-rank simulations need modest stacks.
    pub stack_size: usize,
    /// Event tracing and metrics collection (off by default).
    pub trace: TraceConfig,
    /// Barrier release model ([`BarrierKind::Flat`] by default, so existing
    /// pinned virtual-time results are unchanged unless a config opts in).
    pub barrier: BarrierKind,
}

impl MachineConfig {
    /// Deterministic virtual-time machine with `ranks` processes, zero-cost
    /// latency model and uniform CPUs — the baseline for functional tests.
    pub fn virtual_time(ranks: usize) -> Self {
        MachineConfig {
            ranks,
            mode: ExecMode::VirtualTime,
            latency: LatencyModel::zero(),
            speed: SpeedModel::uniform(ranks),
            seed: 0x005C_1070,
            stack_size: 1 << 20,
            trace: TraceConfig::disabled(),
            barrier: BarrierKind::Flat,
        }
    }

    /// Free-running threaded machine with `ranks` processes.
    pub fn concurrent(ranks: usize) -> Self {
        MachineConfig {
            mode: ExecMode::Concurrent,
            ..MachineConfig::virtual_time(ranks)
        }
    }

    /// Replace the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replace the speed model (must cover `ranks` ranks).
    pub fn with_speed(mut self, speed: SpeedModel) -> Self {
        assert_eq!(speed.len(), self.ranks, "speed model must cover all ranks");
        self.speed = speed;
        self
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the tracing configuration. Enabling tracing attaches a
    /// [`crate::Trace`] to the run's [`crate::Report`].
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the barrier release model.
    pub fn with_barrier(mut self, barrier: BarrierKind) -> Self {
        self.barrier = barrier;
        self
    }

    /// Replace the per-rank stack size (bytes): the size of each rank's
    /// fiber stack, or of its OS thread's where ranks run as threads.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
        assert_eq!(ceil_log2(512), 9);
    }

    #[test]
    fn xfer_includes_per_byte_cost() {
        let m = LatencyModel {
            remote_op: 100,
            per_byte: 2.0,
            ..LatencyModel::zero()
        };
        assert_eq!(m.xfer(0), 100);
        assert_eq!(m.xfer(10), 120);
    }

    #[test]
    fn hetero_cluster_alternates() {
        let s = SpeedModel::hetero_cluster(4);
        assert_eq!(s.factor(0), 1.0);
        assert!(s.factor(1) > 1.4 && s.factor(1) < 1.6);
        assert_eq!(s.factor(2), 1.0);
    }

    #[test]
    fn barrier_cost_scales_logarithmically() {
        let m = LatencyModel {
            barrier_hop: 10,
            ..LatencyModel::zero()
        };
        assert_eq!(m.barrier_cost(1), 0);
        assert_eq!(m.barrier_cost(2), 20);
        assert_eq!(m.barrier_cost(64), 120);
    }

    #[test]
    #[should_panic(expected = "speed factors must be positive")]
    fn rejects_nonpositive_speed() {
        SpeedModel::from_factors(vec![1.0, 0.0]);
    }

    #[test]
    fn ring_distance_wraps() {
        assert_eq!(ring_distance(0, 0, 8), 0);
        assert_eq!(ring_distance(0, 3, 8), 3);
        assert_eq!(ring_distance(0, 7, 8), 1);
        assert_eq!(ring_distance(1, 1022, 1024), 3);
        assert_eq!(ring_distance(0, 512, 1024), 512);
    }

    #[test]
    fn untiered_distance_methods_match_flat_costs() {
        // The distance-aware methods must be drop-in for every historical
        // call site when no tiers are attached: same integer truncation,
        // same formulas, at any distance.
        let m = LatencyModel::cluster();
        for (from, to) in [(0, 1), (0, 31), (5, 60)] {
            assert_eq!(m.xfer_to(from, to, 64, 1024), m.xfer(1024));
            assert_eq!(m.remote_op_to(from, to, 64), m.remote_op);
            assert_eq!(m.lock_to(from, to, 64), m.lock);
            assert_eq!(
                m.msg_to(from, to, 64, 100),
                m.msg + (m.per_byte * 100.0) as u64
            );
        }
    }

    #[test]
    fn nearfar_tiers_scale_by_ring_distance() {
        let m = LatencyModel::cluster_nearfar();
        let t = LatencyTiers::nearfar();
        // Distance 1 (and the wrap-around distance 1) is near.
        assert_eq!(
            m.remote_op_to(0, 1, 64),
            (m.remote_op as f64 * t.near_scale).round() as u64
        );
        assert_eq!(m.remote_op_to(0, 63, 64), m.remote_op_to(0, 1, 64));
        // Distance 32 is far, and costs more than the flat model.
        let far = m.remote_op_to(0, 32, 64);
        assert_eq!(far, (m.remote_op as f64 * t.far_scale).round() as u64);
        assert!(far > m.remote_op);
        assert!(m.remote_op_to(0, 1, 64) < m.remote_op);
        // Per-byte costs scale with the same tier multiplier.
        let near_xfer = m.xfer_to(0, 2, 64, 1000);
        let far_xfer = m.xfer_to(0, 32, 64, 1000);
        assert!(near_xfer < far_xfer);
        assert_eq!(
            far_xfer,
            (m.remote_op as f64 * t.far_scale).round() as u64
                + ((m.per_byte * t.far_scale) * 1000.0) as u64
        );
    }
}
