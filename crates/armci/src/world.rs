//! The `Armci` world object: initialization, fences, barrier.

use std::sync::Arc;

use scioto_det::AppendTable;
use scioto_sim::Ctx;

use crate::gmem::Segment;
use crate::locks::MutexStorage;

/// The ARMCI communication world for one machine.
///
/// Created collectively by [`Armci::init`]; all operations are methods on
/// this object and take the calling rank's [`Ctx`].
///
/// Segments and mutex sets are created collectively and never freed, so
/// both tables are append-only: resolving a [`crate::Gmem`] or
/// [`crate::MutexSet`] handle on the operation path is a lock-free borrow.
pub struct Armci {
    pub(crate) nranks: usize,
    pub(crate) segments: AppendTable<Arc<Segment>>,
    pub(crate) mutex_sets: AppendTable<MutexStorage>,
}

impl std::fmt::Debug for Armci {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let segments: Vec<&Segment> = (0..self.segments.len())
            .filter_map(|i| self.segments.get(i).map(|s| &**s))
            .collect();
        f.debug_struct("Armci")
            .field("nranks", &self.nranks)
            .field("segments", &segments)
            .field("mutex_sets", &self.mutex_sets.len())
            .finish()
    }
}

impl Armci {
    /// Collectively initialize the ARMCI layer. Every rank must call this
    /// once, at the same point of the program.
    ///
    /// Barrier-free (see [`Ctx::collective`]); callers that stack several collective
    /// creations back-to-back — init, mallocs, mutex sets — can wrap the
    /// group in [`Ctx::collective_epoch`] so one commit barrier covers
    /// all of them.
    pub fn init(ctx: &Ctx) -> Arc<Armci> {
        let n = ctx.nranks();
        ctx.collective(|| Armci {
            nranks: n,
            segments: AppendTable::new(),
            mutex_sets: AppendTable::new(),
        })
    }

    /// Number of ranks in the world.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Wait for completion of outstanding one-sided operations issued to
    /// `target`. Operations complete synchronously in this model, so a
    /// fence only charges the confirmation round-trip
    /// ([`LatencyModel::remote_op_to`](scioto_sim::LatencyModel::remote_op_to)).
    pub fn fence(&self, ctx: &Ctx, target: usize) {
        ctx.yield_point();
        ctx.charge_net(ctx.latency().remote_op_to(ctx.rank(), target, self.nranks));
    }

    /// Fence all targets.
    pub fn all_fence(&self, ctx: &Ctx) {
        ctx.yield_point();
        ctx.charge_net(ctx.latency().remote_op);
    }

    /// ARMCI barrier: an all-fence followed by a tree barrier.
    pub fn barrier(&self, ctx: &Ctx) {
        let l = ctx.latency();
        let cost = l.remote_op + l.barrier_cost(self.nranks);
        ctx.barrier_with_cost(cost);
    }
}
