//! Non-blocking one-sided operations (ARMCI_NbPut / ARMCI_NbGet /
//! ARMCI_Wait).
//!
//! A non-blocking operation injects immediately — the caller is charged
//! only the injection overhead — while the transfer itself completes at
//! `injection time + network latency`. [`Armci::wait`] (or a fence)
//! advances the caller's clock to the completion time if it has not
//! already passed, which is exactly how overlap of communication with
//! computation manifests in virtual time.
//!
//! Data placement semantics: in this shared-memory model the bytes move
//! at injection, so remote readers may observe them slightly early; the
//! *timing* (what the paper's overlap optimizations exploit) is modelled
//! faithfully. Same-location ordering of a rank's own operations is
//! preserved.

use scioto_sim::{Ctx, RemoteOpKind, TraceEvent};

use crate::gmem::Gmem;
use crate::world::Armci;

/// Injection overhead of a non-blocking one-sided call (descriptor setup
/// and doorbell ring).
const INJECT_NS: u64 = 250;

/// Handle to an outstanding non-blocking operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbHandle {
    /// Virtual time at which the transfer completes.
    complete_at: u64,
}

impl NbHandle {
    /// Virtual completion time of the operation.
    pub fn completes_at(&self) -> u64 {
        self.complete_at
    }

    /// Whether the operation has completed by the caller's current time.
    pub fn is_complete(&self, ctx: &Ctx) -> bool {
        ctx.now() >= self.complete_at
    }
}

impl Armci {
    /// Non-blocking contiguous put. Returns immediately after injection.
    pub fn nb_put(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        src: &[u8],
    ) -> NbHandle {
        self.check_bounds(g, rank, offset, src.len());
        ctx.yield_point();
        let end = offset + src.len();
        self.segment(g).lock(rank, end)[offset..end].copy_from_slice(src);
        ctx.trace(|| TraceEvent::RemoteOp {
            kind: RemoteOpKind::Put,
            target: rank as u32,
            seg: g.id as u32,
            offset: offset as u64,
            bytes: src.len() as u32,
            atomic: false,
        });
        ctx.charge_cpu(INJECT_NS);
        NbHandle {
            complete_at: ctx.now() + self.xfer_cost(ctx, rank, src.len()),
        }
    }

    /// Non-blocking contiguous get. The destination buffer is filled at
    /// injection; it must not be *read* until [`Armci::wait`] returns (the
    /// completion time is when the data would really be present).
    pub fn nb_get(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        dst: &mut [u8],
    ) -> NbHandle {
        self.check_bounds(g, rank, offset, dst.len());
        ctx.yield_point();
        let end = offset + dst.len();
        dst.copy_from_slice(&self.segment(g).lock(rank, end)[offset..end]);
        ctx.trace(|| TraceEvent::RemoteOp {
            kind: RemoteOpKind::Get,
            target: rank as u32,
            seg: g.id as u32,
            offset: offset as u64,
            bytes: dst.len() as u32,
            atomic: false,
        });
        ctx.charge_cpu(INJECT_NS);
        NbHandle {
            complete_at: ctx.now() + self.xfer_cost(ctx, rank, dst.len()),
        }
    }

    /// Wait for a non-blocking operation: advances the caller's clock to
    /// the completion time (a no-op if already past — the overlap win).
    pub fn wait(&self, ctx: &Ctx, h: NbHandle) {
        ctx.advance_to(h.complete_at);
    }

    /// Wait for all of a set of handles.
    pub fn wait_all(&self, ctx: &Ctx, handles: &[NbHandle]) {
        for h in handles {
            self.wait(ctx, *h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{LatencyModel, Machine, MachineConfig};

    #[test]
    fn overlap_hides_transfer_latency() {
        let out = Machine::run(
            MachineConfig::virtual_time(2).with_latency(LatencyModel::cluster()),
            |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, 4096);
                if ctx.rank() != 0 {
                    armci.barrier(ctx);
                    return (0, 0);
                }
                // Blocking: put then compute.
                let t0 = ctx.now();
                let buf = [7u8; 4096];
                armci.put(ctx, g, 1, 0, &buf);
                ctx.compute(20_000);
                let blocking = ctx.now() - t0;
                // Non-blocking: inject, compute 20 µs, then wait.
                let t0 = ctx.now();
                let h = armci.nb_put(ctx, g, 1, 0, &buf);
                ctx.compute(20_000);
                armci.wait(ctx, h);
                let overlapped = ctx.now() - t0;
                armci.barrier(ctx);
                (blocking, overlapped)
            },
        );
        let (blocking, overlapped) = out.results[0];
        // The transfer (~7.6 µs) hides entirely behind the 20 µs compute.
        assert!(
            overlapped < blocking,
            "overlap gave no benefit: {overlapped} vs {blocking}"
        );
        assert!(
            overlapped <= 21_000,
            "overlapped time {overlapped} should be ~compute only"
        );
    }

    #[test]
    fn wait_charges_remaining_latency_when_not_overlapped() {
        let out = Machine::run(
            MachineConfig::virtual_time(2).with_latency(LatencyModel::cluster()),
            |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, 1024);
                if ctx.rank() == 0 {
                    let t0 = ctx.now();
                    let h = armci.nb_put(ctx, g, 1, 0, &[1u8; 1024]);
                    armci.wait(ctx, h); // immediate wait = blocking cost
                    ctx.now() - t0
                } else {
                    0
                }
            },
        );
        // injection + full transfer latency (≥ remote_op).
        assert!(out.results[0] >= 3_300, "got {}", out.results[0]);
    }

    #[test]
    fn nb_get_roundtrips_data() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            if ctx.rank() == 1 {
                armci.put(ctx, g, 1, 0, &42i64.to_le_bytes());
            }
            armci.barrier(ctx);
            let mut buf = [0u8; 8];
            let h = armci.nb_get(ctx, g, 1, 0, &mut buf);
            armci.wait(ctx, h);
            i64::from_le_bytes(buf)
        });
        assert_eq!(out.results, vec![42, 42]);
    }

    #[test]
    fn handles_report_completion() {
        let out = Machine::run(
            MachineConfig::virtual_time(1).with_latency(LatencyModel::cluster()),
            |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, 64);
                let h = armci.nb_put(ctx, g, 0, 0, &[0u8; 64]);
                let before = h.is_complete(ctx);
                ctx.compute(1_000_000);
                let after = h.is_complete(ctx);
                (before, after)
            },
        );
        assert_eq!(out.results[0], (false, true));
    }

    #[test]
    #[should_panic(expected = "rank 2 out of range (nranks = 2)")]
    fn nb_put_to_bad_rank_panics() {
        Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            armci.nb_put(ctx, g, 2, 0, &[0u8; 8]);
        });
    }

    #[test]
    #[should_panic(
        expected = "access [18446744073709551612, 18446744073709551612+8) out of bounds for segment of 64 bytes"
    )]
    fn nb_get_with_overflowing_offset_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            // `offset + len` wraps to 4: an unchecked add would pass the
            // bounds test and hand the store a wild range.
            armci.nb_get(ctx, g, 0, usize::MAX - 3, &mut [0u8; 8]);
        });
    }

    #[test]
    #[should_panic(expected = "access [60, 60+8) out of bounds for segment of 64 bytes")]
    fn nb_put_past_the_end_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            armci.nb_put(ctx, g, 0, 60, &[0u8; 8]);
        });
    }
}
