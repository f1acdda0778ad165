//! Strided one-sided operations (ARMCI_PutS / ARMCI_GetS / ARMCI_AccS).
//!
//! A strided descriptor names `count` segments of `seg_len` bytes, the
//! first at `offset`, each subsequent one `stride` bytes later — the shape
//! of a rectangular patch of a row-major matrix. Like ARMCI's strided
//! engine, one strided operation is charged as a single transfer of the
//! total payload (the NIC pipelines the segments).

use scioto_sim::{Ctx, RemoteOpKind};

use crate::gmem::Gmem;
use crate::world::Armci;

/// Descriptor of a strided region inside a rank's segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strided {
    /// Byte offset of the first segment.
    pub offset: usize,
    /// Distance in bytes between the starts of consecutive segments.
    pub stride: usize,
    /// Bytes per segment.
    pub seg_len: usize,
    /// Number of segments.
    pub count: usize,
}

impl Strided {
    /// The contiguous range `[offset, offset + len)` as a one-segment region.
    pub(crate) fn contiguous(offset: usize, len: usize) -> Strided {
        Strided { offset, stride: len, seg_len: len, count: 1 }
    }

    /// Total bytes covered by the descriptor.
    pub fn total_bytes(&self) -> usize {
        self.seg_len * self.count
    }

    /// Bytes from `offset` to one past the last byte of the last segment;
    /// zero for a region of no segments. Saturates instead of wrapping, so
    /// a descriptor whose extent overflows is out of bounds for every
    /// segment.
    pub(crate) fn extent(&self) -> usize {
        match self.count {
            0 => 0,
            n => (n - 1).saturating_mul(self.stride).saturating_add(self.seg_len),
        }
    }

    /// The strided entry points' argument check: segments must not
    /// overlap. A descriptor that names no bytes is accepted wherever it
    /// points, as the region of no segments (a zero-length *contiguous*
    /// operation still has its offset bounds-checked).
    fn checked(self) -> Strided {
        assert!(
            self.stride >= self.seg_len || self.count <= 1,
            "strided segments overlap: stride {} < seg_len {}",
            self.stride,
            self.seg_len
        );
        match self.total_bytes() {
            0 => Strided { offset: 0, count: 0, ..self },
            _ => self,
        }
    }
}

impl Armci {
    /// Strided access in place: run `each(i, bytes)` on the `i`-th segment
    /// of the described region of `rank`'s memory — one lock scope, one
    /// transfer charged, one access record per segment. This is what a
    /// layer whose local data is not one contiguous byte buffer (a Global
    /// Arrays patch) builds its get/put/acc on. `kind` declares what
    /// `each` does with the bytes and is what the trace records: `Get`
    /// reads them, `Put` overwrites them, `Acc` read-modify-writes them
    /// (atomic against other accumulates).
    pub fn access_strided(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        kind: RemoteOpKind,
        each: impl FnMut(usize, &mut [u8]),
    ) {
        assert!(kind != RemoteOpKind::Rmw, "an RMW is not a data transfer");
        self.transfer(ctx, g, rank, s.checked(), kind, kind.is_atomic(), each);
    }

    /// Strided get: gather the described region of `(rank)`'s segment into
    /// the contiguous `dst` (`dst.len() == total_bytes`).
    pub fn get_strided(&self, ctx: &Ctx, g: Gmem, rank: usize, s: Strided, dst: &mut [u8]) {
        assert_eq!(dst.len(), s.total_bytes(), "dst length mismatch");
        self.access_strided(ctx, g, rank, s, RemoteOpKind::Get, |i, seg| {
            dst[i * s.seg_len..][..s.seg_len].copy_from_slice(seg);
        });
    }

    /// Strided put: scatter the contiguous `src` into the described region.
    pub fn put_strided(&self, ctx: &Ctx, g: Gmem, rank: usize, s: Strided, src: &[u8]) {
        assert_eq!(src.len(), s.total_bytes(), "src length mismatch");
        self.access_strided(ctx, g, rank, s, RemoteOpKind::Put, |i, seg| {
            seg.copy_from_slice(&src[i * s.seg_len..][..s.seg_len]);
        });
    }

    /// Strided atomic f64 accumulate: `dest[i] += scale * src[i]` over the
    /// described region (`seg_len` must be a multiple of 8).
    pub fn acc_strided_f64(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        scale: f64,
        src: &[f64],
    ) {
        self.accumulate(ctx, g, rank, s.checked(), src.len(), |k, cur| {
            (f64::from_le_bytes(cur) + scale * src[k]).to_le_bytes()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::{bytes_to_f64s, f64s_to_bytes};
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn strided_put_get_roundtrip() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16 * 8); // a 4x4 f64 matrix
            // Rank 0 writes a 2x2 sub-block at (1,1) of rank 1's matrix.
            if ctx.rank() == 0 {
                let s = Strided {
                    offset: (4 + 1) * 8,
                    stride: 4 * 8,
                    seg_len: 2 * 8,
                    count: 2,
                };
                armci.put_strided(ctx, g, 1, s, &f64s_to_bytes(&[1.0, 2.0, 3.0, 4.0]));
            }
            armci.barrier(ctx);
            let s = Strided {
                offset: (4 + 1) * 8,
                stride: 4 * 8,
                seg_len: 2 * 8,
                count: 2,
            };
            let mut buf = vec![0u8; 32];
            armci.get_strided(ctx, g, 1, s, &mut buf);
            bytes_to_f64s(&buf)
        });
        for v in out.results {
            assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn strided_put_leaves_gaps_untouched() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 6 * 8);
            armci.put(ctx, g, 0, 0, &f64s_to_bytes(&[9.0; 6]));
            let s = Strided {
                offset: 0,
                stride: 3 * 8,
                seg_len: 8,
                count: 2,
            };
            armci.put_strided(ctx, g, 0, s, &f64s_to_bytes(&[1.0, 2.0]));
            armci.get_f64s(ctx, g, 0, 0, 6)
        });
        assert_eq!(out.results[0], vec![1.0, 9.0, 9.0, 2.0, 9.0, 9.0]);
    }

    #[test]
    fn strided_acc_accumulates_elementwise() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 4 * 8);
            let s = Strided {
                offset: 0,
                stride: 2 * 8,
                seg_len: 8,
                count: 2,
            };
            armci.acc_strided_f64(ctx, g, 0, s, 1.0, &[1.0, 10.0]);
            armci.barrier(ctx);
            armci.get_f64s(ctx, g, 0, 0, 4)
        });
        for v in out.results {
            assert_eq!(v, vec![4.0, 0.0, 40.0, 0.0]);
        }
    }

    #[test]
    fn empty_strided_is_noop() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let s = Strided {
                offset: 0,
                stride: 8,
                seg_len: 0,
                count: 0,
            };
            let mut buf = Vec::new();
            armci.get_strided(ctx, g, 0, s, &mut buf);
            armci.put_strided(ctx, g, 0, s, &[]);
            true
        });
        assert!(out.results[0]);
    }

    #[test]
    #[should_panic(expected = "segments overlap")]
    fn overlapping_stride_rejected() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let s = Strided {
                offset: 0,
                stride: 4,
                seg_len: 8,
                count: 2,
            };
            armci.put_strided(ctx, g, 0, s, &[0u8; 16]);
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 out of range (nranks = 1)")]
    fn strided_to_bad_rank_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let s = Strided { offset: 0, stride: 16, seg_len: 8, count: 2 };
            armci.put_strided(ctx, g, 1, s, &[0u8; 16]);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds for segment of 64 bytes")]
    fn strided_extent_overflow_is_out_of_bounds() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            // (count - 1) * stride wraps to 0 under plain arithmetic.
            let s = Strided { offset: 0, stride: 1 << 63, seg_len: 8, count: 3 };
            armci.get_strided(ctx, g, 0, s, &mut [0u8; 24]);
        });
    }
}
