//! Strided one-sided access (the engine of ARMCI_PutS / ARMCI_GetS /
//! ARMCI_AccS, handing the caller each word in place).
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
    pub fn contiguous(offset: usize, len: usize) -> Strided {
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
    /// Strided access in place, word by word: `each(i, j, word)` sees word
    /// `j` (8 little-endian bytes) of the `i`-th segment of the described
    /// region of `rank`'s memory — one transfer charged, one access record
    /// per segment. This is what a layer whose local data is not one
    /// contiguous byte buffer (a Global Arrays patch) builds its
    /// get/put/acc on; offset, stride and `seg_len` must be multiples of 8.
    /// `kind` declares what `each` does and is what the trace records:
    /// `Get` reads the words (edits are dropped), `Put` overwrites them
    /// (starting from zero), `Acc` read-modify-writes them, atomic against
    /// other accumulates.
    pub fn access_strided(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        kind: RemoteOpKind,
        each: impl FnMut(usize, usize, &mut u64),
    ) {
        self.transfer_words(ctx, g, rank, s.checked(), kind, each);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    /// A 2x2 sub-block at (1,1) of a row-major 4x4 f64 matrix.
    const BLOCK: Strided = Strided { offset: (4 + 1) * 8, stride: 4 * 8, seg_len: 2 * 8, count: 2 };

    /// Put `vals` (two f64 per segment) into the region `s` of `rank`.
    fn put_f64s(armci: &Armci, ctx: &Ctx, g: Gmem, rank: usize, s: Strided, vals: &[f64]) {
        let per_seg = s.seg_len / 8;
        armci.access_strided(ctx, g, rank, s, RemoteOpKind::Put, |i, j, w| {
            *w = vals[i * per_seg + j].to_bits();
        });
    }

    /// The f64 words of the region `s` of `rank`, in segment order.
    fn get_f64s(armci: &Armci, ctx: &Ctx, g: Gmem, rank: usize, s: Strided) -> Vec<f64> {
        let mut out = Vec::new();
        armci.access_strided(ctx, g, rank, s, RemoteOpKind::Get, |_, _, w| {
            out.push(f64::from_bits(*w));
        });
        out
    }

    #[test]
    fn strided_put_get_roundtrip() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16 * 8); // a 4x4 f64 matrix
            // Rank 0 writes a 2x2 sub-block at (1,1) of rank 1's matrix.
            if ctx.rank() == 0 {
                put_f64s(&armci, ctx, g, 1, BLOCK, &[1.0, 2.0, 3.0, 4.0]);
            }
            armci.barrier(ctx);
            get_f64s(&armci, ctx, g, 1, BLOCK)
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
            let all = Strided::contiguous(0, 6 * 8);
            put_f64s(&armci, ctx, g, 0, all, &[9.0; 6]);
            let s = Strided { offset: 0, stride: 3 * 8, seg_len: 8, count: 2 };
            put_f64s(&armci, ctx, g, 0, s, &[1.0, 2.0]);
            get_f64s(&armci, ctx, g, 0, all)
        });
        assert_eq!(out.results[0], vec![1.0, 9.0, 9.0, 2.0, 9.0, 9.0]);
    }

    #[test]
    fn strided_acc_accumulates_elementwise() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 4 * 8);
            let s = Strided { offset: 0, stride: 2 * 8, seg_len: 8, count: 2 };
            let src = [1.0, 10.0];
            armci.access_strided(ctx, g, 0, s, RemoteOpKind::Acc, |i, _, w| {
                *w = (f64::from_bits(*w) + src[i]).to_bits();
            });
            armci.barrier(ctx);
            get_f64s(&armci, ctx, g, 0, Strided::contiguous(0, 4 * 8))
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
            let s = Strided { offset: 0, stride: 8, seg_len: 0, count: 0 };
            let got = get_f64s(&armci, ctx, g, 0, s);
            put_f64s(&armci, ctx, g, 0, s, &[]);
            got.is_empty()
        });
        assert!(out.results[0]);
    }

    #[test]
    #[should_panic(expected = "segments overlap")]
    fn overlapping_stride_rejected() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let s = Strided { offset: 0, stride: 4, seg_len: 8, count: 2 };
            put_f64s(&armci, ctx, g, 0, s, &[0.0; 2]);
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 out of range (nranks = 1)")]
    fn strided_to_bad_rank_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let s = Strided { offset: 0, stride: 16, seg_len: 8, count: 2 };
            put_f64s(&armci, ctx, g, 1, s, &[0.0; 2]);
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
            get_f64s(&armci, ctx, g, 0, s);
        });
    }
}
