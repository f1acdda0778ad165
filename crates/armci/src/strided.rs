//! Strided one-sided operations (ARMCI_PutS / ARMCI_GetS / ARMCI_AccS).
//!
//! A strided descriptor names `count` segments of `seg_len` bytes, the
//! first at `offset`, each subsequent one `stride` bytes later — the shape
//! of a rectangular patch of a row-major matrix. Like ARMCI's strided
//! engine, one strided operation is charged as a single transfer of the
//! total payload (the NIC pipelines the segments).

use scioto_sim::Ctx;

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
    /// Total bytes covered by the descriptor.
    pub fn total_bytes(&self) -> usize {
        self.seg_len * self.count
    }

    /// Largest byte offset touched, plus one; zero for an empty region.
    /// Saturates instead of wrapping, so a descriptor whose extent
    /// overflows is out of bounds for every segment.
    pub fn end(&self) -> usize {
        if self.count == 0 || self.seg_len == 0 {
            return 0;
        }
        ((self.count - 1).saturating_mul(self.stride))
            .saturating_add(self.offset)
            .saturating_add(self.seg_len)
    }
}

impl Armci {
    /// Validate a strided access before it reaches the store: segments
    /// must not overlap, and `[0, end)` goes through the same rank and
    /// bounds check as every contiguous operation. Returns `end`.
    fn check_strided(&self, g: Gmem, rank: usize, s: Strided) -> usize {
        assert!(
            s.stride >= s.seg_len || s.count <= 1,
            "strided segments overlap: stride {} < seg_len {}",
            s.stride,
            s.seg_len
        );
        let end = s.end();
        self.check_bounds(g, rank, 0, end);
        end
    }

    /// Strided get: gather the described region of `(rank)`'s segment into
    /// the contiguous `dst` (`dst.len() == total_bytes`).
    pub fn get_strided(&self, ctx: &Ctx, g: Gmem, rank: usize, s: Strided, dst: &mut [u8]) {
        let end = self.check_strided(g, rank, s);
        assert_eq!(dst.len(), s.total_bytes(), "dst length mismatch");
        ctx.yield_point();
        let data = self.segment(g).lock(rank, end);
        for i in 0..s.count {
            let src_off = s.offset + i * s.stride;
            dst[i * s.seg_len..(i + 1) * s.seg_len]
                .copy_from_slice(&data[src_off..src_off + s.seg_len]);
        }
        drop(data);
        ctx.charge_net(self.xfer_cost(ctx, rank, s.total_bytes()));
    }

    /// Strided put: scatter the contiguous `src` into the described region.
    pub fn put_strided(&self, ctx: &Ctx, g: Gmem, rank: usize, s: Strided, src: &[u8]) {
        let end = self.check_strided(g, rank, s);
        assert_eq!(src.len(), s.total_bytes(), "src length mismatch");
        ctx.yield_point();
        let mut data = self.segment(g).lock(rank, end);
        for i in 0..s.count {
            let dst_off = s.offset + i * s.stride;
            data[dst_off..dst_off + s.seg_len]
                .copy_from_slice(&src[i * s.seg_len..(i + 1) * s.seg_len]);
        }
        drop(data);
        ctx.charge_net(self.xfer_cost(ctx, rank, s.total_bytes()));
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
        let end = self.check_strided(g, rank, s);
        assert_eq!(s.seg_len % 8, 0, "seg_len must be a multiple of 8");
        assert_eq!(s.offset % 8, 0, "offset must be 8-byte aligned");
        assert_eq!(src.len() * 8, s.total_bytes(), "src length mismatch");
        ctx.yield_point();
        let per_seg = s.seg_len / 8;
        let mut data = self.segment(g).lock(rank, end);
        for i in 0..s.count {
            let base = s.offset + i * s.stride;
            for j in 0..per_seg {
                let o = base + j * 8;
                let cur = f64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"));
                let v = src[i * per_seg + j];
                data[o..o + 8].copy_from_slice(&(cur + scale * v).to_le_bytes());
            }
        }
        drop(data);
        ctx.charge_net(self.xfer_cost(ctx, rank, s.total_bytes()));
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
            armci.put_f64s(ctx, g, 0, 0, &[9.0; 6]);
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
