//! Typed convenience views: byte codecs and gets of `f64` / `i64` slices.

use scioto_sim::Ctx;

use crate::gmem::Gmem;
use crate::world::Armci;

/// Encode a slice of `f64` as little-endian bytes.
pub fn f64s_to_bytes(src: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() * 8);
    for v in src {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes into `f64` values.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    assert_eq!(bytes.len() % 8, 0, "byte length must be a multiple of 8");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Encode a slice of `i64` as little-endian bytes.
pub fn i64s_to_bytes(src: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() * 8);
    for v in src {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes into `i64` values.
pub fn bytes_to_i64s(bytes: &[u8]) -> Vec<i64> {
    assert_eq!(bytes.len() % 8, 0, "byte length must be a multiple of 8");
    bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

impl Armci {
    /// Get `count` `f64` values from `(rank, byte offset)`.
    pub fn get_f64s(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, count: usize) -> Vec<f64> {
        let mut buf = vec![0u8; count * 8];
        self.get(ctx, g, rank, offset, &mut buf);
        bytes_to_f64s(&buf)
    }

    /// Get `count` `i64` values from `(rank, byte offset)`.
    pub fn get_i64s(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, count: usize) -> Vec<i64> {
        let mut buf = vec![0u8; count * 8];
        self.get(ctx, g, rank, offset, &mut buf);
        bytes_to_i64s(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn byte_codecs_roundtrip() {
        let f = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&f)), f);
        let i = vec![0, -1, i64::MIN, i64::MAX];
        assert_eq!(bytes_to_i64s(&i64s_to_bytes(&i)), i);
    }

    #[test]
    fn typed_put_get_roundtrip() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 256);
            if ctx.rank() == 0 {
                armci.put(ctx, g, 1, 16, &f64s_to_bytes(&[3.5, 4.5]));
                armci.put(ctx, g, 1, 64, &i64s_to_bytes(&[-7, 8]));
            }
            armci.barrier(ctx);
            (
                armci.get_f64s(ctx, g, 1, 16, 2),
                armci.get_i64s(ctx, g, 1, 64, 2),
            )
        });
        for (f, i) in out.results {
            assert_eq!(f, vec![3.5, 4.5]);
            assert_eq!(i, vec![-7, 8]);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn ragged_decode_panics() {
        bytes_to_f64s(&[0u8; 7]);
    }
}
