//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! UTS uses SHA-1 purely as a high-quality splittable pseudo-random
//! function: `child_state = SHA1(parent_state ‖ child_index)`. This is not
//! a security context — SHA-1's known collision weaknesses are irrelevant
//! here; what matters is bit-exact determinism.

/// Output size in bytes.
pub const DIGEST_BYTES: usize = 20;

const H0: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// Compute the SHA-1 digest of `data`.
///
/// Whole blocks are compressed where they lie; the remainder is padded
/// (0x80, zeros, 64-bit big-endian bit length) into one or two blocks on
/// the stack, so a UTS child — a 24-byte message — costs one `compress`
/// and no allocation.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut h = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block.try_into().expect("64 bytes"));
    }
    let rem = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    // The length field needs 8 bytes after the 0x80 marker.
    let end = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..end].chunks_exact(64) {
        compress(&mut h, block.try_into().expect("64 bytes"));
    }

    let mut out = [0u8; DIGEST_BYTES];
    for (o, word) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Fold one 64-byte block into the chaining value `h`. The message
/// schedule is a 16-word ring (`w[t]` overwrites `w[t - 16]`), and the 80
/// rounds are written out as four groups of 20 so each group's function
/// and constant are fixed and every ring index is a literal.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;

    macro_rules! round {
        ($t:expr, $f:expr, $k:expr) => {{
            let wt = if $t < 16 { w[$t] } else { schedule(&mut w, $t) };
            let tmp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }};
    }
    macro_rules! rounds20 {
        ($t0:expr, $f:expr, $k:expr) => {{
            round!($t0, $f, $k);
            round!($t0 + 1, $f, $k);
            round!($t0 + 2, $f, $k);
            round!($t0 + 3, $f, $k);
            round!($t0 + 4, $f, $k);
            round!($t0 + 5, $f, $k);
            round!($t0 + 6, $f, $k);
            round!($t0 + 7, $f, $k);
            round!($t0 + 8, $f, $k);
            round!($t0 + 9, $f, $k);
            round!($t0 + 10, $f, $k);
            round!($t0 + 11, $f, $k);
            round!($t0 + 12, $f, $k);
            round!($t0 + 13, $f, $k);
            round!($t0 + 14, $f, $k);
            round!($t0 + 15, $f, $k);
            round!($t0 + 16, $f, $k);
            round!($t0 + 17, $f, $k);
            round!($t0 + 18, $f, $k);
            round!($t0 + 19, $f, $k);
        }};
    }
    rounds20!(0, (b & c) | (!b & d), 0x5A82_7999u32);
    rounds20!(20, b ^ c ^ d, 0x6ED9_EBA1u32);
    rounds20!(40, (b & c) | (b & d) | (c & d), 0x8F1B_BCDCu32);
    rounds20!(60, b ^ c ^ d, 0xCA62_C1D6u32);

    for (hi, v) in h.iter_mut().zip([a, b, c, d, e]) {
        *hi = hi.wrapping_add(v);
    }
}

/// Message-schedule word `t >= 16`: `w[t]` is derived from, and replaces,
/// the ring's oldest word `w[t - 16]`.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    let x = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15]).rotate_left(1);
    w[t & 15] = x;
    x
}

/// Hex-encode a digest (for tests and debugging).
pub fn to_hex(digest: &[u8; DIGEST_BYTES]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            to_hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            to_hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            to_hex(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha1(&msg)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// The byte-at-a-time implementation `sha1` replaced (heap-padded
    /// message, 80-word schedule, one rolled round loop), kept as the
    /// oracle the kernel is compared against.
    fn reference_sha1(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut h = H0;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        let mut w = [0u32; 80];
        for block in msg.chunks_exact(64) {
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999u32),
                    20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                    _ => (b ^ c ^ d, 0xCA62_C1D6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            for (hi, v) in h.iter_mut().zip([a, b, c, d, e]) {
                *hi = hi.wrapping_add(v);
            }
        }

        let mut out = [0u8; DIGEST_BYTES];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Literal digests on both sides of every padding boundary: 55 is the
    /// longest one-block message, 56..=63 spill the length into a second
    /// block, 64 is a whole block plus a padding-only one, and 119/120
    /// repeat the 55/56 edge after one full block.
    #[test]
    fn exact_block_boundaries() {
        for (len, hex) in [
            (55usize, "6c938abb32ff50dd7f7f466cc5a769e62443c40f"),
            (56, "299939c0272c2ce298040088dcf89e3a2e2dba3d"),
            (63, "777eded43f77834e84bf67ac0499eea07e4c4964"),
            (64, "1e41f3a9d674da3f0a8d8c8930ac027d8af810a0"),
            (65, "ce48847fa9956c287f5f19380821950c11071985"),
            (119, "9ba38c8baf378a3106131ed0b0c3888fa5f32727"),
            (120, "c6e53ac9e7f039d10cd81549a2cfde0c15f7cb9a"),
        ] {
            assert_eq!(to_hex(&sha1(&vec![0xA5u8; len])), hex, "len={len}");
        }
    }

    #[test]
    fn matches_the_reference_for_every_length_to_200() {
        let mut rng = scioto_det::Rng::seed_from_u64(0x5AA1);
        for len in 0..=200usize {
            let msg: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(sha1(&msg), reference_sha1(&msg), "len={len}");
        }
    }

    /// The one shape the benchmark hashes: `state ‖ index`, 24 bytes,
    /// chained the way a traversal chains it.
    #[test]
    fn matches_the_reference_on_child_messages() {
        let mut state = sha1(b"UTS-root");
        for i in 0..500u32 {
            let mut msg = [0u8; DIGEST_BYTES + 4];
            msg[..DIGEST_BYTES].copy_from_slice(&state);
            msg[DIGEST_BYTES..].copy_from_slice(&(i % 7).to_be_bytes());
            state = sha1(&msg);
            assert_eq!(state, reference_sha1(&msg), "child {i}");
        }
    }

    #[test]
    fn single_bit_avalanche() {
        let a = sha1(b"scioto-uts");
        let b = sha1(b"scioto-utt");
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 40, "only {differing} differing bits");
    }
}
