//! Victim selection for the steal loop of `tc_process`.
//!
//! Two policies, selected by [`VictimPolicy`] in [`crate::TcConfig`]:
//!
//! * **Uniform** — the paper's policy: every attempt draws one victim
//!   uniformly from the other `n - 1` ranks. Kept as the ablation
//!   baseline; it consumes exactly one RNG value per attempt so runs
//!   under it are byte-identical to the pre-locality steal loop.
//! * **Locality** — distance-biased selection informed by the analyzer's
//!   steal-distance histogram (which shows uniform draws scatter flat
//!   over the ring while work sources are few): a thief first retries
//!   the rank its last successful steal came from (a productive victim
//!   usually stays productive, and the retry costs no RNG draw), and
//!   otherwise draws a ring distance from a truncated geometric
//!   distribution so near neighbours are preferred. A small uniform
//!   escape probability preserves global mixing, so a lone distant work
//!   source is still found quickly — the property that keeps localized
//!   stealing's load-balance guarantees intact.
//!
//! Both policies draw only from the calling rank's deterministic RNG
//! stream, so victim sequences are reproducible per seed.

use scioto_det::Rng;

use crate::config::VictimPolicy;

/// Default probability that a Locality draw ignores the distance bias and
/// falls back to a uniform draw (keeps distant single-source workloads
/// reachable). Overridable per collection via
/// [`crate::TcConfig::victim_escape`] — the autotuner's search axis.
pub const ESCAPE_P: f64 = 0.125;

/// Default per-step continuation probability of the truncated geometric
/// distance walk: `P(d = k) = (1 - CONT_P) * CONT_P^(k-1)` up to the ring
/// radius. Overridable via [`crate::TcConfig::victim_cont`].
pub const CONT_P: f64 = 0.7;

/// Draws for which a victim that just came up empty stays masked by the
/// negative cache. The geometric bias re-draws the same near neighbours
/// constantly; without a mask a dry neighbourhood is re-probed every few
/// attempts and failed probes dominate the steal bill.
const EMPTY_TTL: u32 = 16;

/// Bounded redraws per [`VictimSelector::next`] when draws land on masked
/// victims. The mask is advisory: after this many redraws the last draw is
/// used anyway, so global mixing (and the load-balance argument that rests
/// on it) survives even with every neighbour masked.
const MASK_REDRAWS: usize = 4;

/// Stateful victim chooser for one rank's steal loop.
#[derive(Debug)]
pub struct VictimSelector {
    policy: VictimPolicy,
    /// Continuation probability of the geometric distance walk.
    cont: f64,
    /// Uniform-escape probability of a biased draw.
    escape: f64,
    last_success: Option<usize>,
    /// Draw counter; advances once per `next` call (Locality only).
    clock: u32,
    /// Negative cache: `empty_until[v] > clock` masks rank `v` from
    /// biased draws because a recent steal or probe found it empty.
    /// Lazily sized on first use.
    empty_until: Vec<u32>,
}

impl VictimSelector {
    /// A selector for `policy` with the default bias probabilities and an
    /// empty retry cache.
    pub fn new(policy: VictimPolicy) -> Self {
        Self::with_probs(policy, CONT_P, ESCAPE_P)
    }

    /// A selector with explicit geometric-continuation and uniform-escape
    /// probabilities (Locality only; Uniform ignores both).
    pub fn with_probs(policy: VictimPolicy, cont: f64, escape: f64) -> Self {
        VictimSelector {
            policy,
            cont,
            escape,
            last_success: None,
            clock: 0,
            empty_until: Vec::new(),
        }
    }

    /// Uniform draw over the `n - 1` ranks other than `me` — exactly one
    /// RNG value, the historical steal-loop draw.
    fn uniform(rng: &mut Rng, me: usize, n: usize) -> usize {
        let mut v = rng.gen_range(0..n - 1);
        if v >= me {
            v += 1;
        }
        v
    }

    /// One biased Locality draw: geometric ring distance with a uniform
    /// escape.
    fn biased(&self, rng: &mut Rng, me: usize, n: usize) -> usize {
        if rng.gen_bool(self.escape) {
            return Self::uniform(rng, me, n);
        }
        // Truncated geometric ring distance: start adjacent, keep
        // walking outward with probability `cont`, stop at the ring
        // radius. Distances 1..=n/2 in either direction cover every
        // other rank.
        let dmax = (n / 2).max(1);
        let mut d = 1;
        while d < dmax && rng.gen_bool(self.cont) {
            d += 1;
        }
        if rng.gen_bool(0.5) {
            (me + d) % n
        } else {
            (me + n - d) % n
        }
    }

    /// Choose the next victim for rank `me` of `n`. `n` must be at least 2
    /// and `me < n`; never returns `me`.
    pub fn next(&mut self, rng: &mut Rng, me: usize, n: usize) -> usize {
        debug_assert!(n >= 2 && me < n);
        match self.policy {
            VictimPolicy::Uniform => Self::uniform(rng, me, n),
            VictimPolicy::Locality => {
                if let Some(v) = self.last_success {
                    return v;
                }
                self.clock = self.clock.wrapping_add(1);
                if self.empty_until.len() < n {
                    self.empty_until.resize(n, 0);
                }
                // Redraw past victims the negative cache still masks, up
                // to the redraw budget; the final draw stands regardless.
                let mut v = self.biased(rng, me, n);
                for _ in 0..MASK_REDRAWS {
                    if self.empty_until[v] <= self.clock {
                        break;
                    }
                    v = self.biased(rng, me, n);
                }
                v
            }
        }
    }

    /// Feed back the outcome of a steal from `victim`: a success arms the
    /// retry cache; a failure clears it (when cached) and masks the
    /// victim in the negative cache for `EMPTY_TTL` draws.
    pub fn note_result(&mut self, victim: usize, got: bool) {
        if got {
            self.last_success = Some(victim);
            if let Some(slot) = self.empty_until.get_mut(victim) {
                *slot = 0;
            }
        } else {
            if self.last_success == Some(victim) {
                self.last_success = None;
            }
            if self.policy == VictimPolicy::Locality {
                if self.empty_until.len() <= victim {
                    self.empty_until.resize(victim + 1, 0);
                }
                self.empty_until[victim] = self.clock.wrapping_add(EMPTY_TTL);
            }
        }
    }

    /// The cached last successful victim, if any (tests/diagnostics).
    pub fn cached(&self) -> Option<usize> {
        self.last_success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::stream(0xFEED, 3)
    }

    /// Ring distance between two ranks on an `n`-ring.
    fn ring(a: usize, b: usize, n: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(n - d)
    }

    #[test]
    fn uniform_policy_matches_historical_draw() {
        // The Uniform path must consume exactly one gen_range(0..n-1) per
        // attempt and apply the skip-self shift — byte-identical to the
        // pre-policy steal loop.
        let (me, n) = (5usize, 16usize);
        let mut a = rng();
        let mut b = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Uniform);
        for _ in 0..1000 {
            let expect = {
                let mut v = a.gen_range(0..n - 1);
                if v >= me {
                    v += 1;
                }
                v
            };
            assert_eq!(sel.next(&mut b, me, n), expect);
        }
    }

    #[test]
    fn uniform_histogram_is_flat() {
        let (me, n) = (0usize, 16usize);
        let mut r = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Uniform);
        let mut hist = vec![0u64; n / 2 + 1];
        for _ in 0..30_000 {
            let v = sel.next(&mut r, me, n);
            hist[ring(me, v, n)] += 1;
        }
        // Distances 1..7 each cover two ranks (~2/15 of draws), distance 8
        // covers one (~1/15). Every two-rank bucket within 20% of its
        // expectation is flat enough to distinguish from geometric decay.
        let expect = 30_000.0 * 2.0 / 15.0;
        for d in 1..=7 {
            let c = hist[d] as f64;
            assert!(
                (c - expect).abs() < 0.2 * expect,
                "distance {d} count {c} vs flat expectation {expect}: {hist:?}"
            );
        }
    }

    #[test]
    fn locality_histogram_decays_geometrically() {
        let (me, n) = (0usize, 16usize);
        let mut r = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Locality);
        let mut hist = vec![0u64; n / 2 + 1];
        for _ in 0..30_000 {
            let v = sel.next(&mut r, me, n);
            assert_ne!(v, me);
            hist[ring(me, v, n)] += 1;
            // No feedback at all: a success would arm the retry cache and
            // a failure would arm the negative cache; the pure-draw
            // distribution is measured.
        }
        // Strictly decreasing over the first distances and heavily
        // front-loaded overall.
        assert!(hist[1] > hist[2] && hist[2] > hist[3] && hist[3] > hist[4], "{hist:?}");
        let near: u64 = hist[1..=3].iter().sum();
        assert!(
            near as f64 > 0.55 * 30_000.0,
            "d<=3 should dominate under the geometric bias: {hist:?}"
        );
    }

    #[test]
    fn custom_probs_shift_the_distance_distribution() {
        // The tunable bias: a higher continuation probability must push
        // draws to larger ring distances, and default-valued with_probs
        // must reproduce new() exactly (same RNG consumption).
        let (me, n) = (0usize, 32usize);
        let mean_d = |cont: f64| {
            let mut r = rng();
            let sel = VictimSelector::with_probs(VictimPolicy::Locality, cont, 0.05);
            let mut sum = 0usize;
            for _ in 0..20_000 {
                sum += ring(me, sel.biased(&mut r, me, n), n);
            }
            sum as f64 / 20_000.0
        };
        assert!(
            mean_d(0.9) > mean_d(0.3) + 1.0,
            "cont=0.9 should walk much farther than cont=0.3"
        );

        let mut a = rng();
        let mut b = rng();
        let mut def = VictimSelector::new(VictimPolicy::Locality);
        let mut exp = VictimSelector::with_probs(VictimPolicy::Locality, CONT_P, ESCAPE_P);
        for _ in 0..500 {
            assert_eq!(def.next(&mut a, 3, 16), exp.next(&mut b, 3, 16));
        }
    }

    #[test]
    fn locality_retries_last_successful_victim() {
        let mut r = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Locality);
        let v = sel.next(&mut r, 0, 8);
        sel.note_result(v, true);
        // Cached victim is retried without consulting the RNG.
        for _ in 0..5 {
            assert_eq!(sel.next(&mut r, 0, 8), v);
        }
        // A failure on the cached victim clears the cache.
        sel.note_result(v, false);
        assert_eq!(sel.cached(), None);
    }

    #[test]
    fn failure_on_other_victim_keeps_cache() {
        let mut sel = VictimSelector::new(VictimPolicy::Locality);
        sel.note_result(3, true);
        sel.note_result(5, false);
        assert_eq!(sel.cached(), Some(3));
    }

    #[test]
    fn negative_cache_avoids_recently_empty_victims() {
        // 4 ranks, thief 0: mask both near neighbours (1 and 3); while the
        // mask is live, draws land on rank 2 essentially always (the
        // redraw budget makes a masked return vanishingly rare).
        let mut r = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Locality);
        sel.note_result(1, false);
        sel.note_result(3, false);
        let picks: Vec<usize> = (0..8).map(|_| sel.next(&mut r, 0, 4)).collect();
        assert!(
            picks.iter().filter(|&&v| v == 2).count() >= 7,
            "masked neighbours should be skipped: {picks:?}"
        );
    }

    #[test]
    fn negative_cache_expires_after_ttl() {
        let mut r = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Locality);
        // On a 2-ring the only victim is rank 0; masking it cannot stop
        // draws (the mask is advisory), and after EMPTY_TTL draws the
        // entry has expired outright.
        sel.note_result(0, false);
        for _ in 0..EMPTY_TTL + 1 {
            assert_eq!(sel.next(&mut r, 1, 2), 0);
        }
        assert!(sel.empty_until[0] <= sel.clock, "mask should have expired");
    }

    #[test]
    fn success_clears_negative_cache_entry() {
        let mut sel = VictimSelector::new(VictimPolicy::Locality);
        sel.note_result(2, false);
        assert!(sel.empty_until[2] > sel.clock);
        sel.note_result(2, true);
        assert_eq!(sel.empty_until[2], 0);
    }

    #[test]
    fn uniform_policy_ignores_negative_cache() {
        // Uniform must stay byte-identical to the historical draw even
        // when failures are reported: note_result must not grow state
        // that changes the draw path.
        let (me, n) = (2usize, 8usize);
        let mut a = rng();
        let mut b = rng();
        let mut sel = VictimSelector::new(VictimPolicy::Uniform);
        for _ in 0..500 {
            let expect = {
                let mut v = a.gen_range(0..n - 1);
                if v >= me {
                    v += 1;
                }
                v
            };
            let v = sel.next(&mut b, me, n);
            assert_eq!(v, expect);
            sel.note_result(v, false);
        }
    }

    #[test]
    fn same_seed_gives_identical_victim_sequences() {
        for policy in [VictimPolicy::Uniform, VictimPolicy::Locality] {
            let draw = || {
                let mut r = Rng::stream(42, 7);
                let mut sel = VictimSelector::new(policy);
                (0..200)
                    .map(|i| {
                        let v = sel.next(&mut r, 7, 32);
                        // Exercise the cache path deterministically too.
                        sel.note_result(v, i % 5 == 0);
                        v
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(draw(), draw(), "{policy:?}");
        }
    }

    #[test]
    fn two_rank_ring_always_picks_the_peer() {
        let mut r = rng();
        for policy in [VictimPolicy::Uniform, VictimPolicy::Locality] {
            let mut sel = VictimSelector::new(policy);
            for _ in 0..50 {
                assert_eq!(sel.next(&mut r, 1, 2), 0);
            }
        }
    }
}
