//! Analytic integrals over normalized s-type Gaussian primitives.
//!
//! For s-gaussians every integral has a closed form built from Gaussian
//! product factors and the Boys function
//! `F0(x) = ½ √(π/x) · erf(√x)`; see Szabo & Ostlund, appendix A.

use crate::basis::{dist2, BasisSet, SGaussian};

/// Error function via Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7) — enough
/// for the 1e-8-hartree energy agreement the tests demand, since F0 is
/// smooth and errors cancel in SCF convergence checks.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Boys function of order zero.
///
/// Below 1/8 the Taylor series `Σ (−x)^k / (k!·(2k+1))` through x⁶
/// (truncation ≤ 7e-12): dividing the erf's *absolute* error by `√x`
/// makes the closed form useless near zero (F0(1e-12) came out 1.00089).
/// At the switch the erf form is within 8e-9 of the series — far inside
/// its own 3e-7 — so F0 stays monotone across it.
pub fn boys_f0(x: f64) -> f64 {
    if x < 0.125 {
        const C: [f64; 7] = [
            1.0,
            -1.0 / 3.0,
            1.0 / 10.0,
            -1.0 / 42.0,
            1.0 / 216.0,
            -1.0 / 1320.0,
            1.0 / 9360.0,
        ];
        C.iter().rev().fold(0.0, |acc, c| acc * x + c)
    } else {
        0.5 * (std::f64::consts::PI / x).sqrt() * erf(x.sqrt())
    }
}

/// Normalization constant of an s-gaussian: (2α/π)^(3/4).
fn norm(alpha: f64) -> f64 {
    (2.0 * alpha / std::f64::consts::PI).powf(0.75)
}

/// The Gaussian product of two s primitives — everything an integral
/// needs that depends on one *pair* of functions. This is the only place
/// a product is formed; every integral below reads one.
///
/// An ERI reads eight of the ten words (all but `mu` and `r2`): one
/// 64-byte line's worth per pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// Exponent sum `p = α_a + α_b`.
    p: f64,
    /// Product centre `(α_a·A + α_b·B) / p`.
    center: [f64; 3],
    /// Pair prefactor `exp(−μ|A−B|²)`.
    e: f64,
    /// Norms of the two primitives and their product `n_a·n_b`.
    na: f64,
    nb: f64,
    nab: f64,
    /// Reduced exponent `μ = α_a·α_b / p`.
    mu: f64,
    /// Squared centre distance `|A−B|²`.
    r2: f64,
}

impl Pair {
    /// Form the product of `a` and `b`.
    pub fn new(a: &SGaussian, b: &SGaussian) -> Pair {
        let p = a.alpha + b.alpha;
        let mu = a.alpha * b.alpha / p;
        let r2 = dist2(a.center, b.center);
        let (na, nb) = (norm(a.alpha), norm(b.alpha));
        Pair {
            p,
            center: [
                (a.alpha * a.center[0] + b.alpha * b.center[0]) / p,
                (a.alpha * a.center[1] + b.alpha * b.center[1]) / p,
                (a.alpha * a.center[2] + b.alpha * b.center[2]) / p,
            ],
            e: (-mu * r2).exp(),
            na,
            nb,
            nab: na * nb,
            mu,
            r2,
        }
    }
}

// Association order is part of the contract: every product below is
// multiplied left to right exactly as written, so results are the same
// bits whether a `Pair` is fresh or came out of a `PairTable`, and
// Schwarz screening — hence every task list and virtual-time figure —
// cannot move with a refactor. `integral_bits_match_the_closed_forms`
// holds the line.

/// Overlap integral ⟨a|b⟩ (normalized primitives).
pub fn overlap(ab: &Pair) -> f64 {
    ab.nab * (std::f64::consts::PI / ab.p).powf(1.5) * ab.e
}

/// Kinetic-energy integral ⟨a|−½∇²|b⟩.
pub fn kinetic(ab: &Pair) -> f64 {
    ab.mu * (3.0 - 2.0 * ab.mu * ab.r2) * overlap(ab)
}

/// Nuclear-attraction integral ⟨a| −Z/|r−C| |b⟩ for one nucleus.
pub fn nuclear(ab: &Pair, z: f64, c: [f64; 3]) -> f64 {
    // Starts `−z·n_a`, so the cached `n_a·n_b` cannot stand in here.
    -z * ab.na * ab.nb * 2.0 * std::f64::consts::PI / ab.p
        * ab.e
        * boys_f0(ab.p * dist2(ab.center, c))
}

/// Two-electron repulsion integral (ab|cd) in chemists' notation, from
/// the two products.
#[inline]
pub fn eri_pairs(ab: &Pair, cd: &Pair) -> f64 {
    let (p, q) = (ab.p, cd.p);
    let rho = p * q / (p + q);
    ab.nab * cd.na * cd.nb * 2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt())
        * ab.e
        * cd.e
        * boys_f0(rho * dist2(ab.center, cd.center))
}

/// Two-electron repulsion integral (ab|cd) from the four primitives.
pub fn eri(a: &SGaussian, b: &SGaussian, c: &SGaussian, d: &SGaussian) -> f64 {
    eri_pairs(&Pair::new(a, b), &Pair::new(c, d))
}

/// Every ordered pair of a basis, formed once, plus the Cauchy–Schwarz
/// factors: what a Fock build reads instead of re-deriving two Gaussian
/// products per ERI (n² pairs against n⁴ quartets).
#[derive(Debug)]
pub struct PairTable {
    n: usize,
    pairs: Vec<Pair>,
    schwarz: Vec<f64>,
}

impl PairTable {
    /// Build the table for `basis`.
    pub fn new(basis: &BasisSet) -> PairTable {
        let n = basis.len();
        let pairs: Vec<Pair> = basis
            .funcs
            .iter()
            .flat_map(|a| basis.funcs.iter().map(move |b| Pair::new(a, b)))
            .collect();
        let schwarz = pairs
            .iter()
            .map(|ab| eri_pairs(ab, ab).max(0.0).sqrt())
            .collect();
        PairTable { n, pairs, schwarz }
    }

    /// Number of basis functions.
    pub fn n(&self) -> usize {
        self.n
    }

    /// (ij|kl) by basis-function index.
    #[inline]
    pub fn eri(&self, i: usize, j: usize, k: usize, l: usize) -> f64 {
        eri_pairs(&self.pairs[i * self.n + j], &self.pairs[k * self.n + l])
    }

    /// Cauchy–Schwarz factors `√(ij|ij)`, row-major n × n; the bound
    /// `|(ij|kl)| ≤ √(ij|ij)·√(kl|kl)` drives screening.
    pub fn schwarz(&self) -> &[f64] {
        &self.schwarz
    }
}

/// Core Hamiltonian: kinetic + nuclear attraction over the whole basis.
pub fn core_hamiltonian(basis: &BasisSet) -> Vec<f64> {
    let n = basis.len();
    let mut h = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let ij = Pair::new(&basis.funcs[i], &basis.funcs[j]);
            let mut v = kinetic(&ij);
            for atom in &basis.molecule.atoms {
                v += nuclear(&ij, atom.z, atom.pos);
            }
            h[i * n + j] = v;
        }
    }
    h
}

/// Overlap matrix over the whole basis.
pub fn overlap_matrix(basis: &BasisSet) -> Vec<f64> {
    let n = basis.len();
    let mut s = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            s[i * n + j] = overlap(&Pair::new(&basis.funcs[i], &basis.funcs[j]));
        }
    }
    s
}

/// The closed forms as they stood before `Pair`: every factor rebuilt from
/// the primitives on every call. Kept only as the oracle the bitwise test
/// compares against.
#[cfg(test)]
mod reference {
    use super::{boys_f0, norm};
    use crate::basis::{dist2, SGaussian};

    pub fn overlap(a: &SGaussian, b: &SGaussian) -> f64 {
        let p = a.alpha + b.alpha;
        let mu = a.alpha * b.alpha / p;
        norm(a.alpha)
            * norm(b.alpha)
            * (std::f64::consts::PI / p).powf(1.5)
            * (-mu * dist2(a.center, b.center)).exp()
    }

    pub fn kinetic(a: &SGaussian, b: &SGaussian) -> f64 {
        let p = a.alpha + b.alpha;
        let mu = a.alpha * b.alpha / p;
        let r2 = dist2(a.center, b.center);
        mu * (3.0 - 2.0 * mu * r2) * overlap(a, b)
    }

    pub fn nuclear(a: &SGaussian, b: &SGaussian, z: f64, c: [f64; 3]) -> f64 {
        let p = a.alpha + b.alpha;
        let mu = a.alpha * b.alpha / p;
        let r2 = dist2(a.center, b.center);
        let px = [
            (a.alpha * a.center[0] + b.alpha * b.center[0]) / p,
            (a.alpha * a.center[1] + b.alpha * b.center[1]) / p,
            (a.alpha * a.center[2] + b.alpha * b.center[2]) / p,
        ];
        -z * norm(a.alpha) * norm(b.alpha) * 2.0 * std::f64::consts::PI / p
            * (-mu * r2).exp()
            * boys_f0(p * dist2(px, c))
    }

    pub fn eri(a: &SGaussian, b: &SGaussian, c: &SGaussian, d: &SGaussian) -> f64 {
        let p = a.alpha + b.alpha;
        let q = c.alpha + d.alpha;
        let mu = a.alpha * b.alpha / p;
        let nu = c.alpha * d.alpha / q;
        let pab = [
            (a.alpha * a.center[0] + b.alpha * b.center[0]) / p,
            (a.alpha * a.center[1] + b.alpha * b.center[1]) / p,
            (a.alpha * a.center[2] + b.alpha * b.center[2]) / p,
        ];
        let qcd = [
            (c.alpha * c.center[0] + d.alpha * d.center[0]) / q,
            (c.alpha * c.center[1] + d.alpha * d.center[1]) / q,
            (c.alpha * c.center[2] + d.alpha * d.center[2]) / q,
        ];
        let rho = p * q / (p + q);
        norm(a.alpha)
            * norm(b.alpha)
            * norm(c.alpha)
            * norm(d.alpha)
            * 2.0
            * std::f64::consts::PI.powf(2.5)
            / (p * q * (p + q).sqrt())
            * (-mu * dist2(a.center, b.center)).exp()
            * (-nu * dist2(c.center, d.center)).exp()
            * boys_f0(rho * dist2(pab, qcd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Molecule;
    use scioto_det::Rng;

    fn g(alpha: f64, x: f64) -> SGaussian {
        SGaussian {
            alpha,
            center: [x, 0.0, 0.0],
        }
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_27).abs() < 2e-7);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 2e-7);
        assert!((erf(5.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn boys_limits() {
        assert!((boys_f0(0.0) - 1.0).abs() < 1e-9);
        // Large-x asymptote: F0(x) → ½√(π/x).
        let x = 50.0;
        let asym = 0.5 * (std::f64::consts::PI / x).sqrt();
        assert!((boys_f0(x) - asym).abs() < 1e-9);
    }

    /// F0 with no libm and no cancellation:
    /// `e^{-x} Σ (2x)^k/(2k+1)!!`, with `e^x` as its own power series —
    /// both sums have positive terms only.
    fn boys_f0_series(x: f64) -> f64 {
        let (mut num, mut den) = (0.0, 0.0);
        let (mut tn, mut td) = (1.0, 1.0);
        for k in 0..400 {
            num += tn;
            den += td;
            tn *= 2.0 * x / (2 * k + 3) as f64;
            td *= x / (k + 1) as f64;
        }
        num / den
    }

    #[test]
    fn boys_f0_tracks_the_series_on_a_log_grid() {
        assert_eq!(boys_f0(0.0), 1.0);
        let steps = 4000;
        let (lo, hi) = (1e-14f64.ln(), 60f64.ln());
        let mut prev = 1.0;
        for s in 0..=steps {
            let x = (lo + (hi - lo) * s as f64 / steps as f64).exp();
            let (got, want) = (boys_f0(x), boys_f0_series(x));
            assert!(
                (got / want - 1.0).abs() <= 5e-7,
                "F0({x:e}) = {got}, series {want}"
            );
            assert!(got <= prev, "F0({x:e}) = {got} rises above {prev}");
            prev = got;
        }
    }

    #[test]
    fn normalized_self_overlap_is_one() {
        for alpha in [0.1, 1.0, 7.5] {
            let a = g(alpha, 0.3);
            assert!(
                (overlap(&Pair::new(&a, &a)) - 1.0).abs() < 1e-12,
                "alpha={alpha}"
            );
        }
    }

    #[test]
    fn overlap_decays_with_distance() {
        let a = g(1.0, 0.0);
        let near = overlap(&Pair::new(&a, &g(1.0, 0.5)));
        let far = overlap(&Pair::new(&a, &g(1.0, 3.0)));
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn kinetic_self_value() {
        // ⟨a|-½∇²|a⟩ = 3α/2 for a normalized s-gaussian.
        let a = g(0.8, 0.0);
        assert!((kinetic(&Pair::new(&a, &a)) - 1.5 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn eri_same_center_analytic() {
        // (aa|aa) with all exponents α at one center:
        // = √(2/π) · √α · 2/√π · Γ... known closed form: (aa|aa) = √(2α/π)·2/√π?
        // Use the standard result (ss|ss) = √(2/π)·√α·(2/√π)… rather than
        // rederive, check against an independent numeric identity:
        // (aa|aa) = 2√(α/(2π)) · 2/√π? — instead verify via scaling law:
        // ERI scales as √α when all exponents scale together.
        let e1 = eri(&g(1.0, 0.0), &g(1.0, 0.0), &g(1.0, 0.0), &g(1.0, 0.0));
        let e4 = eri(&g(4.0, 0.0), &g(4.0, 0.0), &g(4.0, 0.0), &g(4.0, 0.0));
        assert!((e4 / e1 - 2.0).abs() < 1e-9, "ERI must scale as sqrt(alpha)");
        // And H2-like positivity/symmetry.
        assert!(e1 > 0.0);
    }

    #[test]
    fn eri_eightfold_symmetry() {
        let (a, b, c, d) = (g(0.5, 0.0), g(1.3, 1.0), g(0.9, 2.0), g(2.1, 0.5));
        let base = eri(&a, &b, &c, &d);
        for perm in [
            eri(&b, &a, &c, &d),
            eri(&a, &b, &d, &c),
            eri(&b, &a, &d, &c),
            eri(&c, &d, &a, &b),
            eri(&d, &c, &a, &b),
            eri(&c, &d, &b, &a),
            eri(&d, &c, &b, &a),
        ] {
            assert!((perm - base).abs() < 1e-12);
        }
    }

    #[test]
    fn schwarz_bound_holds() {
        let basis = crate::basis::BasisSet::even_tempered(Molecule::h_chain(3), 2, 0.4, 4.0);
        let table = PairTable::new(&basis);
        let q = table.schwarz();
        let n = basis.len();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    for l in 0..n {
                        let v = table.eri(i, j, k, l);
                        let bound = q[i * n + j] * q[k * n + l];
                        assert!(
                            v.abs() <= bound + 1e-10,
                            "({i}{j}|{k}{l}) = {v} exceeds bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nuclear_attraction_is_negative_on_center() {
        let a = g(1.0, 0.0);
        let v = nuclear(&Pair::new(&a, &a), 1.0, [0.0, 0.0, 0.0]);
        assert!(v < 0.0);
        // ⟨a|-1/r|a⟩ = -2√(α/… ) known: -2·√(2α/π). For α=1: -1.59577.
        assert!((v + 2.0 * (2.0 / std::f64::consts::PI).sqrt()).abs() < 1e-7);
    }

    /// Bitwise agreement of every `Pair`-based integral with its closed
    /// form, on one tuple of primitives.
    fn assert_same_bits(f: [&SGaussian; 4], z: f64, nucleus: [f64; 3]) {
        let [a, b, c, d] = f;
        let (ab, cd) = (Pair::new(a, b), Pair::new(c, d));
        let want = reference::eri(a, b, c, d).to_bits();
        assert_eq!(eri_pairs(&ab, &cd).to_bits(), want, "eri_pairs {f:?}");
        assert_eq!(eri(a, b, c, d).to_bits(), want, "eri {f:?}");
        assert_eq!(
            overlap(&ab).to_bits(),
            reference::overlap(a, b).to_bits(),
            "overlap {a:?} {b:?}"
        );
        assert_eq!(
            kinetic(&ab).to_bits(),
            reference::kinetic(a, b).to_bits(),
            "kinetic {a:?} {b:?}"
        );
        assert_eq!(
            nuclear(&ab, z, nucleus).to_bits(),
            reference::nuclear(a, b, z, nucleus).to_bits(),
            "nuclear {a:?} {b:?} z={z} at {nucleus:?}"
        );
    }

    #[test]
    fn integral_bits_match_the_closed_forms() {
        // Every quartet of a small even-tempered basis, through the table.
        let basis = BasisSet::even_tempered(Molecule::h_chain(5), 2, 0.4, 3.5);
        let table = PairTable::new(&basis);
        let (n, f) = (basis.len(), &basis.funcs);
        for i in 0..n {
            for j in 0..n {
                let schwarz = reference::eri(&f[i], &f[j], &f[i], &f[j]).max(0.0).sqrt();
                assert_eq!(table.schwarz()[i * n + j].to_bits(), schwarz.to_bits());
                for k in 0..n {
                    for l in 0..n {
                        let want = reference::eri(&f[i], &f[j], &f[k], &f[l]).to_bits();
                        assert_eq!(table.eri(i, j, k, l).to_bits(), want, "({i}{j}|{k}{l})");
                        let atom = basis.molecule.atoms[(i + l) % 5];
                        assert_same_bits([&f[i], &f[j], &f[k], &f[l]], atom.z, atom.pos);
                    }
                }
            }
        }

        // Seeded random quartets: exponents 1e-2…1e3; centres from a pool
        // with repeats, so products coincide (Boys argument exactly 0) and
        // far-apart pairs underflow `exp` to 0.
        let mut rng = Rng::seed_from_u64(21);
        let centre = |rng: &mut Rng| match rng.gen_below(4) {
            0 => [0.0; 3],
            1 => [40.0, -35.0, 50.0],
            _ => [
                rng.gen_f64() * 6.0 - 3.0,
                rng.gen_f64() * 6.0 - 3.0,
                rng.gen_f64() * 6.0 - 3.0,
            ],
        };
        let (mut coincident, mut underflow) = (0, 0);
        for _ in 0..20_000 {
            let mut g: [SGaussian; 4] = std::array::from_fn(|_| SGaussian {
                alpha: 10f64.powf(rng.gen_f64() * 5.0 - 2.0),
                center: centre(&mut rng),
            });
            if rng.gen_below(8) == 0 {
                (g[2], g[3]) = (g[0], g[1]);
            }
            let [a, b, c, d] = &g;
            let (ab, cd) = (Pair::new(a, b), Pair::new(c, d));
            coincident += usize::from(dist2(ab.center, cd.center) == 0.0);
            underflow += usize::from(ab.e == 0.0 || cd.e == 0.0);
            let z = [1.0, 3.0, 0.5, 26.0][rng.gen_below(4) as usize];
            assert_same_bits([a, b, c, d], z, centre(&mut rng));
        }
        assert!(
            coincident > 1_000 && underflow > 1_000,
            "{coincident} coincident, {underflow} underflow cases"
        );
    }
}
