//! The sequential closed-shell SCF reference implementation.
//!
//! Restricted Hartree–Fock by Roothaan iteration: orthogonalize with
//! S^(-1/2), diagonalize the transformed Fock matrix, build the density
//! from the lowest `n_occ` orbitals, damp, repeat. The parallel drivers
//! must converge to the same energy.

use crate::basis::BasisSet;
use crate::integrals::{core_hamiltonian, overlap_matrix, PairTable};
use crate::linalg::{jacobi_eigen, mat_mul, transpose};

/// SCF iteration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScfConfig {
    /// Maximum Roothaan iterations.
    pub max_iters: usize,
    /// Convergence threshold on |ΔE| (hartree).
    pub tol: f64,
    /// Density damping factor (0 = no damping).
    pub damping: f64,
    /// Schwarz screening threshold: integral batches bounded below this
    /// are skipped.
    pub screen_tol: f64,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            max_iters: 50,
            tol: 1e-10,
            damping: 0.2,
            screen_tol: 1e-10,
        }
    }
}

/// Result of an SCF calculation.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Total energy (electronic + nuclear repulsion), hartree.
    pub energy: f64,
    /// Electronic energy only.
    pub electronic_energy: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether |ΔE| dropped below tolerance.
    pub converged: bool,
    /// Final density matrix.
    pub density: Vec<f64>,
}

/// Build the closed-shell density matrix `D = C_occ C_occᵀ` from the
/// orbital coefficients (columns of `c`), taking the lowest `n_occ`
/// orbitals.
pub fn density_from_orbitals(c: &[f64], n: usize, n_occ: usize) -> Vec<f64> {
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut v = 0.0;
            for k in 0..n_occ {
                v += c[i * n + k] * c[j * n + k];
            }
            d[i * n + j] = v;
        }
    }
    d
}

/// Build the two-electron part of the Fock matrix from the density:
/// `G_ij = Σ_kl D_kl [2 (ij|kl) − (ik|jl)]`, with Schwarz screening.
pub fn g_matrix(table: &PairTable, density: &[f64], screen_tol: f64) -> Vec<f64> {
    let n = table.n();
    let q = table.schwarz();
    let dmax = density.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);
    let mut g = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut v = 0.0;
            for k in 0..n {
                for l in 0..n {
                    // Coulomb term 2 (ij|kl) D_kl.
                    if q[i * n + j] * q[k * n + l] * dmax > screen_tol {
                        v += 2.0 * density[k * n + l] * table.eri(i, j, k, l);
                    }
                    // Exchange term −(ik|jl) D_kl.
                    if q[i * n + k] * q[j * n + l] * dmax > screen_tol {
                        v -= density[k * n + l] * table.eri(i, k, j, l);
                    }
                }
            }
            g[i * n + j] = v;
        }
    }
    g
}

/// Electronic energy `Σ_ij D_ij (H_ij + F_ij)`.
pub fn electronic_energy(density: &[f64], hcore: &[f64], fock: &[f64]) -> f64 {
    density
        .iter()
        .zip(hcore.iter().zip(fock.iter()))
        .map(|(d, (h, f))| d * (h + f))
        .sum()
}

/// One Roothaan step: orthogonalize F, diagonalize, build the new density.
pub fn roothaan_step(fock: &[f64], x: &[f64], n: usize, n_occ: usize) -> Vec<f64> {
    // F' = Xᵀ F X (X = S^(-1/2), symmetric).
    let fp = mat_mul(&mat_mul(&transpose(x, n), fock, n), x, n);
    let (_, cp) = jacobi_eigen(&fp, n);
    // C = X C'.
    let c = mat_mul(x, &cp, n);
    density_from_orbitals(&c, n, n_occ)
}

/// Mulliken population analysis: the electron population assigned to
/// each basis function, `q_i = 2 (D S)_ii` (closed shell). Populations sum
/// to the electron count — a standard sanity check on a converged density.
pub fn mulliken_populations(basis: &BasisSet, density: &[f64]) -> Vec<f64> {
    let n = basis.len();
    let s = overlap_matrix(basis);
    let ds = mat_mul(density, &s, n);
    (0..n).map(|i| 2.0 * ds[i * n + i]).collect()
}

/// Number of doubly occupied orbitals of `basis`'s molecule — the input
/// check both SCF drivers open with.
///
/// # Panics
/// Panics on an odd electron count, or when the basis has fewer functions
/// than there are electron pairs to place.
pub(crate) fn closed_shell_occupation(basis: &BasisSet) -> usize {
    let n_elec = basis.molecule.n_electrons();
    assert!(n_elec.is_multiple_of(2), "closed-shell SCF needs an even electron count");
    let n_occ = n_elec / 2;
    assert!(n_occ <= basis.len(), "basis too small for the electron count");
    n_occ
}

/// Run the sequential SCF to convergence.
pub fn scf_sequential(basis: &BasisSet, cfg: &ScfConfig) -> ScfResult {
    let n = basis.len();
    let n_occ = closed_shell_occupation(basis);

    let s = overlap_matrix(basis);
    let x = crate::linalg::inv_sqrt_spd(&s, n);
    let hcore = core_hamiltonian(basis);
    let e_nuc = basis.molecule.nuclear_repulsion();
    let table = PairTable::new(basis);

    // Initial guess: core Hamiltonian.
    let mut density = roothaan_step(&hcore, &x, n, n_occ);
    let mut energy = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for it in 0..cfg.max_iters {
        iterations = it + 1;
        let g = g_matrix(&table, &density, cfg.screen_tol);
        let fock: Vec<f64> = hcore.iter().zip(g.iter()).map(|(h, gg)| h + gg).collect();
        let e_elec = electronic_energy(&density, &hcore, &fock);
        let e_tot = e_elec + e_nuc;
        if (e_tot - energy).abs() < cfg.tol {
            energy = e_tot;
            converged = true;
            break;
        }
        energy = e_tot;
        let new_d = roothaan_step(&fock, &x, n, n_occ);
        // Damped density update for stability.
        for (d, nd) in density.iter_mut().zip(new_d.iter()) {
            *d = cfg.damping * *d + (1.0 - cfg.damping) * nd;
        }
    }
    let e_elec = energy - e_nuc;
    ScfResult {
        energy,
        electronic_energy: e_elec,
        iterations,
        converged,
        density,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, Molecule};

    fn h2_basis() -> BasisSet {
        // H2 at 1.4 bohr with a 2-primitive even-tempered s basis.
        let m = Molecule {
            atoms: vec![
                crate::basis::Atom {
                    z: 1.0,
                    pos: [0.0, 0.0, 0.0],
                },
                crate::basis::Atom {
                    z: 1.0,
                    pos: [1.4, 0.0, 0.0],
                },
            ],
        };
        BasisSet::even_tempered(m, 2, 0.35, 4.0)
    }

    #[test]
    fn h2_energy_is_physical() {
        let r = scf_sequential(&h2_basis(), &ScfConfig::default());
        assert!(r.converged, "SCF did not converge: {r:?}");
        // RHF/H2 with a small s basis lands near -1.1 hartree (exact
        // RHF/STO-3G is -1.117); our 2-primitive even-tempered basis must
        // be bound and in the right region.
        assert!(
            r.energy < -0.8 && r.energy > -1.3,
            "H2 energy {} out of physical range",
            r.energy
        );
    }

    #[test]
    fn energy_is_variational_in_basis_size() {
        // A bigger basis must give a lower (better) energy.
        let m = Molecule::h_chain(2);
        let small = BasisSet::even_tempered(m.clone(), 1, 1.0, 3.0);
        let large = BasisSet::even_tempered(m, 3, 0.3, 3.5);
        let e_small = scf_sequential(&small, &ScfConfig::default()).energy;
        let e_large = scf_sequential(&large, &ScfConfig::default()).energy;
        assert!(
            e_large < e_small,
            "variational principle violated: {e_large} vs {e_small}"
        );
    }

    #[test]
    fn density_trace_counts_electron_pairs() {
        let basis = h2_basis();
        let r = scf_sequential(&basis, &ScfConfig::default());
        // Tr(D S) = number of occupied orbitals (electron pairs).
        let s = crate::integrals::overlap_matrix(&basis);
        let n = basis.len();
        let ds = crate::linalg::mat_mul(&r.density, &s, n);
        let trace: f64 = (0..n).map(|i| ds[i * n + i]).sum();
        assert!((trace - 1.0).abs() < 1e-8, "Tr(DS) = {trace}");
    }

    #[test]
    fn mulliken_populations_sum_to_electron_count() {
        let basis = h2_basis();
        let r = scf_sequential(&basis, &ScfConfig::default());
        let pops = mulliken_populations(&basis, &r.density);
        let total: f64 = pops.iter().sum();
        assert!(
            (total - 2.0).abs() < 1e-8,
            "H2 populations must sum to 2 electrons, got {total}"
        );
        // Symmetric molecule, symmetric basis: the two atoms carry equal
        // charge (functions 0,1 on atom A; 2,3 on atom B).
        let qa = pops[0] + pops[1];
        let qb = pops[2] + pops[3];
        assert!((qa - qb).abs() < 1e-8, "asymmetric populations: {pops:?}");
    }

    #[test]
    fn screening_does_not_change_energy() {
        let basis = h2_basis();
        let loose = scf_sequential(
            &basis,
            &ScfConfig {
                screen_tol: 1e-9,
                ..Default::default()
            },
        );
        let none = scf_sequential(
            &basis,
            &ScfConfig {
                screen_tol: 0.0,
                ..Default::default()
            },
        );
        assert!((loose.energy - none.energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "basis too small for the electron count")]
    fn a_basis_too_small_for_the_electrons_is_rejected() {
        let mut basis = BasisSet::even_tempered(Molecule::h_chain(4), 1, 0.4, 3.5);
        basis.funcs.truncate(1);
        scf_sequential(&basis, &ScfConfig::default());
    }
}
