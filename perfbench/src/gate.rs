//! The independent correctness gate.  An energy passes only if
//!
//! * (a) every returned eigenvalue's QEP residual, recomputed here from the
//!   CSR blocks, is below [`Tolerances::residual`];
//! * (b) the eigenvalues inside the annulus are closed under `λ → 1/λ̄`
//!   (true for any Hermitian `H₀₀`);
//! * (c) the Hankel numerical rank stayed below the subspace size
//!   `n_mm · n_rh` (a full-rank subspace can silently drop eigenvalues);
//! * (d) the number of propagating channels equals twice the number of
//!   band crossings of a conventional real-`k` reference.
//!
//! The solver's own `residual` and `propagating` fields are not used.

use std::hash::{DefaultHasher, Hash as _, Hasher as _};
use std::path::Path;

use cbs_linalg::{CMatrix, CVector, Complex64, LuDecomposition};
use cbs_solver::{lanczos_lowest, LanczosOptions};
use cbs_sparse::CsrMatrix;
use rand::SeedableRng as _;

/// Gate tolerances, set about 100x above the agreement measured at the
/// seed: recomputed residuals stay below 5e-9 Ha, `|λ|` of propagating
/// states is within 3e-8 of 1 (evanescent ones are more than 0.1 away), and
/// `1/λ̄` partners agree to 6e-8.  A 1e-3 error in one `λ` lifts its
/// residual above [`Tolerances::residual`] (see the tests).
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Bound on `‖T(λ)ψ‖/‖ψ‖` (hartree).
    pub residual: f64,
    /// Bound on `|μ − 1/λ̄| / |1/λ̄|` for the partner `μ` of an interior `λ`.
    pub pair: f64,
    /// `λ` is propagating when `||λ| − 1|` is below this.
    pub propagating: f64,
    /// `λ` is interior when `|ln|λ|| ≤ interior · |ln λ_min|`: eigenvalues
    /// close to the contour are resolved less sharply, so their partners
    /// may fall just outside the annulus and be dropped.
    pub interior: f64,
}

impl Tolerances {
    /// The tolerances every workload is gated with.
    pub const DEFAULT: Tolerances =
        Tolerances { residual: 1e-6, pair: 1e-5, propagating: 1e-6, interior: 0.9 };
}

/// What the solver returned at one energy, with the residuals this module
/// recomputed for it.
pub struct EnergyResult {
    /// The scan energy (hartree).
    pub energy: f64,
    /// Returned eigenvalues `λ = e^{ika}`.
    pub lambdas: Vec<Complex64>,
    /// Recomputed residual of each eigenvalue (same order).
    pub residuals: Vec<f64>,
    /// Numerical rank the solver selected.
    pub numerical_rank: usize,
}

impl EnergyResult {
    /// Propagating channels by the gate's own `|λ| = 1` test.
    pub fn channels(&self, tol: &Tolerances) -> usize {
        self.lambdas.iter().filter(|l| (l.abs() - 1.0).abs() < tol.propagating).count()
    }
}

/// Every reason the energy fails the gate (empty when it passes).
pub fn judge(
    r: &EnergyResult,
    subspace: usize,
    lambda_min: f64,
    reference_channels: usize,
    tol: &Tolerances,
) -> Vec<String> {
    let mut reasons = Vec::new();
    for (l, &res) in r.lambdas.iter().zip(&r.residuals) {
        if res.is_nan() || res > tol.residual {
            reasons.push(format!("(a) residual {res:.3e} of lambda {l:?}"));
        }
    }
    let edge = lambda_min.ln().abs();
    for l in &r.lambdas {
        if l.abs().ln().abs() > tol.interior * edge {
            continue;
        }
        let partner = l.conj().inv();
        let found = r.lambdas.iter().any(|m| (*m - partner).abs() <= tol.pair * partner.abs());
        if !found {
            reasons.push(format!("(b) no 1/conj partner of lambda {l:?}"));
        }
    }
    if r.numerical_rank >= subspace {
        reasons.push(format!("(c) rank {} fills the subspace {subspace}", r.numerical_rank));
    }
    let channels = r.channels(tol);
    if channels != reference_channels {
        reasons.push(format!("(d) {channels} channels, reference has {reference_channels}"));
    }
    reasons
}

/// The matrix `T(λ) = H₀₀ − E + λ H₀₁ + λ⁻¹ H₀₁†` densely, for blocks small
/// enough to factor (the Al(100) cell).
pub struct DenseQep {
    h00: CMatrix,
    h01: CMatrix,
}

impl DenseQep {
    /// Densify the CSR blocks.
    pub fn new(h00: &CsrMatrix, h01: &CsrMatrix) -> Self {
        Self { h00: h00.to_dense(), h01: h01.to_dense() }
    }

    /// `‖T(λ)x‖` for the unit vector `x` that two steps of inverse iteration
    /// find.  It is never below the smallest singular value of `T(λ)`, so a
    /// `λ` that is not an eigenvalue cannot pass, and it is at round-off
    /// level for an exact one.  The solver's eigenvectors are not needed.
    pub fn residual(&self, energy: f64, lambda: Complex64) -> f64 {
        let n = self.h00.nrows();
        let inv = lambda.inv();
        let t = CMatrix::from_fn(n, n, |i, j| {
            let mut v =
                self.h00[(i, j)] + lambda * self.h01[(i, j)] + inv * self.h01[(j, i)].conj();
            if i == j {
                v -= Complex64::real(energy);
            }
            v
        });
        let Ok(lu) = LuDecomposition::new(&t) else {
            // An exactly singular T(λ): λ is an eigenvalue.
            return 0.0;
        };
        let mut x = CVector::from_vec((0..n).map(|i| Complex64::cis(0.7 * i as f64)).collect());
        for _ in 0..2 {
            let y = lu.solve(&x);
            let norm = y.norm();
            if !(norm.is_finite() && norm > 0.0) {
                return 0.0;
            }
            x = CVector::from_vec(y.as_slice().iter().map(|v| v.scale(1.0 / norm)).collect());
        }
        t.matvec(&x).norm()
    }
}

/// `‖T(λ)ψ‖/‖ψ‖` from the CSR blocks and the solver's eigenvector.
pub fn sparse_residual(
    h00: &CsrMatrix,
    h01: &CsrMatrix,
    energy: f64,
    lambda: Complex64,
    psi: &CVector,
) -> f64 {
    let a = h00.matvec(psi);
    let b = h01.matvec(psi);
    let c = h01.matvec_adjoint(psi);
    let inv = lambda.inv();
    let r: f64 = (0..psi.len())
        .map(|i| {
            let p = psi.as_slice()[i];
            (a.as_slice()[i] - p.scale(energy) + lambda * b.as_slice()[i] + inv * c.as_slice()[i])
                .norm_sqr()
        })
        .sum();
    r.sqrt() / psi.norm()
}

/// Twice the number of band crossings of `energy`, from energy levels on a
/// uniform `k` grid over `[0, π/a]` (one crossing at `k` gives the pair
/// `e^{±ika}`).  Counts changes in the number of levels below `energy`.
pub fn reference_channels(levels: &[Vec<f64>], energy: f64) -> usize {
    let below: Vec<usize> =
        levels.iter().map(|l| l.iter().filter(|&&x| x < energy).count()).collect();
    2 * below.windows(2).map(|w| w[0].abs_diff(w[1])).sum::<usize>()
}

/// Lowest `n_levels` eigenvalues of the Bloch operator
/// `H₀₀ + e^{ika} H₀₁ + e^{−ika} H₀₁†` at `nk` points of `[0, π/a]`, by
/// Lanczos.  Fails unless, at every `k`, the highest level is above `e_max`
/// (no band below it is missing) and every level's Ritz residual is smaller
/// than its distance to each energy in `energies` (its side is certain).
pub fn bloch_levels(
    h00: &CsrMatrix,
    h01: &CsrMatrix,
    nk: usize,
    n_levels: usize,
    energies: &[f64],
) -> Result<Vec<Vec<f64>>, String> {
    let h10 = h01.adjoint();
    let e_max = energies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xb10c);
    let opts = LanczosOptions { n_eigenvalues: n_levels, max_subspace: 120, tolerance: 1e-6 };
    let mut levels = Vec::with_capacity(nk);
    for i in 0..nk {
        let ka = std::f64::consts::PI * i as f64 / (nk - 1) as f64;
        let phase = Complex64::cis(ka);
        let hk = h00.add_scaled(phase, h01).add_scaled(phase.conj(), &h10);
        let res = lanczos_lowest(&hk, &opts, &mut rng);
        if res.eigenvalues.last().is_none_or(|&top| top <= e_max) {
            return Err(format!("k-point {i}: {n_levels} levels do not reach {e_max}"));
        }
        for (theta, x) in res.eigenvalues.iter().zip(&res.eigenvectors) {
            let hx = hk.matvec(x);
            let r: f64 = hx
                .as_slice()
                .iter()
                .zip(x.as_slice())
                .map(|(a, b)| (*a - b.scale(*theta)).norm_sqr())
                .sum::<f64>()
                .sqrt();
            if energies.iter().any(|e| (theta - e).abs() <= r) {
                return Err(format!(
                    "k-point {i}: level {theta} is within {r:.1e} of a scan energy"
                ));
            }
        }
        levels.push(res.eigenvalues);
    }
    Ok(levels)
}

/// Reference levels for `key`, read from `dir` when an earlier run of this
/// checkout stored them, computed (and stored) otherwise.  The key names
/// everything the levels depend on, the Hamiltonian's hash included.
pub fn cached_levels(
    dir: &Path,
    key: &str,
    compute: impl FnOnce() -> Result<Vec<Vec<f64>>, String>,
) -> Result<Vec<Vec<f64>>, String> {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    let path = dir.join(format!("reference-{:016x}.txt", h.finish()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(key) {
            let parsed: Option<Vec<Vec<f64>>> = lines
                .map(|l| {
                    l.split_whitespace()
                        .map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
                        .collect()
                })
                .collect();
            if let Some(levels) = parsed {
                return Ok(levels);
            }
        }
    }
    let levels = compute()?;
    let mut text = format!("{key}\n");
    for l in &levels {
        let words: Vec<String> = l.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
        text.push_str(&words.join(" "));
        text.push('\n');
    }
    // Write then rename, so a concurrent run never reads a partial file.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("cannot store {}: {e}", path.display()))?;
    Ok(levels)
}
