//! The bi-conjugate gradient method for complex non-Hermitian systems, with
//! simultaneous solution of the adjoint ("dual") system.
//!
//! This is the workhorse of the paper: the shifted QEP systems
//! `P(z_j) Y = V` at the outer-circle quadrature points are solved with
//! BiCG, and because `P(z)† = P(1/z̄)`, the *dual* solution produced by the
//! same iteration is exactly the solution needed at the corresponding
//! inner-circle point — halving the number of linear solves (paper §3.2).
//!
//! The implementation follows Saad, *Iterative Methods for Sparse Linear
//! Systems*, Alg. 7.3 (BiCG), with the dual solution vector tracked using
//! the conjugated step sizes.

use cbs_linalg::{CVector, Complex64};
use cbs_sparse::{IdentityOp, LinearOperator, Preconditioner};

use crate::history::{ConvergenceHistory, SolverOptions, StopReason};

/// Result of a dual BiCG solve.
#[derive(Clone, Debug)]
pub struct BicgResult {
    /// Solution of the primal system `A x = b`.
    pub x: CVector,
    /// Solution of the dual system `A† x̃ = b_dual`.
    pub dual_x: CVector,
    /// Convergence history of the primal residual.
    pub history: ConvergenceHistory,
    /// Convergence history of the dual residual.
    pub dual_history: ConvergenceHistory,
}

impl BicgResult {
    /// `true` when both the primal and dual systems reached the tolerance.
    pub fn both_converged(&self) -> bool {
        self.history.converged() && self.dual_history.converged()
    }
}

/// `true` when `v` is finite and not vanishingly small — the BiCG
/// breakdown test on `ρ` and on `p̃·Ap`.
pub(crate) fn usable(v: Complex64) -> bool {
    v.re.is_finite() && v.im.is_finite() && v.abs() >= 1e-290
}

/// Solve `A x = b` and `A† x̃ = b_dual` simultaneously with preconditioned
/// dual BiCG, optionally warm-started from initial guesses `(x₀, x̃₀)`.
///
/// The search directions are built from the preconditioned residuals
/// `z = M⁻¹ r` and `z̃ = M⁻† r̃`, while the *true* residuals `r`, `r̃` drive
/// the stopping test, so the convergence contract (relative residual ≤
/// tolerance) does not depend on `M` (Saad, *Iterative Methods*, BiCG with
/// preconditioning).  With `m = &IdentityOp` the preconditioned residual is
/// a copy of the residual, `ρ = r̃·z = r̃·r` and `p = z + βp = r + βp`: the
/// iteration *is* plain BiCG, bit for bit.
///
/// The adjoint solve `M⁻†` on the dual side is what preserves the paper's
/// dual-circle trick under preconditioning: with `M ≈ P(z)` (e.g.
/// `cbs_sparse::Ilu0` of the assembled operator, or `cbs_sparse::SmwPrecond`
/// completing it with the projector tail), `M† ≈ P(z)† = P(1/z̄)`, the
/// operator of the paired inner-circle node.
///
/// With `seed = None` the iteration starts from zero.  With a seed the
/// initial residuals are `r₀ = b - A x₀` and `r̃₀ = b̃ - A† x̃₀` (two extra
/// operator applications, counted in `matvecs`); a good seed — e.g. the
/// solution of the same shifted system at a neighbouring scan energy, which
/// differs from the current operator only by `(E' - E) I` — typically cuts
/// the iteration count substantially.
///
/// `external_stop` is consulted once per iteration; returning `true` aborts
/// the solve with [`StopReason::ExternalStop`] (the paper's "stop once half
/// of the quadrature points have converged" load-balancing rule).  A
/// non-finite or vanishing `ρ` or `p̃·Ap` stops it with
/// [`StopReason::Breakdown`].
///
/// This scalar solver is the per-column bitwise reference for the block
/// solver [`bicg_dual_block`](crate::bicg_dual_block), whose fused matvecs
/// and batched [`Preconditioner::solve_block`] applies are contractually
/// bit-identical to the per-column calls here.
pub fn bicg_dual<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: &M,
    b: &CVector,
    b_dual: &CVector,
    seed: Option<(&CVector, &CVector)>,
    opts: &SolverOptions,
    external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
) -> BicgResult {
    let n = a.dim();
    assert_eq!(m.dim(), n, "preconditioner dimension mismatch");
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(b_dual.len(), n, "dual rhs length mismatch");

    let mut seed_matvecs = 0usize;
    let (mut x, mut xt, mut r, mut rt) = match seed {
        None => (CVector::zeros(n), CVector::zeros(n), b.clone(), b_dual.clone()),
        Some((x0, xt0)) => {
            assert_eq!(x0.len(), n, "primal seed length mismatch");
            assert_eq!(xt0.len(), n, "dual seed length mismatch");
            let mut r = CVector::zeros(n);
            let mut rt = CVector::zeros(n);
            a.apply(x0.as_slice(), r.as_mut_slice());
            a.apply_adjoint(xt0.as_slice(), rt.as_mut_slice());
            seed_matvecs = 2;
            for i in 0..n {
                r[i] = b[i] - r[i];
                rt[i] = b_dual[i] - rt[i];
            }
            (x0.clone(), xt0.clone(), r, rt)
        }
    };

    let mut z = CVector::zeros(n);
    let mut zt = CVector::zeros(n);
    m.solve(r.as_slice(), z.as_mut_slice());
    m.solve_adjoint(rt.as_slice(), zt.as_mut_slice());
    let mut p = z.clone();
    let mut pt = zt.clone();

    let b_norm = b.norm().max(1e-300);
    let bt_norm = b_dual.norm().max(1e-300);
    let mut res = r.norm() / b_norm;
    let mut res_dual = rt.norm() / bt_norm;
    cbs_trace::record_iteration(None, 0, res);

    let mut history = Vec::new();
    let mut dual_history = Vec::new();
    if opts.record_history {
        history.push(res);
        dual_history.push(res_dual);
    }

    let mut q = CVector::zeros(n);
    let mut qt = CVector::zeros(n);
    let mut rho = rt.dot(&z);
    let mut matvecs = seed_matvecs;
    let mut stop = StopReason::MaxIterations;

    for iter in 0..opts.max_iterations {
        if res <= opts.tolerance && res_dual <= opts.tolerance {
            stop = StopReason::Converged;
            break;
        }
        if let Some(cb) = external_stop {
            if cb(iter) {
                stop = StopReason::ExternalStop;
                break;
            }
        }
        if !usable(rho) {
            stop = StopReason::Breakdown;
            break;
        }

        a.apply(p.as_slice(), q.as_mut_slice());
        a.apply_adjoint(pt.as_slice(), qt.as_mut_slice());
        matvecs += 2;

        let denom = pt.dot(&q);
        if !usable(denom) {
            stop = StopReason::Breakdown;
            break;
        }
        let alpha = rho / denom;

        x.axpy(alpha, &p);
        xt.axpy(alpha.conj(), &pt);
        r.axpy(-alpha, &q);
        rt.axpy(-alpha.conj(), &qt);

        res = r.norm() / b_norm;
        res_dual = rt.norm() / bt_norm;
        cbs_trace::record_iteration(None, iter + 1, res);
        if opts.record_history {
            history.push(res);
            dual_history.push(res_dual);
        }

        m.solve(r.as_slice(), z.as_mut_slice());
        m.solve_adjoint(rt.as_slice(), zt.as_mut_slice());
        let rho_new = rt.dot(&z);
        let beta = rho_new / rho;
        rho = rho_new;

        // p = z + beta p ; pt = zt + conj(beta) pt
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
            pt[i] = zt[i] + beta.conj() * pt[i];
        }
    }
    if res <= opts.tolerance && res_dual <= opts.tolerance {
        stop = StopReason::Converged;
    }
    if !opts.record_history {
        history.push(res);
        dual_history.push(res_dual);
    }

    let primal_conv = res <= opts.tolerance;
    let dual_conv = res_dual <= opts.tolerance;
    BicgResult {
        x,
        dual_x: xt,
        history: ConvergenceHistory {
            residuals: history,
            stop_reason: if primal_conv { StopReason::Converged } else { stop },
            matvecs,
        },
        dual_history: ConvergenceHistory {
            residuals: dual_history,
            stop_reason: if dual_conv { StopReason::Converged } else { stop },
            matvecs,
        },
    }
}

/// Solve a single system `A x = b` with unpreconditioned BiCG (the dual
/// right-hand side is taken equal to `b`, as in the paper where both systems
/// share `V`).
pub fn bicg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &CVector,
    opts: &SolverOptions,
) -> (CVector, ConvergenceHistory) {
    let res = bicg_dual(a, &IdentityOp::new(a.dim()), b, b, None, opts, None);
    (res.x, res.history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::{CsrMatrix, DenseOp, Ilu0, ShiftedOp};
    use rand::SeedableRng;

    fn random_diag_dominant(n: usize, seed: u64) -> CMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = CMatrix::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += c64(n as f64, 0.5);
        }
        a
    }

    /// Unpreconditioned dual BiCG written out directly (no `M`): the
    /// recurrence the identity-preconditioned solver must reproduce bitwise.
    fn plain_bicg_dual(a: &DenseOp, b: &CVector, opts: &SolverOptions) -> (CVector, Vec<f64>) {
        let n = a.dim();
        let (mut x, mut r, mut rt) = (CVector::zeros(n), b.clone(), b.clone());
        let (mut p, mut pt) = (r.clone(), rt.clone());
        let (mut q, mut qt) = (CVector::zeros(n), CVector::zeros(n));
        let b_norm = b.norm().max(1e-300);
        let mut history = vec![r.norm() / b_norm];
        let mut rho = rt.dot(&r);
        for _ in 0..opts.max_iterations {
            if *history.last().unwrap() <= opts.tolerance && rt.norm() / b_norm <= opts.tolerance {
                break;
            }
            a.apply(p.as_slice(), q.as_mut_slice());
            a.apply_adjoint(pt.as_slice(), qt.as_mut_slice());
            let alpha = rho / pt.dot(&q);
            x.axpy(alpha, &p);
            r.axpy(-alpha, &q);
            rt.axpy(-alpha.conj(), &qt);
            history.push(r.norm() / b_norm);
            let rho_new = rt.dot(&r);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
                pt[i] = rt[i] + beta.conj() * pt[i];
            }
        }
        (x, history)
    }

    #[test]
    fn bicg_solves_primal_and_dual() {
        let n = 40;
        let a = random_diag_dominant(n, 201);
        let op = DenseOp::new(a.clone());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(202);
        let x_true = CVector::random(n, &mut rng);
        let b = a.matvec(&x_true);
        let xd_true = CVector::random(n, &mut rng);
        let bd = a.adjoint().matvec(&xd_true);

        let opts = SolverOptions::default().with_tolerance(1e-12);
        let res = bicg_dual(&op, &IdentityOp::new(n), &b, &bd, None, &opts, None);
        assert!(
            res.both_converged(),
            "primal {:?} dual {:?}",
            res.history.stop_reason,
            res.dual_history.stop_reason
        );
        assert!((&res.x - &x_true).norm() / x_true.norm() < 1e-8);
        assert!((&res.dual_x - &xd_true).norm() / xd_true.norm() < 1e-8);
        // Residual history is monotone-ish and ends tiny.
        assert!(res.history.final_residual() < 1e-12);
        assert!(res.history.iterations() <= n + 2);
    }

    #[test]
    fn identity_preconditioner_is_bitwise_plain_bicg() {
        let n = 22;
        let op = DenseOp::new(random_diag_dominant(n, 219));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(220);
        let b = CVector::random(n, &mut rng);
        let opts = SolverOptions::default().with_tolerance(1e-12);
        let (x, history) = plain_bicg_dual(&op, &b, &opts);
        let res = bicg_dual(&op, &IdentityOp::new(n), &b, &b, None, &opts, None);
        assert!(res.both_converged());
        assert_eq!(res.x, x);
        assert_eq!(res.history.residuals, history);
        let (x_single, _) = bicg(&op, &b, &opts);
        assert_eq!(x_single, x);
    }

    #[test]
    fn bicg_on_sparse_shifted_laplacian() {
        // 1-D periodic Laplacian shifted into the complex plane: a simple
        // stand-in for P(z).
        let n = 60;
        let mut b = cbs_sparse::CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, c64(2.0, 0.0));
            b.push(i, (i + 1) % n, c64(-1.0, 0.0));
            b.push(i, (i + n - 1) % n, c64(-1.0, 0.0));
        }
        let lap: CsrMatrix = b.build();
        let shifted = ShiftedOp::new(&lap, c64(0.5, 0.8));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(203);
        let x_true = CVector::random(n, &mut rng);
        let rhs = shifted.apply_vec(&x_true);
        let (x, hist) = bicg(&shifted, &rhs, &SolverOptions::default());
        assert!(hist.converged());
        assert!((&x - &x_true).norm() / x_true.norm() < 1e-7);
    }

    #[test]
    fn seeded_solve_from_exact_solution_converges_instantly() {
        let n = 30;
        let a = random_diag_dominant(n, 212);
        let op = DenseOp::new(a.clone());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(213);
        let x_true = CVector::random(n, &mut rng);
        let b = a.matvec(&x_true);
        let xd_true = CVector::random(n, &mut rng);
        let bd = a.adjoint().matvec(&xd_true);
        let opts = SolverOptions::default().with_tolerance(1e-10);
        let id = IdentityOp::new(n);
        let res = bicg_dual(&op, &id, &b, &bd, Some((&x_true, &xd_true)), &opts, None);
        assert!(res.both_converged());
        assert_eq!(res.history.iterations(), 0, "exact seed must converge without iterating");
        // The two seed-residual applications are accounted for.
        assert_eq!(res.history.matvecs, 2);
    }

    #[test]
    fn seeded_solve_near_solution_beats_cold_start() {
        let n = 40;
        let a = random_diag_dominant(n, 214);
        let op = DenseOp::new(a.clone());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(215);
        let x_true = CVector::random(n, &mut rng);
        let b = a.matvec(&x_true);
        let opts = SolverOptions::default().with_tolerance(1e-12);
        let id = IdentityOp::new(n);
        let cold = bicg_dual(&op, &id, &b, &b, None, &opts, None);
        // Perturb the true solution slightly: a stand-in for the previous
        // scan energy's solution in a sweep.
        let mut near = x_true.clone();
        let noise = CVector::random(n, &mut rng);
        near.axpy(c64(1e-4, 0.0), &noise);
        let dual_seed = cold.dual_x.clone();
        let warm = bicg_dual(&op, &id, &b, &b, Some((&near, &dual_seed)), &opts, None);
        assert!(warm.both_converged());
        assert!(
            warm.history.iterations() < cold.history.iterations(),
            "warm {} vs cold {}",
            warm.history.iterations(),
            cold.history.iterations()
        );
        assert!((&warm.x - &x_true).norm() / x_true.norm() < 1e-8);
    }

    fn shifted_laplacian(n: usize, shift: Complex64) -> CsrMatrix {
        let mut b = cbs_sparse::CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, c64(2.0, 0.0) - shift);
            b.push(i, (i + 1) % n, c64(-1.0, 0.0));
            b.push(i, (i + n - 1) % n, c64(-1.0, 0.0));
        }
        b.build()
    }

    #[test]
    fn ilu_preconditioned_solve_cuts_iterations() {
        let n = 80;
        let a = shifted_laplacian(n, c64(0.15, 0.35));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(218);
        let x_true = CVector::random(n, &mut rng);
        let b = a.matvec(&x_true);
        let xd_true = CVector::random(n, &mut rng);
        let bd = a.matvec_adjoint(&xd_true);
        let opts = SolverOptions::default().with_tolerance(1e-11);

        let plain = bicg_dual(&a, &IdentityOp::new(n), &b, &bd, None, &opts, None);
        assert!(plain.both_converged());

        let ilu = Ilu0::from_csr(&a);
        let pre = bicg_dual(&a, &ilu, &b, &bd, None, &opts, None);
        assert!(pre.both_converged());
        assert!(
            pre.history.iterations() < plain.history.iterations(),
            "preconditioned {} vs plain {} iterations",
            pre.history.iterations(),
            plain.history.iterations()
        );
        // Both the primal and the dual solutions solve their true systems.
        assert!((&pre.x - &x_true).norm() / x_true.norm() < 1e-7);
        assert!((&pre.dual_x - &xd_true).norm() / xd_true.norm() < 1e-7);
    }

    #[test]
    fn preconditioned_seeded_solve_from_exact_solution_converges_instantly() {
        let n = 30;
        let a = shifted_laplacian(n, c64(0.2, 0.5));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(221);
        let x_true = CVector::random(n, &mut rng);
        let b = a.matvec(&x_true);
        let xd_true = CVector::random(n, &mut rng);
        let bd = a.matvec_adjoint(&xd_true);
        let ilu = Ilu0::from_csr(&a);
        let opts = SolverOptions::default().with_tolerance(1e-10);
        let res = bicg_dual(&a, &ilu, &b, &bd, Some((&x_true, &xd_true)), &opts, None);
        assert!(res.both_converged());
        assert_eq!(res.history.iterations(), 0, "exact seed must converge without iterating");
        assert_eq!(res.history.matvecs, 2);
    }

    #[test]
    fn non_finite_operator_breaks_down_within_one_iteration() {
        let n = 12;
        let mut a = random_diag_dominant(n, 222);
        a[(3, 5)] = c64(f64::NAN, 0.0);
        let op = DenseOp::new(a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(223);
        let b = CVector::random(n, &mut rng);
        let opts = SolverOptions::default();
        let res = bicg_dual(&op, &IdentityOp::new(n), &b, &b, None, &opts, None);
        assert_eq!(res.history.stop_reason, StopReason::Breakdown);
        assert_eq!(res.dual_history.stop_reason, StopReason::Breakdown);
        assert!(res.history.iterations() <= 1, "ran {} iterations", res.history.iterations());
        assert_eq!(res.history.matvecs, 2);
    }

    #[test]
    fn external_stop_is_honoured() {
        let a = random_diag_dominant(30, 204);
        let op = DenseOp::new(a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(205);
        let b = CVector::random(30, &mut rng);
        let opts = SolverOptions::default().with_tolerance(1e-14);
        let res =
            bicg_dual(&op, &IdentityOp::new(30), &b, &b, None, &opts, Some(&|iter| iter >= 3));
        assert_eq!(res.history.stop_reason, StopReason::ExternalStop);
        assert!(res.history.iterations() <= 4);
    }

    #[test]
    fn max_iterations_reported() {
        let a = random_diag_dominant(30, 206);
        let op = DenseOp::new(a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(207);
        let b = CVector::random(30, &mut rng);
        let opts = SolverOptions { tolerance: 1e-30, max_iterations: 2, record_history: true };
        let (_, hist) = bicg(&op, &b, &opts);
        assert_eq!(hist.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = random_diag_dominant(10, 211);
        let op = DenseOp::new(a);
        let b = CVector::zeros(10);
        let (x, hist) = bicg(&op, &b, &SolverOptions::default());
        assert!(hist.converged());
        assert!(x.norm() < 1e-14);
        assert_eq!(hist.iterations(), 0);
    }
}
