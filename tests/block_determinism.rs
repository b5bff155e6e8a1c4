//! Regression tests of the block (multi-vector) data path: every column of
//! a block solve must reproduce the scalar per-column reference solve
//! exactly, the fused matvecs must cut the operator traversal count, and
//! the determinism guarantees must hold (serial ≡ rayon bitwise, warm sweep
//! kill/resume bit-identity).

use rand::SeedableRng;

use cbs::core::{
    solve_qep_with, source_block, PrecondPolicy, QepNodeOp, QepNodePrecond, QepProblem, SsConfig,
};
use cbs::dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs::linalg::{c64, CMatrix};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::{bicg_dual, bicg_dual_block, ConvergenceHistory};
use cbs::sparse::DenseOp;
use cbs::sparse::IdentityOp;
use cbs::sweep::{sweep_cbs, RunOptions, RunOutcome, SweepCheckpoint, SweepConfig};

fn random_blocks(n: usize, seed: u64) -> (CMatrix, CMatrix) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let a = CMatrix::random(n, n, &mut rng);
    let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
    let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
    (h00, h01)
}

/// The fig6 Al(100) system at the bench resolution.
fn fig6_hamiltonian() -> BlockHamiltonian {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.5);
    BlockHamiltonian::build(
        grid,
        &s,
        HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true },
    )
}

fn fig6_config() -> SsConfig {
    SsConfig { n_int: 8, n_mm: 4, n_rh: 4, bicg_max_iterations: 400, ..SsConfig::small() }
}

/// On real fig6 Al(100) node operators — matrix-free, assembled and
/// factored (assembled CSR + low-rank projector tail) — and under every
/// preconditioner policy (identity, ILU(0), ILU(0)+SMW), each column of the
/// block kernel is bitwise the scalar reference solve of that column, while
/// the fused matvecs walk the operator storage less often than the
/// per-column solves would.
#[test]
fn fig6_block_kernel_matches_the_scalar_reference_on_every_node_kind() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let pattern = h.qep_pattern();
    let (pattern_sparse, projector) = h.qep_factored();
    let expanded = QepProblem::new(&h00, &h01, 0.15, h.period()).with_pattern(&pattern);
    let factored = QepProblem::new(&h00, &h01, 0.15, h.period())
        .with_pattern(&pattern_sparse)
        .with_projector(&projector);
    let config = fig6_config();
    let opts = config.solver_options();
    let v = source_block(h.dim(), &config);
    let z = config.contour().outer_points()[1].z;

    let mut kinds = std::collections::BTreeSet::new();
    for (problem_name, problem) in [("expanded", &expanded), ("factored", &factored)] {
        for policy in [
            PrecondPolicy::MatrixFree,
            PrecondPolicy::Assembled,
            PrecondPolicy::AssembledIlu0,
            PrecondPolicy::AssembledIlu0Smw,
        ] {
            let (op, prec) = problem.node_solve(policy, z);
            let what = format!("{problem_name}/{}", policy.name());
            let node_kind = match op {
                QepNodeOp::MatrixFree(_) => "matrix-free",
                QepNodeOp::Assembled(_) => "assembled",
                QepNodeOp::Factored(..) => "factored",
            };
            let prec_kind = match prec {
                QepNodePrecond::Identity(_) => "identity",
                QepNodePrecond::Ilu0(_) => "ilu0",
                QepNodePrecond::Smw(_) => "smw",
            };
            kinds.insert((node_kind, prec_kind));

            let block = bicg_dual_block(&op, &prec, &v, &v, None, &opts, None);
            assert!(block.all_converged(), "{what}: block solve did not converge");
            for (c, col) in block.columns.iter().enumerate() {
                let single = bicg_dual(&op, &prec, &v[c], &v[c], None, &opts, None);
                assert_eq!(col.x, single.x, "{what}: column {c} primal solution");
                assert_eq!(col.dual_x, single.dual_x, "{what}: column {c} dual solution");
                assert_eq!(col.history.residuals, single.history.residuals, "{what}: column {c}");
                assert_eq!(col.dual_history.residuals, single.dual_history.residuals);
                assert_eq!(col.history.matvecs, single.history.matvecs);
                assert_eq!(col.history.stop_reason, single.history.stop_reason);
            }
            assert!(
                block.traversals < block.total_matvecs(),
                "{what}: {} traversals vs {} matvecs",
                block.traversals,
                block.total_matvecs()
            );
        }
    }
    // Every node kind and every preconditioner kind was exercised.
    for kind in [
        ("matrix-free", "identity"),
        ("assembled", "identity"),
        ("assembled", "ilu0"),
        ("factored", "identity"),
        ("factored", "ilu0"),
        ("factored", "smw"),
    ] {
        assert!(kinds.contains(&kind), "{kind:?} node never built");
    }
}

/// Serial and rayon executors stay bitwise identical within each policy on
/// the fig6 system.
#[test]
fn fig6_per_node_policy_is_executor_independent() {
    let h = fig6_hamiltonian();
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, 0.15, h.period());
    let config = fig6_config();

    let serial = solve_qep_with(&problem, &config, &SerialExecutor);
    let rayon = solve_qep_with(&problem, &config, &RayonExecutor);

    for (ms, mr) in serial.projected_moments.iter().zip(&rayon.projected_moments) {
        for r in 0..config.n_rh {
            for c in 0..config.n_rh {
                assert_eq!(ms[(r, c)].re.to_bits(), mr[(r, c)].re.to_bits());
                assert_eq!(ms[(r, c)].im.to_bits(), mr[(r, c)].im.to_bits());
            }
        }
    }
    assert_eq!(serial.eigenpairs.len(), rayon.eigenpairs.len());
    for (a, b) in serial.eigenpairs.iter().zip(&rayon.eigenpairs) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
    }
    assert_eq!(serial.total_traversals, rayon.total_traversals);
}

/// On small dense systems every solve inside `solve_qep_with` — stage-2
/// majority-stop cap included — is bitwise the scalar reference solve of
/// its `(node, rhs)` pair, with and without the majority-stop rule.
#[test]
fn block_solves_match_the_scalar_reference_on_dense_systems() {
    let (h00, h01) = random_blocks(12, 81);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let qep = QepProblem::new(&op00, &op01, 0.1, 1.0);
    for majority in [false, true] {
        let config = SsConfig {
            n_rh: 6,
            n_mm: 4,
            majority_stop: majority,
            precond: PrecondPolicy::MatrixFree,
            ..SsConfig::small()
        };
        let result = solve_qep_with(&qep, &config, &SerialExecutor);
        assert!(!result.eigenpairs.is_empty());
        let n_rh = config.n_rh;
        let v = source_block(12, &config);
        let opts = config.solver_options();
        let nodes = config.contour().outer_points();
        // With every first-stage solve converged, the majority-stop rule
        // caps the second stage at the worst first-stage iteration count.
        let stage1 = if majority { config.n_int / 2 + 1 } else { config.n_int };
        let first_stage = &result.solve_histories[..stage1 * n_rh];
        assert!(first_stage.iter().all(ConvergenceHistory::converged));
        let cap = first_stage.iter().map(ConvergenceHistory::iterations).max().filter(|_| majority);
        let mut total_iterations = 0;
        for (idx, history) in result.solve_histories.iter().enumerate() {
            let (j, r) = (idx / n_rh, idx % n_rh);
            let stop_at = cap.filter(|_| j >= stage1).map(|c| c.max(1));
            let stop = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
            let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
                if stop_at.is_some() { Some(&stop) } else { None };
            let op = qep.operator(nodes[j].z);
            let single = bicg_dual(&op, &IdentityOp::new(12), &v[r], &v[r], None, &opts, external);
            assert_eq!(history.residuals, single.history.residuals, "job {idx}");
            assert_eq!(history.matvecs, single.history.matvecs, "job {idx}");
            assert_eq!(history.stop_reason, single.history.stop_reason, "job {idx}");
            total_iterations += single.history.iterations();
        }
        assert_eq!(result.total_bicg_iterations, total_iterations);
    }
}

/// A killed warm-started block sweep resumes bit-identically — including
/// its traversal counters, which stay below the matvec count.
#[test]
fn warm_block_sweep_resumes_bit_identically() {
    let (h00, h01) = random_blocks(10, 82);
    let op00 = DenseOp::new(h00);
    let op01 = DenseOp::new(h01);
    let energies: Vec<f64> = (0..10).map(|i| -0.25 + 0.05 * i as f64).collect();
    let ss = SsConfig {
        n_int: 16,
        n_mm: 4,
        n_rh: 6,
        bicg_tolerance: 1e-11,
        residual_cutoff: 1e-6,
        ..SsConfig::small()
    };
    let config = SweepConfig { initial_round: 4, ..SweepConfig::new(ss) };

    let per_node = sweep_cbs(&op00, &op01, 1.5, &energies, &config, &SerialExecutor);
    assert!(per_node.stats.operator_traversals * 2 < per_node.stats.total_matvecs * 3);

    // Kill the sweep partway, resume, compare bit-for-bit.
    let sweep = cbs::sweep::EnergySweep::new(&op00, &op01, 1.5, config);
    let dir = std::env::temp_dir().join(format!("cbs_block_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.cp");
    let outcome = sweep
        .run_with(
            &energies,
            &SerialExecutor,
            RunOptions {
                checkpoint_path: Some(&path),
                max_new_energies: Some(5),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let RunOutcome::Interrupted(_) = outcome else { panic!("budget of 5 should interrupt") };
    let resumed = sweep
        .run_with(
            &energies,
            &SerialExecutor,
            RunOptions {
                resume: Some(SweepCheckpoint::load(&path).unwrap()),
                ..RunOptions::default()
            },
        )
        .unwrap()
        .expect_complete("resume must finish");
    assert_eq!(per_node.cbs.points.len(), resumed.cbs.points.len());
    for (a, b) in per_node.cbs.points.iter().zip(&resumed.cbs.points) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }
    assert_eq!(per_node.stats.total_bicg_iterations, resumed.stats.total_bicg_iterations);
    assert_eq!(per_node.stats.operator_traversals, resumed.stats.operator_traversals);
    for (a, b) in per_node.records.iter().zip(&resumed.records) {
        assert_eq!(a.stats, b.stats, "per-energy counters differ after resume at E = {}", a.energy);
    }
    std::fs::remove_dir_all(&dir).ok();
}
