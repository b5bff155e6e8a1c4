//! Tests of the correctness gate, the negative ones included.  Release
//! mode keeps them to about a minute:
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;

use cbs_core::SsConfig;
use cbs_linalg::Complex64;
use cbs_parallel::SerialExecutor;

use crate::gate::{self, EnergyResult, Tolerances};
use crate::spans::Spans;
use crate::workload;

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(crate::OUT_DIR);
    std::fs::create_dir_all(&dir).expect("output directory");
    dir
}

#[test]
fn reference_channels_count_every_crossing() {
    // One band dipping below E and rising again: two crossings, four channels.
    let levels = vec![vec![1.0], vec![0.2], vec![0.1], vec![0.9]];
    assert_eq!(gate::reference_channels(&levels, 0.5), 4);
    assert_eq!(gate::reference_channels(&levels, 0.05), 0);
}

#[test]
fn gate_flags_the_aliased_al_sweep() {
    // n_int = 16 with n_mm = 8 aliases the quadrature: the sweep returns
    // no channels although the band structure has 2-8 at every energy.
    let mut spans = Spans::new("test-aliased".into());
    let (inputs, _) = workload::al_setup(&mut spans);
    let ss = SsConfig { n_mm: 8, ..workload::ss_config(1) };
    let out = out_dir();
    let checkpoint = out.join("test-aliased.checkpoint");
    let result = workload::sweep(&inputs, ss, &SerialExecutor, &checkpoint);
    std::fs::remove_file(&checkpoint).expect("the sweep wrote a checkpoint");
    let outcome = crate::gate_sweep(&mut spans, &out, &inputs, &result, &ss);
    assert_eq!(outcome.attempted, 12);
    assert!(outcome.failed > 0, "the gate passed the aliased sweep");
}

#[test]
fn gate_flags_a_perturbed_eigenvalue() {
    let mut spans = Spans::new("test-perturbed".into());
    let (inputs, _) = workload::al_setup(&mut spans);
    let ss = workload::ss_config(1);
    let solved = workload::point(&inputs, &ss, &SerialExecutor);
    assert!(!solved.eigenpairs.is_empty());
    let (h00, h01) = (inputs.h.h00_csr(), inputs.h.h01_csr());
    let dense = gate::DenseQep::new(&h00, &h01);
    let energy = inputs.energies[0];
    let tol = Tolerances::DEFAULT;
    let checked = |shift: f64| {
        let lambdas: Vec<Complex64> = solved
            .eigenpairs
            .iter()
            .enumerate()
            .map(|(i, p)| if i == 0 { p.lambda + Complex64::real(shift) } else { p.lambda })
            .collect();
        let residuals = lambdas
            .iter()
            .zip(&solved.eigenpairs)
            .map(|(&l, p)| gate::sparse_residual(&h00, &h01, energy, l, &p.psi))
            .collect();
        EnergyResult { energy, lambdas, residuals, numerical_rank: solved.numerical_rank }
    };
    let exact = checked(0.0);
    let channels = exact.channels(&tol);
    let subspace = ss.subspace_size();
    assert!(gate::judge(&exact, subspace, ss.lambda_min, channels, &tol).is_empty());
    let moved = checked(crate::PERTURBATION);
    let reasons = gate::judge(&moved, subspace, ss.lambda_min, channels, &tol);
    assert!(reasons.iter().any(|r| r.starts_with("(a)")), "{reasons:?}");
    // The eigenvector-free residual of the dense check agrees.
    assert!(dense.residual(energy, exact.lambdas[0]) < tol.residual);
    assert!(dense.residual(energy, moved.lambdas[0]) > tol.residual);
}
