//! The benchmark's inputs and the calls into the program that it times.
//!
//! Workloads set only the problem-size fields of `SsConfig` (`n_int`,
//! `n_mm`, `n_rh`) and its seed; every policy field keeps the library
//! default (`SsConfig::paper()`, `SweepConfig::new`), so a change of a
//! default is measured the way users meet it.

use std::hash::{DefaultHasher, Hash as _, Hasher as _};
use std::path::Path;

use cbs_core::{solve_qep_with, QepProblem, SsConfig, SsResult};
use cbs_dft::{
    band_structure, bn_dope, bulk_al_100, carbon_nanotube, fermi_energy, grid_for_structure,
    supercell_z, BlockHamiltonian, HamiltonianParams,
};
use cbs_parallel::TaskExecutor;
use cbs_sparse::{AssembledPattern, FactoredProjector};
use cbs_sweep::{EnergySweep, RunOptions, SweepConfig, SweepResult};

use crate::spans::Spans;

/// Grid spacing of the Al(100) cell (bohr): 343 grid points.
const AL_SPACING: f64 = 1.1;
/// Scan energies of the Al(100) sweep, evenly spread over `E_F ± AL_WINDOW`.
const AL_ENERGIES: usize = 12;
const AL_WINDOW: f64 = 0.1;
/// k-points and bands of the Al(100) reference band structure.
const AL_REF_NK: usize = 41;
const AL_REF_BANDS: usize = 40;

/// Grid spacing of the BN-doped (8,0) nanotube (bohr): 4,212 grid points.
const CNT_SPACING: f64 = 1.2;
/// Unit cells of the (8,0) tube in the supercell (64 atoms).
const CNT_CELLS: usize = 2;
/// Lateral vacuum around the tube (bohr).
const CNT_VACUUM: f64 = 5.0;
/// The single scan energy of the nanotube point (hartree).
pub const CNT_ENERGY: f64 = 0.05;
/// k-points and levels of the nanotube's Lanczos reference.
const CNT_REF_NK: usize = 11;
const CNT_REF_LEVELS: usize = 3;

/// The Sakurai-Sugiura parameters of every workload: the problem size and
/// the seed of the random source block; all policy fields are defaults.
/// (`n_mm = 8` with `n_int = 16` aliases the quadrature on Al(100); the
/// negative test of the gate uses it.)
pub fn ss_config(seed: u64) -> SsConfig {
    SsConfig { n_int: 16, n_mm: 6, n_rh: 8, seed, ..SsConfig::paper() }
}

/// Wall seconds of the parts of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Structure and `BlockHamiltonian::build`.
    pub build_s: f64,
    /// `fermi_energy` (Al(100) only).
    pub fermi_s: f64,
    /// `BlockHamiltonian::qep_factored`.
    pub pattern_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// Built inputs of one workload.
pub struct Inputs {
    /// The Kohn-Sham blocks.
    pub h: BlockHamiltonian,
    /// Assembled-operator pattern of the sparse blocks.
    pub pattern: AssembledPattern,
    /// Factored non-local projector paired with the pattern.
    pub projector: FactoredProjector,
    /// Scan energies (hartree).
    pub energies: Vec<f64>,
}

/// Build the Al(100) inputs: Hamiltonian, Fermi estimate, QEP pattern and
/// projector, energy grid.
pub fn al_setup(spans: &mut Spans) -> (Inputs, SetupTimes) {
    let mut t = SetupTimes::default();
    let (inputs, total) = spans.time("setup", |sp| {
        let structure = bulk_al_100(1);
        let (h, build_s) = sp.time("dft.build", |_| {
            let grid = grid_for_structure(&structure, AL_SPACING);
            BlockHamiltonian::build(grid, &structure, HamiltonianParams::default())
        });
        let (ef, fermi_s) =
            sp.time("dft.fermi_energy", |_| fermi_energy(&h, structure.valence_electrons(), 3));
        let ((pattern, projector), pattern_s) =
            sp.time("sparse.qep_factored", |_| h.qep_factored());
        let energies = (0..AL_ENERGIES)
            .map(|i| ef - AL_WINDOW + 2.0 * AL_WINDOW * i as f64 / (AL_ENERGIES - 1) as f64)
            .collect();
        t = SetupTimes { build_s, fermi_s, pattern_s, total_s: 0.0 };
        Inputs { h, pattern, projector, energies }
    });
    t.total_s = total;
    (inputs, t)
}

/// Build the BN-doped (8,0) nanotube inputs; `seed` picks the doping
/// pattern.
pub fn cnt_setup(spans: &mut Spans, seed: u64) -> (Inputs, SetupTimes) {
    let mut t = SetupTimes::default();
    let (inputs, total) = spans.time("setup", |sp| {
        let (h, build_s) = sp.time("dft.build", |_| {
            let cell = supercell_z(&carbon_nanotube(8, 0, CNT_VACUUM), CNT_CELLS);
            let structure = bn_dope(&cell, cell.natoms() / 16, seed);
            let grid = grid_for_structure(&structure, CNT_SPACING);
            BlockHamiltonian::build(grid, &structure, HamiltonianParams::default())
        });
        let ((pattern, projector), pattern_s) =
            sp.time("sparse.qep_factored", |_| h.qep_factored());
        t = SetupTimes { build_s, fermi_s: 0.0, pattern_s, total_s: 0.0 };
        Inputs { h, pattern, projector, energies: vec![CNT_ENERGY] }
    });
    t.total_s = total;
    (inputs, t)
}

/// The warm-started sweep over `inputs.energies`, writing a checkpoint
/// after every energy.
pub fn sweep<E: TaskExecutor>(
    inputs: &Inputs,
    ss: SsConfig,
    executor: &E,
    checkpoint: &Path,
) -> SweepResult {
    let (h00, h01) = (inputs.h.h00(), inputs.h.h01());
    EnergySweep::new(&h00, &h01, inputs.h.period(), SweepConfig::new(ss))
        .with_pattern(inputs.pattern.clone())
        .with_projector(inputs.projector.clone())
        .run_with(
            &inputs.energies,
            executor,
            RunOptions { checkpoint_path: Some(checkpoint), ..RunOptions::default() },
        )
        .expect("checkpoint writes succeed")
        .expect_complete("no energy budget is set")
}

/// One QEP solve at `inputs.energies[0]`.
pub fn point<E: TaskExecutor>(inputs: &Inputs, ss: &SsConfig, executor: &E) -> SsResult {
    let (h00, h01) = (inputs.h.h00(), inputs.h.h01());
    let problem = QepProblem::new(&h00, &h01, inputs.energies[0], inputs.h.period())
        .with_pattern(&inputs.pattern)
        .with_projector(&inputs.projector);
    solve_qep_with(&problem, ss, executor)
}

/// Hash of the Hamiltonian's CSR blocks (keys the stored references).
pub fn hamiltonian_hash(h: &BlockHamiltonian) -> u64 {
    let mut hasher = DefaultHasher::new();
    for m in [h.h00_csr(), h.h01_csr()] {
        m.row_ptr().hash(&mut hasher);
        m.col_idx().hash(&mut hasher);
        for v in m.values() {
            (v.re.to_bits(), v.im.to_bits()).hash(&mut hasher);
        }
    }
    hasher.finish()
}

/// Reference levels of the Al(100) cell: `band_structure` on
/// `AL_REF_NK` k-points, checked to hold every band below the top energy.
pub fn al_reference(h: &BlockHamiltonian, energies: &[f64]) -> Result<Vec<Vec<f64>>, String> {
    let e_max = energies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let bands = band_structure(h, AL_REF_NK, AL_REF_BANDS).bands;
    if bands.iter().any(|b| b.last().is_none_or(|&top| top <= e_max)) {
        return Err(format!("{AL_REF_BANDS} bands do not reach {e_max}"));
    }
    Ok(bands)
}

/// Storage key of the Al(100) reference.
pub fn al_reference_key(h: &BlockHamiltonian) -> String {
    format!(
        "al100 spacing={AL_SPACING} n={} h={:016x} band_structure nk={AL_REF_NK} bands={AL_REF_BANDS}",
        h.dim(),
        hamiltonian_hash(h)
    )
}

/// Reference levels of the nanotube: Lanczos on the Bloch operator.
pub fn cnt_reference(h: &BlockHamiltonian, energies: &[f64]) -> Result<Vec<Vec<f64>>, String> {
    crate::gate::bloch_levels(&h.h00_csr(), &h.h01_csr(), CNT_REF_NK, CNT_REF_LEVELS, energies)
}

/// Storage key of the nanotube reference.
pub fn cnt_reference_key(h: &BlockHamiltonian, seed: u64) -> String {
    format!(
        "bncnt seed={seed} spacing={CNT_SPACING} n={} h={:016x} lanczos nk={CNT_REF_NK} \
         levels={CNT_REF_LEVELS} e={CNT_ENERGY}",
        h.dim(),
        hamiltonian_hash(h)
    )
}
