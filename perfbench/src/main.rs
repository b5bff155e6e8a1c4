//! End-to-end benchmark of the complex-band-structure solver.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload al_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (the seed sets `SsConfig::seed`, and the doping pattern of
//! the nanotube):
//!
//! * `al_sweep` — Al(100), 343 grid points, 12 energies around the Fermi
//!   level, warm-started `EnergySweep` on `SerialExecutor` with a
//!   checkpoint after every energy: the paper's production sweep shape,
//!   with a working set that fits in cache.
//! * `al_sweep_par` — the same inputs on `RayonExecutor` (one worker per
//!   hardware thread): the only measured run of the parallel layer.
//! * `bncnt_point` — BN-doped (8,0) nanotube, 64 atoms, 4,212 grid points,
//!   one `solve_qep_with` at 0.05 Ha: the paper's headline system, larger
//!   than L2, with no sweep or executor layer in the way.
//!
//! Every run builds its inputs several times (median = `setup_s`), repeats
//! the solve for about `--seconds` (at least once; medians reported),
//! checks every energy with the gate of [`gate`], and prints one JSON
//! object as its last line.  `--trace 0` reports the end-to-end metrics;
//! `--trace 1` adds one solve under a `cbs-trace` session, and an untraced
//! one right after it as the overhead baseline, and reports the per-layer
//! metrics.  Spans of the run, the sweep's checkpoints and the stored
//! reference band structures go to `.perfbench/` in the working directory.

mod gate;
mod spans;
mod sys;
mod workload;

#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::time::Instant;

use cbs_core::{SsConfig, SsResult};
use cbs_linalg::Complex64;
use cbs_parallel::{RayonExecutor, SerialExecutor};
use cbs_sparse::StageTimes;
use cbs_sweep::{EnergyRecord, SweepCheckpoint, SweepResult};
use cbs_trace::{Stage, StageAgg, TraceLevel, TraceSession};

use gate::{EnergyResult, Tolerances};
use spans::Spans;
use workload::{Inputs, SetupTimes};

/// Set-ups per run on Al(100) (each one pays a ~3 s Fermi estimate).
const AL_SETUP_REPS: usize = 3;
/// Set-ups per run on the nanotube (each ~20 ms).
const CNT_SETUP_REPS: usize = 21;
/// Where a run writes its spans, checkpoints and stored references.
const OUT_DIR: &str = ".perfbench";
/// Size of the eigenvalue error the gate must detect.
const PERTURBATION: f64 = 1e-3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    AlSweep,
    AlSweepPar,
    BncntPoint,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::AlSweep, Workload::AlSweepPar, Workload::BncntPoint];

    /// Threads the workload's executor runs on.
    fn threads(self) -> usize {
        if self == Workload::AlSweepPar {
            sys::nproc()
        } else {
            1
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AlSweep => "al_sweep",
            Workload::AlSweepPar => "al_sweep_par",
            Workload::BncntPoint => "bncnt_point",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A named metric with its unit, in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// What a run prints as its last line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// One timed call: its result, wall seconds and process CPU seconds.
struct Timed<R> {
    out: R,
    wall_s: f64,
    cpu_s: f64,
}

fn timed<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> Timed<R> {
    let cpu0 = sys::cpu_seconds();
    let (out, wall_s) = spans.time(name, |_| f());
    Timed { out, wall_s, cpu_s: sys::cpu_seconds() - cpu0 }
}

/// Build the inputs `reps` times; keeps the last build and every timing.
fn set_up(
    reps: usize,
    mut build: impl FnMut() -> (Inputs, SetupTimes),
) -> (Inputs, Vec<SetupTimes>) {
    let (mut inputs, first) = build();
    let mut times = vec![first];
    for _ in 1..reps {
        let (again, t) = build();
        inputs = again;
        times.push(t);
    }
    (inputs, times)
}

/// Repeat `once` for about `seconds`: at least once, then again while the
/// next call would end closer to `seconds` than stopping now.  Also returns
/// the peak resident memory after the first call, which later calls (their
/// number depends on the machine's speed) must not change.
fn repeat<R>(seconds: f64, mut once: impl FnMut() -> Timed<R>) -> (Vec<Timed<R>>, f64) {
    let start = Instant::now();
    let mut runs = vec![once()];
    let peak_rss_mb = sys::peak_rss_mb();
    while start.elapsed().as_secs_f64() + 0.5 * runs[runs.len() - 1].wall_s < seconds {
        runs.push(once());
    }
    (runs, peak_rss_mb)
}

/// A solve under a `cbs-trace` session, with the session's stage totals
/// and the wall time covered by at least one recorded stage.
struct Traced<R> {
    timed: Timed<R>,
    agg: StageAgg,
    covered_s: f64,
}

fn traced<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> Traced<R> {
    let session = TraceSession::begin(TraceLevel::Stage).expect("no other trace session runs");
    let w0 = cbs_trace::now_ns();
    let timed = timed(spans, name, f);
    let w1 = cbs_trace::now_ns();
    let report = session.finish();
    let mut intervals: Vec<(u64, u64)> = report
        .spans
        .iter()
        .map(|s| (s.start_ns.max(w0), s.end_ns.min(w1)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    Traced { timed, agg: report.stage_totals(), covered_s: covered as f64 * 1e-9 }
}

/// Counters of one solve that must repeat exactly.
fn sweep_signature(r: &SweepResult) -> Vec<usize> {
    let s = &r.stats;
    let mut sig = vec![
        s.total_bicg_iterations,
        s.total_matvecs,
        s.operator_traversals,
        s.operator_assemblies,
        s.cold_bicg_iterations,
        s.warm_bicg_iterations,
        s.accepted,
        s.discarded,
    ];
    for rec in &r.records {
        sig.extend([rec.channel_count(), rec.stats.numerical_rank, rec.stats.bicg_iterations]);
    }
    sig
}

fn point_signature(r: &SsResult) -> Vec<usize> {
    vec![
        r.total_bicg_iterations,
        r.total_matvecs,
        r.total_traversals,
        r.operator_assemblies,
        r.numerical_rank,
        r.eigenpairs.len(),
        r.discarded,
    ]
}

/// Solver counters of one solve, from whichever result type it returned.
#[derive(Default)]
struct Counters {
    iterations: usize,
    matvecs: usize,
    traversals: usize,
    assemblies: usize,
    kernel_ns: u64,
    precond_ns: u64,
    extraction_ns: u64,
    max_rank: usize,
    rank_sum: usize,
    accepted: usize,
    discarded: usize,
    unconverged: usize,
    cold_iterations: usize,
    warm_iterations: usize,
    cold_solves: usize,
    warm_solves: usize,
}

impl Counters {
    fn of_sweep(r: &SweepResult) -> Self {
        let s = &r.stats;
        Counters {
            iterations: s.total_bicg_iterations,
            matvecs: s.total_matvecs,
            traversals: s.operator_traversals,
            assemblies: s.operator_assemblies,
            kernel_ns: s.kernel_ns,
            precond_ns: s.precond_ns,
            extraction_ns: s.extraction_ns,
            max_rank: r.records.iter().map(|x| x.stats.numerical_rank).max().unwrap_or(0),
            rank_sum: r.records.iter().map(|x| x.stats.numerical_rank).sum(),
            accepted: s.accepted,
            discarded: s.discarded,
            // Majority-stop caps: the solves left unconverged on purpose.
            unconverged: r.records.iter().map(|x| x.stats.capped_solves).sum(),
            cold_iterations: s.cold_bicg_iterations,
            warm_iterations: s.warm_bicg_iterations,
            cold_solves: s.cold_solves,
            warm_solves: s.warm_started_solves,
        }
    }

    fn of_point(r: &PointRun) -> Self {
        let s = &r.result;
        let solves = s.solve_histories.len();
        Counters {
            iterations: s.total_bicg_iterations,
            matvecs: s.total_matvecs,
            traversals: s.total_traversals,
            assemblies: s.operator_assemblies,
            kernel_ns: r.stages.kernel_ns,
            precond_ns: r.stages.precond_ns,
            extraction_ns: r.extraction_ns,
            max_rank: s.numerical_rank,
            rank_sum: s.numerical_rank,
            accepted: s.eigenpairs.len(),
            discarded: s.discarded,
            unconverged: s.solve_histories.iter().filter(|h| !h.converged()).count(),
            cold_iterations: s.total_bicg_iterations,
            warm_iterations: 0,
            cold_solves: solves,
            warm_solves: 0,
        }
    }
}

/// A nanotube solve with the stage CPU counters read around it.
struct PointRun {
    result: SsResult,
    stages: StageTimes,
    extraction_ns: u64,
}

fn run_point(inputs: &Inputs, ss: &SsConfig) -> PointRun {
    let stages0 = cbs_sparse::stage_snapshot();
    let extraction0 = cbs_trace::cpu_totals()[Stage::Extraction as usize];
    let result = workload::point(inputs, ss, &SerialExecutor);
    PointRun {
        result,
        stages: cbs_sparse::stage_delta(stages0),
        extraction_ns: cbs_trace::cpu_totals()[Stage::Extraction as usize] - extraction0,
    }
}

/// Outcome of the correctness gate over one solve.
struct GateOutcome {
    attempted: usize,
    failed: usize,
    max_residual: f64,
    /// Whether the gate rejected a copy of the result with one eigenvalue
    /// moved by [`PERTURBATION`].
    flags_perturbation: bool,
}

impl GateOutcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.flags_perturbation
    }
}

/// Judge every energy against the reference levels; `residual` recomputes
/// the residual of eigenvalue `index` of a result moved to a new `λ`.
fn run_gate(
    results: &[EnergyResult],
    reference: Result<Vec<Vec<f64>>, String>,
    subspace: usize,
    lambda_min: f64,
    residual: impl Fn(&EnergyResult, usize, Complex64) -> f64,
) -> GateOutcome {
    let tol = Tolerances::DEFAULT;
    let levels = match reference {
        Ok(levels) => levels,
        Err(e) => {
            eprintln!("gate: no reference: {e}");
            return GateOutcome {
                attempted: results.len(),
                failed: results.len(),
                max_residual: 0.0,
                flags_perturbation: false,
            };
        }
    };
    let mut failed = 0;
    for r in results {
        let expected = gate::reference_channels(&levels, r.energy);
        let reasons = gate::judge(r, subspace, lambda_min, expected, &tol);
        eprintln!(
            "gate: E = {:.6}  channels {} (reference {expected})  rank {}  {}",
            r.energy,
            r.channels(&tol),
            r.numerical_rank,
            if reasons.is_empty() { "ok".to_string() } else { reasons.join("; ") }
        );
        failed += usize::from(!reasons.is_empty());
    }
    let max_residual = results.iter().flat_map(|r| r.residuals.iter().copied()).fold(0.0, f64::max);
    let flags_perturbation = results.iter().find(|r| !r.lambdas.is_empty()).is_some_and(|r| {
        let moved = r.lambdas[0] + Complex64::real(PERTURBATION);
        let mut lambdas = r.lambdas.clone();
        let mut residuals = r.residuals.clone();
        lambdas[0] = moved;
        residuals[0] = residual(r, 0, moved);
        let bad = EnergyResult { lambdas, residuals, ..*r };
        let expected = gate::reference_channels(&levels, r.energy);
        !gate::judge(&bad, subspace, lambda_min, expected, &tol).is_empty()
    });
    if !flags_perturbation {
        eprintln!("gate: a {PERTURBATION:e} eigenvalue error went undetected");
    }
    GateOutcome { attempted: results.len(), failed, max_residual, flags_perturbation }
}

/// Gate every energy of an Al(100) sweep against the stored band structure;
/// residuals come from the dense `T(λ)` (the sweep keeps no eigenvectors).
fn gate_sweep(
    spans: &mut Spans,
    out: &Path,
    inputs: &Inputs,
    result: &SweepResult,
    ss: &SsConfig,
) -> GateOutcome {
    spans
        .time("gate", |sp| {
            let (reference, _) = sp.time("gate.reference", |_| {
                gate::cached_levels(out, &workload::al_reference_key(&inputs.h), || {
                    workload::al_reference(&inputs.h, &inputs.energies)
                })
            });
            let dense = gate::DenseQep::new(&inputs.h.h00_csr(), &inputs.h.h01_csr());
            let results: Vec<EnergyResult> = result
                .records
                .iter()
                .map(|rec| {
                    let lambdas: Vec<Complex64> = rec.points.iter().map(|p| p.lambda).collect();
                    EnergyResult {
                        energy: rec.energy,
                        residuals: lambdas.iter().map(|&l| dense.residual(rec.energy, l)).collect(),
                        lambdas,
                        numerical_rank: rec.stats.numerical_rank,
                    }
                })
                .collect();
            run_gate(&results, reference, ss.subspace_size(), ss.lambda_min, |r, _, l| {
                dense.residual(r.energy, l)
            })
        })
        .0
}

/// Gate a single-energy solve of the nanotube against the Lanczos levels;
/// residuals use the solver's eigenvectors and the CSR blocks.
fn gate_point(
    spans: &mut Spans,
    out: &Path,
    inputs: &Inputs,
    result: &SsResult,
    ss: &SsConfig,
) -> GateOutcome {
    spans
        .time("gate", |sp| {
            let (reference, _) = sp.time("gate.reference", |_| {
                gate::cached_levels(out, &workload::cnt_reference_key(&inputs.h, ss.seed), || {
                    workload::cnt_reference(&inputs.h, &inputs.energies)
                })
            });
            let (h00, h01) = (inputs.h.h00_csr(), inputs.h.h01_csr());
            let energy = inputs.energies[0];
            let pairs = &result.eigenpairs;
            let checked = EnergyResult {
                energy,
                lambdas: pairs.iter().map(|p| p.lambda).collect(),
                residuals: pairs
                    .iter()
                    .map(|p| gate::sparse_residual(&h00, &h01, energy, p.lambda, &p.psi))
                    .collect(),
                numerical_rank: result.numerical_rank,
            };
            run_gate(&[checked], reference, ss.subspace_size(), ss.lambda_min, |_, i, l| {
                gate::sparse_residual(&h00, &h01, energy, l, &pairs[i].psi)
            })
        })
        .0
}

/// Checkpoint layer figures.
#[derive(Clone, Copy, Default)]
struct CheckpointLayer {
    bytes: f64,
    save_s: f64,
    load_s: f64,
}

/// Whether two record sets hold the same energies with bit-identical
/// counters and eigenvalues (checkpoints keep completion order, results
/// ascending energy).
fn same_records(a: &[EnergyRecord], b: &[EnergyRecord]) -> bool {
    fn sorted(r: &[EnergyRecord]) -> Vec<&EnergyRecord> {
        let mut v: Vec<&EnergyRecord> = r.iter().collect();
        v.sort_by(|x, y| x.energy.total_cmp(&y.energy));
        v
    }
    a.len() == b.len()
        && sorted(a).into_iter().zip(sorted(b)).all(|(x, y)| {
            x.energy.to_bits() == y.energy.to_bits()
                && x.stats == y.stats
                && x.seeded_from.map(f64::to_bits) == y.seeded_from.map(f64::to_bits)
                && x.points.len() == y.points.len()
                && x.points.iter().zip(&y.points).all(|(p, q)| {
                    p.lambda.re.to_bits() == q.lambda.re.to_bits()
                        && p.lambda.im.to_bits() == q.lambda.im.to_bits()
                        && p.residual.to_bits() == q.residual.to_bits()
                        && p.propagating == q.propagating
                })
        })
}

/// Load the sweep's final checkpoint, save it beside itself, load that
/// copy back; every load must hold the sweep's records.
fn checkpoint_layer(
    spans: &mut Spans,
    path: &Path,
    result: &SweepResult,
) -> Result<CheckpointLayer, String> {
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
    let (loaded, load_s) = spans.time("sweep.checkpoint_load", |_| SweepCheckpoint::load(path));
    let loaded = loaded.map_err(|e| format!("{e:?}"))?;
    let copy = path.with_extension("copy");
    let (saved, save_s) = spans.time("sweep.checkpoint_save", |_| loaded.save(&copy));
    saved.map_err(|e| e.to_string())?;
    let back = SweepCheckpoint::load(&copy).map_err(|e| format!("{e:?}"))?;
    std::fs::remove_file(&copy).map_err(|e| e.to_string())?;
    if !same_records(&loaded.records, &result.records)
        || !same_records(&back.records, &result.records)
    {
        return Err("checkpoint records differ from the sweep's".into());
    }
    Ok(CheckpointLayer { bytes, save_s, load_s })
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a, R> {
    setups: &'a [SetupTimes],
    inputs: &'a Inputs,
    counters: Counters,
    untraced: &'a [Timed<R>],
    traced: &'a Traced<R>,
    /// Wall seconds of an untraced solve run right after the traced one.
    trace_base_s: f64,
    subspace: usize,
    threads: usize,
    speedup: f64,
    cpu_inflation: f64,
    checkpoint: CheckpointLayer,
    gate: &'a GateOutcome,
}

fn layer_metrics<R>(l: LayerInputs<'_, R>) -> Metrics {
    let mut m = Metrics::default();
    let pick = |f: fn(&SetupTimes) -> f64| median(l.setups.iter().map(f));
    let c = &l.counters;
    let solve_s = median(l.untraced.iter().map(|t| t.wall_s));
    let cpu_s = median(l.untraced.iter().map(|t| t.cpu_s));
    let traced_s = l.traced.timed.wall_s;
    let wall = |s: Stage| l.traced.agg.wall(s) as f64 * 1e-9;

    m.put("dft.build_s", pick(|s| s.build_s), "s");
    m.put("dft.fermi_share", pick(|s| s.fermi_s) / pick(|s| s.total_s), "share");
    m.put("dft.n", l.inputs.h.dim() as f64, "count");
    m.put("dft.nnz", l.inputs.h.nnz() as f64, "count");

    m.put("sparse.pattern_s", pick(|s| s.pattern_s), "s");
    m.put("sparse.traversals", c.traversals as f64, "count");
    m.put("sparse.assemblies", c.assemblies as f64, "count");
    m.put("sparse.kernel_cpu_s", c.kernel_ns as f64 * 1e-9, "s");
    let operator_ns = (c.kernel_ns + c.precond_ns).max(1) as f64;
    m.put("sparse.precond_cpu_share", c.precond_ns as f64 / operator_ns, "share");
    m.put("sparse.kernel_wall_s", wall(Stage::Kernel), "s");
    m.put("sparse.assemble_wall_s", wall(Stage::Assemble), "s");
    m.put("sparse.tri_sweep_wall_share", wall(Stage::TriSweep) / traced_s, "share");
    m.put("sparse.ilu_factor_wall_share", wall(Stage::IluFactor) / traced_s, "share");
    // Computed, not measured: 16-byte values + 8-byte column indices of the
    // assembled pattern, once per operator traversal.
    let bytes = c.traversals as f64 * l.inputs.pattern.nnz() as f64 * 24.0;
    m.put("sparse.kernel_bytes", bytes, "B-computed");

    m.put("solver.iterations", c.iterations as f64, "count");
    m.put("solver.matvecs", c.matvecs as f64, "count");
    m.put("solver.solve_wall_s", wall(Stage::Solve), "s");
    m.put("solver.us_per_rhs_iteration", wall(Stage::Solve) * 1e6 / c.iterations as f64, "us");
    m.put("solver.unconverged_solves", c.unconverged as f64, "count");

    m.put("core.extraction_s", c.extraction_ns as f64 * 1e-9, "s");
    m.put("core.max_rank", c.max_rank as f64, "count");
    m.put("core.rank_headroom", l.subspace as f64 - c.max_rank as f64, "count");
    m.put("core.accepted", c.accepted as f64, "count");
    m.put("core.discarded", c.discarded as f64, "count");
    m.put("core.accept_ratio", c.accepted as f64 / c.rank_sum.max(1) as f64, "ratio");

    m.put("sweep.cold_iterations", c.cold_iterations as f64, "count");
    m.put("sweep.warm_iterations", c.warm_iterations as f64, "count");
    let per_solve = |iters: usize, solves: usize| iters as f64 / solves.max(1) as f64;
    let warm_saving = if c.warm_solves == 0 {
        0.0
    } else {
        1.0 - per_solve(c.warm_iterations, c.warm_solves)
            / per_solve(c.cold_iterations, c.cold_solves)
    };
    m.put("sweep.warm_saving", warm_saving, "share");
    let ck = &l.checkpoint;
    let rate = |s: f64| if s > 0.0 { ck.bytes / s / 1e6 } else { 0.0 };
    m.put("sweep.checkpoint_bytes", ck.bytes, "B");
    m.put("sweep.checkpoint_save_rate", rate(ck.save_s), "MB/s");
    m.put("sweep.checkpoint_load_rate", rate(ck.load_s), "MB/s");

    m.put("parallel.threads", l.threads as f64, "count");
    m.put("parallel.speedup", l.speedup, "ratio");
    m.put("parallel.idle_share", 1.0 - cpu_s / (l.threads as f64 * solve_s), "share");
    m.put("parallel.cpu_inflation", l.cpu_inflation, "ratio");

    m.put("trace.overhead", traced_s / l.trace_base_s - 1.0, "ratio");
    m.put("trace.unattributed_share", 1.0 - l.traced.covered_s / traced_s, "share");

    m.put("gate.failed_energy_share", l.gate.failed as f64 / l.gate.attempted as f64, "share");
    m.put("gate.max_residual", l.gate.max_residual, "Ha");
    m
}

fn end_to_end<R>(setups: &[SetupTimes], untraced: &[Timed<R>], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("solve_s", median(untraced.iter().map(|t| t.wall_s)), "s");
    m.put("setup_s", median(setups.iter().map(|s| s.total_s)), "s");
    m.put("cpu_s", median(untraced.iter().map(|t| t.cpu_s)), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m
}

fn run_al(args: &Args, spans: &mut Spans, out: &Path) -> Report {
    let par = args.workload == Workload::AlSweepPar;
    let (inputs, setups) = set_up(AL_SETUP_REPS, || workload::al_setup(spans));
    let ss = workload::ss_config(args.seed);
    let cp = out.join(format!("{}-{}.checkpoint", args.workload.name(), args.seed));
    let sweep_serial = || workload::sweep(&inputs, ss, &SerialExecutor, &cp);
    let sweep = || {
        if par {
            workload::sweep(&inputs, ss, &RayonExecutor, &cp)
        } else {
            sweep_serial()
        }
    };

    let (untraced, peak_rss_mb) = repeat(args.seconds, || {
        let t = timed(spans, "sweep.run_with", sweep);
        eprintln!("solve: {:.3} s, {} iterations", t.wall_s, t.out.stats.total_bicg_iterations);
        t
    });
    let result = &untraced[0].out;
    let signature = sweep_signature(result);
    let mut deterministic = untraced.iter().all(|t| sweep_signature(&t.out) == signature);

    let checkpoint = match checkpoint_layer(spans, &cp, result) {
        Ok(layer) => Some(layer),
        Err(e) => {
            eprintln!("checkpoint: {e}");
            None
        }
    };

    let gate = gate_sweep(spans, out, &inputs, result, &ss);

    let metrics = if args.trace {
        let traced = traced(spans, "sweep.run_with", sweep);
        let base = timed(spans, "sweep.run_with", sweep);
        deterministic &= sweep_signature(&traced.timed.out) == signature
            && sweep_signature(&base.out) == signature;
        let (speedup, cpu_inflation) = if par {
            let serial = timed(spans, "sweep.run_with.serial", sweep_serial);
            deterministic &= sweep_signature(&serial.out) == signature;
            let par_s = median(untraced.iter().map(|t| t.wall_s));
            (
                serial.wall_s / par_s,
                result.stats.kernel_ns as f64 / serial.out.stats.kernel_ns as f64,
            )
        } else {
            (1.0, 1.0)
        };
        layer_metrics(LayerInputs {
            setups: &setups,
            inputs: &inputs,
            counters: Counters::of_sweep(result),
            untraced: &untraced,
            traced: &traced,
            trace_base_s: base.wall_s,
            subspace: ss.subspace_size(),
            threads: args.workload.threads(),
            speedup,
            cpu_inflation,
            checkpoint: checkpoint.unwrap_or_default(),
            gate: &gate,
        })
    } else {
        end_to_end(&setups, &untraced, peak_rss_mb)
    };
    let _ = std::fs::remove_file(&cp);
    if !deterministic {
        eprintln!("determinism: counters differ between repeats or executors");
    }
    Report {
        correct: gate.correct() && deterministic && checkpoint.is_some(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    }
}

fn run_cnt(args: &Args, spans: &mut Spans, out: &Path) -> Report {
    let (inputs, setups) = set_up(CNT_SETUP_REPS, || workload::cnt_setup(spans, args.seed));
    let ss = workload::ss_config(args.seed);
    let solve = || run_point(&inputs, &ss);

    let (untraced, peak_rss_mb) = repeat(args.seconds, || {
        let t = timed(spans, "core.solve_qep_with", solve);
        eprintln!("solve: {:.3} s, {} iterations", t.wall_s, t.out.result.total_bicg_iterations);
        t
    });
    let run = &untraced[0].out;
    let signature = point_signature(&run.result);
    let mut deterministic = untraced.iter().all(|t| point_signature(&t.out.result) == signature);

    let gate = gate_point(spans, out, &inputs, &run.result, &ss);

    let metrics = if args.trace {
        let traced = traced(spans, "core.solve_qep_with", solve);
        let base = timed(spans, "core.solve_qep_with", solve);
        deterministic &= point_signature(&traced.timed.out.result) == signature
            && point_signature(&base.out.result) == signature;
        layer_metrics(LayerInputs {
            setups: &setups,
            inputs: &inputs,
            counters: Counters::of_point(run),
            untraced: &untraced,
            traced: &traced,
            trace_base_s: base.wall_s,
            subspace: ss.subspace_size(),
            threads: 1,
            speedup: 1.0,
            cpu_inflation: 1.0,
            checkpoint: CheckpointLayer::default(),
            gate: &gate,
        })
    } else {
        end_to_end(&setups, &untraced, peak_rss_mb)
    };
    if !deterministic {
        eprintln!("determinism: counters differ between repeats");
    }
    Report {
        correct: gate.correct() && deterministic,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload al_sweep|al_sweep_par|bncnt_point \
                 --seed <n> --seconds <s> --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Environment knobs change policies and sizes behind the benchmark's
    // back; a run under any of them would not measure the defaults.
    let knobs: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("CBS_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", knobs.join(", "));
        std::process::exit(2);
    }
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let tag = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let mut spans = Spans::new(format!("{tag}-pid{}", std::process::id()));
    println!("# machine {}", sys::machine_info(args.workload.threads()));

    let report = match args.workload {
        Workload::AlSweep | Workload::AlSweepPar => run_al(&args, &mut spans, &out),
        Workload::BncntPoint => run_cnt(&args, &mut spans, &out),
    };
    if let Err(e) = spans.write(&out.join(format!("spans-{tag}.json"))) {
        eprintln!("perfbench: cannot write spans: {e}");
        std::process::exit(1);
    }
    println!("{}", report.json());
}
