//! The shifted-solve pool: step 1 of the Sakurai-Sugiura method for one or
//! many contours at once.
//!
//! The contour quadrature needs the solutions of `N_int x N_rh` independent
//! linear systems `P(z_j) y = v_r` (plus their duals, which serve the inner
//! circle for free).  Those solves are the dominant cost of the whole method
//! and are embarrassingly parallel — the paper's top two parallel layers.
//!
//! One "group" is an independent set of shifted dual-BiCG systems sharing a
//! [`QepProblem`], a node set and a source block: the single contour of
//! [`solve_qep_with`](crate::ss::solve_qep_with), a scan energy of a sweep,
//! one [`ContourSlice`](crate::partition::ContourSlice) of a sliced solve,
//! or a `(scan energy x slice)` cell of a sliced sweep.  Instead of running
//! the groups one after another (each dispatching its own small batch),
//! [`solve_pool`] concatenates the jobs of **all** groups into a single
//! batch per majority-stop stage and dispatches that through the
//! [`TaskExecutor`] seam — so a wide executor stays saturated even when a
//! single group's grid is smaller than the machine.
//!
//! One job is one quadrature node of one group: all of the group's
//! right-hand sides advance in lockstep through
//! `cbs_solver::bicg_dual_block`'s fused block matvecs.  The operator
//! representation and its preconditioner follow [`PrecondPolicy`] through
//! [`QepProblem::node_solve`], called once per job; the node's operator
//! (an assembled CSR, an ILU factor) is dropped when its job ends.
//!
//! Determinism contract: jobs are listed group-major in node order,
//! executors return results in input order, a job unpacks its outcomes in
//! rhs order, and each group's [`MomentAccumulator`] folds only its own
//! outcomes in that order (`j * N_rh + rhs`) — so the accumulated moments
//! (and everything extracted from them) are bit-identical on every
//! executor, and a group's result does not depend on which other groups
//! share the pool.  The paper's majority-stop load-balancing rule runs in a
//! **deterministic two-stage form** per group: the first `N_int/2 + 1`
//! nodes of the group always run to convergence; if they all converge, the
//! remaining nodes run with their iteration count capped at the worst
//! converged count of the first stage.  The cap is a pure function of the
//! group's first-stage results, independent of scheduling.

use cbs_linalg::{CVector, Complex64};
use cbs_parallel::TaskExecutor;
use cbs_solver::{bicg_dual_block, ConvergenceHistory, SolverOptions};
use cbs_trace::TraceHandle;

use crate::qep::{PrecondPolicy, QepProblem};
use crate::ss::{MomentAccumulator, SsConfig};

/// The solution of one shifted system and its dual.
#[derive(Clone, Debug)]
pub struct ShiftedSolveOutcome {
    /// Index `j` of the primal quadrature node within its group.
    pub point_index: usize,
    /// Index of the right-hand side.
    pub rhs_index: usize,
    /// Solution of `P(z_j) x = v` (outer circle).
    pub x: CVector,
    /// Solution of `P(z_j)† x̃ = v`, i.e. the system at the paired
    /// inner-circle node `1/conj(z_j)`.
    pub dual_x: CVector,
    /// Convergence history of the primal solve.
    pub history: ConvergenceHistory,
    /// Convergence history of the dual solve.
    pub dual_history: ConvergenceHistory,
}

/// One group entering the pool.  The group's node set travels with its
/// [`MomentAccumulator`] (passed alongside to [`solve_pool`]).
pub struct PoolGroup<'p, 'a> {
    /// The QEP this group's shifts act on.
    pub problem: &'p QepProblem<'a>,
    /// The group's source block (its right-hand sides).
    pub v_cols: &'p [CVector],
    /// Full job-order warm-start table (`n_nodes * n_rh` pairs), or `None`
    /// for a cold group.
    pub seeds: Option<&'p [(CVector, CVector)]>,
    /// Retain the group's solutions as a donor table.  `false` drops each
    /// solution after its moment contribution, keeping the footprint at
    /// the accumulated moments.
    pub keep_solutions: bool,
    /// Trace handle for the group's solves: each job opens a `solve` span
    /// under this handle's context (energy/slice set by the driver, node
    /// filled per job).  [`TraceHandle::disabled`] for untraced runs.
    pub trace: TraceHandle,
}

/// Everything the pool produces for one group.
pub struct PoolOutcome {
    /// The group's accumulated moments and histories.
    pub acc: MomentAccumulator,
    /// Primal BiCG iterations summed over the group's solves.
    pub iterations: usize,
    /// Operator applications (matvec-equivalents) summed over the group.
    pub matvecs: usize,
    /// Operator-storage traversals actually performed for the group (fused
    /// block applies count the operator's `traversal_weight`).
    pub traversals: usize,
    /// Numeric refills of the assembled pattern (ILU factorizations
    /// included) performed for the group: one per quadrature node under the
    /// assembled policies, zero under `PrecondPolicy::MatrixFree`.
    pub assemblies: usize,
    /// Solves that ran under the majority-stop cap.
    pub capped_solves: usize,
    /// Number of solves (each = one primal+dual pair).
    pub solves: usize,
    /// `(x, x̃)` solutions in job order — the group's donor table.
    pub solutions: Vec<(CVector, CVector)>,
}

/// The dispatch knobs shared by every group of a pool run.
#[derive(Clone, Copy, Debug)]
pub struct PoolPolicy {
    /// BiCG options (tolerance, iteration cap, history recording).
    pub options: SolverOptions,
    /// Enable the deterministic per-group majority-stop rule.
    pub majority_stop: bool,
    /// Operator representation / preconditioning.
    pub precond: PrecondPolicy,
}

impl PoolPolicy {
    /// The pool knobs implied by a solver configuration.
    pub fn from_config(config: &SsConfig) -> Self {
        Self {
            options: config.solver_options(),
            majority_stop: config.majority_stop,
            precond: config.precond,
        }
    }
}

/// Majority-stop bookkeeping for one group.
struct GroupTracking {
    point_converged: Vec<bool>,
    converged_iter_max: usize,
}

impl GroupTracking {
    fn new(n_nodes: usize) -> Self {
        Self { point_converged: vec![true; n_nodes], converged_iter_max: 0 }
    }

    fn record(&mut self, o: &ShiftedSolveOutcome) {
        self.point_converged[o.point_index] &= o.history.converged() && o.dual_history.converged();
        if o.history.converged() {
            self.converged_iter_max = self.converged_iter_max.max(o.history.iterations());
        }
    }

    fn converged_among(&self, n_points: usize) -> usize {
        self.point_converged[..n_points].iter().filter(|&&c| c).count()
    }
}

/// Per-group mutable counters (assembled into [`PoolOutcome`] at the end).
#[derive(Default)]
struct GroupCounters {
    iterations: usize,
    matvecs: usize,
    traversals: usize,
    assemblies: usize,
    capped_solves: usize,
    solves: usize,
    solutions: Vec<(CVector, CVector)>,
}

/// One job of the flattened pool: a whole quadrature node of one group
/// (all of that group's right-hand sides).
#[derive(Clone, Copy)]
struct NodeJob {
    group: usize,
    point_index: usize,
    cap: Option<usize>,
}

/// Solve all groups through a single flattened task pool; `accs[g]` is
/// group `g`'s accumulator and node set.
///
/// Returns one [`PoolOutcome`] per group, in group order.
pub fn solve_pool<E: TaskExecutor>(
    groups: &[PoolGroup<'_, '_>],
    accs: Vec<MomentAccumulator>,
    policy: &PoolPolicy,
    executor: &E,
) -> Vec<PoolOutcome> {
    assert_eq!(groups.len(), accs.len(), "one accumulator per pool group expected");
    let shifts: Vec<Vec<Complex64>> =
        accs.iter().map(|a| (0..a.n_nodes()).map(|j| a.node_shift(j)).collect()).collect();
    let n_rh: Vec<usize> = groups.iter().map(|g| g.v_cols.len()).collect();
    let options = policy.options;

    let run_job = |job: NodeJob| -> (usize, usize, usize, Vec<ShiftedSolveOutcome>) {
        let group = &groups[job.group];
        let _solve_span = group.trace.solve_scope(job.point_index);
        let (op, prec) =
            group.problem.node_solve(policy.precond, shifts[job.group][job.point_index]);
        let assemblies = op.is_assembled() as usize;
        let stop_at = job.cap.map(|c| c.max(1));
        let stop_cb = move |iter: usize| stop_at.is_some_and(|c| iter >= c);
        let external: Option<&(dyn Fn(usize) -> bool + Sync)> =
            if stop_at.is_some() { Some(&stop_cb) } else { None };
        let seed_vec: Vec<Option<(&CVector, &CVector)>> = (0..n_rh[job.group])
            .map(|r| {
                group
                    .seeds
                    .map(|t| &t[job.point_index * n_rh[job.group] + r])
                    .map(|(x, xt)| (x, xt))
            })
            .collect();
        let res = bicg_dual_block(
            &op,
            &prec,
            group.v_cols,
            group.v_cols,
            Some(&seed_vec),
            &options,
            external,
        );
        let traversals = res.traversals;
        let outcomes = res
            .columns
            .into_iter()
            .enumerate()
            .map(|(rhs_index, col)| ShiftedSolveOutcome {
                point_index: job.point_index,
                rhs_index,
                x: col.x,
                dual_x: col.dual_x,
                history: col.history,
                dual_history: col.dual_history,
            })
            .collect();
        (job.group, traversals, assemblies, outcomes)
    };

    // Per-group stage-1 size: strictly more than half of the group's nodes.
    let stage1_points: Vec<usize> = shifts.iter().map(|s| (s.len() / 2 + 1).min(s.len())).collect();

    let mut accs = accs;
    let mut counters: Vec<GroupCounters> =
        groups.iter().map(|_| GroupCounters::default()).collect();
    for (g, c) in counters.iter_mut().enumerate() {
        if groups[g].keep_solutions {
            c.solutions.reserve(shifts[g].len() * n_rh[g]);
        }
    }
    let mut tracking: Vec<GroupTracking> =
        shifts.iter().map(|s| GroupTracking::new(s.len())).collect();

    // Fold step shared by both stages: runs on the calling thread in input
    // (= group-major job) order on every executor.  Takes its mutable state
    // explicitly so the borrows end with each stage.
    let record = |tracking: &mut [GroupTracking],
                  accs: &mut [MomentAccumulator],
                  counters: &mut [GroupCounters],
                  (g, traversals, assemblies, job_outcomes): (
        usize,
        usize,
        usize,
        Vec<ShiftedSolveOutcome>,
    )| {
        counters[g].traversals += traversals;
        counters[g].assemblies += assemblies;
        for outcome in job_outcomes {
            tracking[g].record(&outcome);
            let c = &mut counters[g];
            c.iterations += outcome.history.iterations();
            c.matvecs += outcome.history.matvecs;
            c.solves += 1;
            let pair = accs[g].record(outcome);
            if groups[g].keep_solutions {
                c.solutions.push(pair);
            }
        }
    };

    // Dispatch one stage over each group's `stage`-range of nodes.  0 = full
    // node list (no majority stop), 1 = first stage, 2 = second stage.
    let run_stage = |stage: u8,
                     caps: &[Option<usize>],
                     tracking: &mut Vec<GroupTracking>,
                     accs: &mut Vec<MomentAccumulator>,
                     counters: &mut Vec<GroupCounters>| {
        let range = |g: usize| match stage {
            0 => 0..shifts[g].len(),
            1 => 0..stage1_points[g],
            _ => stage1_points[g]..shifts[g].len(),
        };
        let mut jobs = Vec::new();
        for (g, &cap) in caps.iter().enumerate() {
            for point_index in range(g) {
                jobs.push(NodeJob { group: g, point_index, cap });
            }
        }
        executor.execute_fold(jobs, run_job, (), |(), o| record(tracking, accs, counters, o));
    };

    if !policy.majority_stop {
        let caps = vec![None; groups.len()];
        run_stage(0, &caps, &mut tracking, &mut accs, &mut counters);
    } else {
        // Stage 1: strictly more than half of each group's quadrature
        // points run to convergence, uncapped.
        let caps = vec![None; groups.len()];
        run_stage(1, &caps, &mut tracking, &mut accs, &mut counters);

        // Per-group cap, from the group's own stage-1 results only.
        let caps: Vec<Option<usize>> = tracking
            .iter()
            .enumerate()
            .map(|(g, t)| {
                let converged = t.converged_among(stage1_points[g]);
                if converged * 2 > shifts[g].len() && t.converged_iter_max > 0 {
                    Some(t.converged_iter_max)
                } else {
                    None
                }
            })
            .collect();
        for (g, cap) in caps.iter().enumerate() {
            if cap.is_some() {
                counters[g].capped_solves = (shifts[g].len() - stage1_points[g]) * n_rh[g];
            }
        }
        run_stage(2, &caps, &mut tracking, &mut accs, &mut counters);
    }

    accs.into_iter()
        .zip(counters)
        .map(|(acc, c)| PoolOutcome {
            acc,
            iterations: c.iterations,
            matvecs: c.matvecs,
            traversals: c.traversals,
            assemblies: c.assemblies,
            capped_solves: c.capped_solves,
            solves: c.solves,
            solutions: c.solutions,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::{RayonExecutor, SerialExecutor};
    use cbs_sparse::{AssembledPattern, CsrMatrix, LinearOperator};
    use rand::SeedableRng;

    /// A small dense QEP: Hermitian on-cell block, weak coupling block.
    fn dense_blocks(n: usize, seed: u64) -> (CsrMatrix, CsrMatrix) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.3, 0.0));
        (CsrMatrix::from_dense(&h00, 0.0), CsrMatrix::from_dense(&h01, 0.0))
    }

    fn config(n_int: usize, n_rh: usize, majority_stop: bool) -> SsConfig {
        SsConfig {
            n_int,
            n_mm: 2,
            n_rh,
            bicg_tolerance: 1e-11,
            majority_stop,
            precond: PrecondPolicy::MatrixFree,
            ..SsConfig::small()
        }
    }

    /// Run one pool over `problems` (one group each) and return the outcomes
    /// with every group's solutions kept.
    fn run<E: TaskExecutor>(
        problems: &[QepProblem<'_>],
        config: &SsConfig,
        seeds: Option<&[Vec<(CVector, CVector)>]>,
        executor: &E,
    ) -> Vec<PoolOutcome> {
        let n = problems[0].dim();
        let v_cols = crate::ss::source_block(n, config);
        let groups: Vec<PoolGroup<'_, '_>> = problems
            .iter()
            .enumerate()
            .map(|(g, problem)| PoolGroup {
                problem,
                v_cols: &v_cols,
                seeds: seeds.map(|s| s[g].as_slice()),
                keep_solutions: true,
                trace: TraceHandle::disabled(),
            })
            .collect();
        let accs = problems.iter().map(|_| MomentAccumulator::new(n, config)).collect();
        solve_pool(&groups, accs, &PoolPolicy::from_config(config), executor)
    }

    fn assert_bitwise_eq(a: &PoolOutcome, b: &PoolOutcome) {
        assert_eq!(a.solutions, b.solutions, "solutions differ");
        let (ha, hb) = (a.acc.histories(), b.acc.histories());
        assert_eq!(ha.len(), hb.len());
        for (x, y) in ha.iter().zip(hb) {
            assert_eq!(x.residuals, y.residuals);
            assert_eq!(x.stop_reason, y.stop_reason);
        }
        assert_eq!(
            (a.iterations, a.matvecs, a.traversals, a.capped_solves, a.solves),
            (b.iterations, b.matvecs, b.traversals, b.capped_solves, b.solves)
        );
    }

    #[test]
    fn outcomes_come_back_in_job_order() {
        let (h00, h01) = dense_blocks(12, 31);
        let problem = QepProblem::new(&h00, &h01, 0.1, 1.0);
        let cfg = config(6, 3, false);
        let out = run(std::slice::from_ref(&problem), &cfg, None, &SerialExecutor).remove(0);
        let v_cols = crate::ss::source_block(12, &cfg);
        let nodes = cfg.contour().outer_points();
        assert_eq!(out.solves, 6 * 3);
        assert_eq!(out.solutions.len(), 6 * 3);
        assert_eq!(out.acc.histories().len(), 6 * 3);
        // Solution `j * N_rh + r` solves P(z_j) x = v_r, and its dual solves
        // the paired system P(z_j)† x̃ = v_r.
        for (idx, (x, xt)) in out.solutions.iter().enumerate() {
            let (j, r) = (idx / 3, idx % 3);
            let op = problem.operator(nodes[j].z);
            let primal = &op.apply_vec(x) - &v_cols[r];
            let mut dual = CVector::zeros(12);
            op.apply_adjoint(xt.as_slice(), dual.as_mut_slice());
            let dual = &dual - &v_cols[r];
            assert!(primal.norm() <= 1e-9 * v_cols[r].norm(), "job {idx} primal");
            assert!(dual.norm() <= 1e-9 * v_cols[r].norm(), "job {idx} dual");
        }
        assert!(out.iterations > 0);
        assert!(out.matvecs >= 2 * out.iterations);
        assert_eq!(out.capped_solves, 0);
    }

    #[test]
    fn majority_stop_caps_the_second_stage() {
        let (h00, h01) = dense_blocks(14, 35);
        let problem = QepProblem::new(&h00, &h01, 0.1, 1.0);
        let (n_int, n_rh) = (8, 2);
        let out =
            run(std::slice::from_ref(&problem), &config(n_int, n_rh, true), None, &SerialExecutor)
                .remove(0);
        let stage1 = n_int / 2 + 1;
        assert_eq!(out.capped_solves, (n_int - stage1) * n_rh);
        let histories = out.acc.histories();
        // The cap is the worst converged stage-1 count; the rule fired
        // because every stage-1 solve converged.
        assert!(histories[..stage1 * n_rh].iter().all(ConvergenceHistory::converged));
        let cap =
            histories[..stage1 * n_rh].iter().map(ConvergenceHistory::iterations).max().unwrap();
        for h in &histories[stage1 * n_rh..] {
            assert!(h.iterations() <= cap, "stage-2 solve ran {} > cap {cap}", h.iterations());
        }
    }

    #[test]
    fn serial_and_rayon_agree_bitwise_across_groups() {
        let (h00, h01) = dense_blocks(16, 33);
        let problems =
            [QepProblem::new(&h00, &h01, 0.05, 1.0), QepProblem::new(&h00, &h01, 0.15, 1.0)];
        for majority in [false, true] {
            let cfg = config(8, 4, majority);
            let serial = run(&problems, &cfg, None, &SerialExecutor);
            let rayon = run(&problems, &cfg, None, &RayonExecutor);
            for (s, r) in serial.iter().zip(&rayon) {
                assert_bitwise_eq(s, r);
            }
            // A group's result does not depend on the groups sharing its pool.
            let alone = run(&problems[1..], &cfg, None, &SerialExecutor);
            assert_bitwise_eq(&serial[1], &alone[0]);
        }
    }

    #[test]
    fn seeded_groups_cut_iterations_and_stay_executor_deterministic() {
        let (h00, h01) = dense_blocks(14, 42);
        let problem = QepProblem::new(&h00, &h01, 0.1, 1.0);
        let problems = std::slice::from_ref(&problem);
        let cfg = config(6, 3, false);
        // Reuse a cold run's own solutions as seeds: every solve now starts
        // at the answer and converges (almost) without iterating.
        let cold = run(problems, &cfg, None, &SerialExecutor).remove(0);
        let seeds = vec![cold.solutions.clone()];
        let warm = run(problems, &cfg, Some(&seeds), &SerialExecutor).remove(0);
        assert!(cold.iterations > 0);
        assert!(
            warm.iterations < cold.iterations / 4,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.acc.histories().iter().all(ConvergenceHistory::converged));
        let warm_rayon = run(problems, &cfg, Some(&seeds), &RayonExecutor).remove(0);
        assert_bitwise_eq(&warm, &warm_rayon);
    }

    #[test]
    fn each_node_is_assembled_once() {
        let (h00, h01) = dense_blocks(10, 38);
        let pattern = AssembledPattern::build(&h00, &h01);
        let problem = QepProblem::new(&h00, &h01, 0.1, 1.0).with_pattern(&pattern);
        let problems = std::slice::from_ref(&problem);
        for majority in [false, true] {
            for (precond, per_node) in [
                (PrecondPolicy::MatrixFree, 0),
                (PrecondPolicy::Assembled, 1),
                (PrecondPolicy::AssembledIlu0, 1),
            ] {
                let cfg = SsConfig { precond, ..config(6, 4, majority) };
                let out = run(problems, &cfg, None, &SerialExecutor).remove(0);
                assert_eq!(out.solves, 6 * 4);
                assert_eq!(out.assemblies, 6 * per_node, "{precond:?}");
            }
        }
    }
}
