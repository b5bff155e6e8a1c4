//! # cbs-solver
//!
//! Iterative solvers for the CBS workspace:
//!
//! * [`bicg_dual`] — preconditioned BiCG solving `A x = b` *and*
//!   `A† x̃ = b̃` in one sweep, optionally warm-started; this is the kernel
//!   the paper uses to halve the cost of the contour quadrature
//!   (`P(z)† = P(1/z̄)`), kept as the per-column bitwise reference.  The
//!   preconditioner `M` is applied as `M⁻¹` on the primal residuals and
//!   `M⁻†` on the dual (e.g. `cbs_sparse::Ilu0` of the assembled `P(z)`);
//!   `cbs_sparse::IdentityOp` runs plain BiCG bit for bit,
//! * [`bicg_dual_block`] — all right-hand sides of one shifted system
//!   advanced in lockstep through fused block matvecs and blocked
//!   preconditioner applies, with per-column deflation and bitwise parity
//!   with [`bicg_dual`] per column,
//! * [`bicg()`] — single-system unpreconditioned BiCG (the OBM baseline's
//!   solver),
//! * [`lanczos_lowest`] — Hermitian Lanczos with full reorthogonalization for
//!   the conventional band-structure reference,
//! * [`ConvergenceHistory`] / [`SolverOptions`] — the residual-history
//!   bookkeeping behind the paper's Figure 5 and Table 1.

#![warn(missing_docs)]

pub mod bicg;
pub mod block;
pub mod history;
pub mod lanczos;

pub use bicg::{bicg, bicg_dual, BicgResult};
pub use block::{bicg_dual_block, BlockBicgResult};
pub use history::{ConvergenceHistory, SolverOptions, StopReason};
pub use lanczos::{lanczos_lowest, LanczosOptions, LanczosResult};
