//! The engine's float tolerances, consolidated in one module.
//!
//! Every accept rule and feasibility check in the mapping engine
//! compares floats with a tolerance. Two call sites inlining different
//! literals for the *same* rule is exactly the kind of drift the
//! differential harnesses exist to catch dynamically — and the
//! `eps-discipline` lint in `umpa-tidy` now catches statically: any
//! scientific-notation literal with a negative exponent outside this
//! module fails CI. If a new tolerance is genuinely needed, define and
//! document it here and reference it by name.
//!
//! The values themselves are frozen: the congestion refiner's frozen
//! reference (`tests/reference/cong.rs`) reads the same constants, so
//! changing one here changes both sides of the differential harness in
//! lockstep — deliberately. A change that should *not* apply to the
//! reference is a semantic change and must fork the constant.

/// Absolute tolerance of every capacity comparison in the mapping
/// engine. Task weights and node capacities are small integers (or sums
/// of them) represented as `f64`, so repeated increment/decrement can
/// drift by ULPs; comparisons allow this much slack so a task that
/// exactly fills a node still "fits".
pub const CAPACITY_EPS: f64 = 1e-9;

/// Tolerance of the congestion refiner's accept rule and traffic
/// zero-clamp. Link congestion values are ratios of accumulated traffic
/// to bandwidth; a move is an improvement only if it beats the current
/// maximum by more than this, and residual traffic below this is
/// clamped to exactly zero so emptied links leave the heap. Shared by
/// `cong_refine` and its frozen reference in `tests/reference/cong.rs`
/// so the differential harness compares like with like.
pub const CONG_EPS: f64 = 1e-12;

/// Minimum weighted-hop gain for the WH refiner to accept a move or
/// swap. Gains at or below this are noise from incremental float
/// updates; accepting them would churn placements without improving the
/// metric and could cycle.
pub const GAIN_EPS: f64 = 1e-9;

/// Relative tolerance of the WH refiner's debug drift check: the
/// incrementally maintained weighted-hop total must stay within
/// `DRIFT_EPS * (1 + WH)` of a from-scratch recomputation. Much looser
/// than the accept tolerances because it bounds accumulated error over
/// an entire refinement pass, not a single comparison.
pub const DRIFT_EPS: f64 = 1e-6;

/// The fraction of its starting value below which the WH refiner
/// recomputes its incrementally maintained total: the accumulated
/// rounding error scales with the starting value, so a total that
/// cancels down past this fraction could drift outside `DRIFT_EPS`.
pub(crate) const DRIFT_RESYNC: f64 = 1e-3;
