//! Deterministic solver fault injection
//! (`--features fault-inject` only — zero cost otherwise).
//!
//! The divergence-safety contract says no solver path ever returns `Ok`
//! with a non-finite or silently-perturbed temperature field. This
//! module *attacks* that contract on purpose: a seeded [`FaultPlan`]
//! breaks one solve in a controlled way — poisoning a cell of the
//! iterate with NaN/∞ at solve entry, corrupting a residual evaluation
//! mid-iteration, or truncating the iteration budget — and the
//! `tsc-verify` harness asserts every injected fault surfaces as a
//! typed error ([`crate::SolveError::Diverged`],
//! [`crate::SolveError::NotConverged`], or
//! `ElectrothermalError::ThermalRunaway` through the coupled loop),
//! never as a quietly wrong `Ok`.
//!
//! Plans are armed per **thread** ([`arm`]/[`disarm`]), so concurrently
//! running tests cannot contaminate each other, and every knob is
//! derived from a `tsc-rng` seed ([`FaultPlan::from_seed`]) so a failing
//! seed replays exactly.

use std::cell::Cell;

/// What to break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one cell of the iterate with NaN at solve entry.
    PoisonCellNan,
    /// Overwrite one cell of the iterate with +∞ at solve entry.
    PoisonCellInf,
    /// Replace a residual evaluation with NaN once the trigger
    /// iteration is reached.
    ResidualNan,
    /// Replace a residual evaluation with +∞ once the trigger iteration
    /// is reached.
    ResidualInf,
    /// Truncate the iteration/sweep/cycle budget to the trigger value.
    TruncateBudget,
}

/// A deterministic description of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The corruption to apply.
    pub kind: FaultKind,
    /// Zero-based index of the solver invocation (per thread, counted
    /// from [`arm`]) the fault targets; earlier and later solves run
    /// clean. Lets a fault fire inside e.g. the electrothermal loop's
    /// *second* inner solve rather than the first.
    pub target_solve: usize,
    /// Iteration at which residual corruption fires, and the truncated
    /// budget for [`FaultKind::TruncateBudget`].
    pub trigger_iteration: usize,
    /// Poisoned cell as a fraction of the field length in `[0, 1)`.
    pub cell_position: f64,
}

impl FaultPlan {
    /// Derives a plan from a seed: every field comes from one
    /// `tsc-rng` SplitMix64 stream, so a seed fully determines the
    /// fault and a failing seed replays bit-for-bit.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = tsc_rng::Rng64::seed_from_u64(seed);
        let kind = match rng.gen_range(0..5) {
            0 => FaultKind::PoisonCellNan,
            1 => FaultKind::PoisonCellInf,
            2 => FaultKind::ResidualNan,
            3 => FaultKind::ResidualInf,
            _ => FaultKind::TruncateBudget,
        };
        Self {
            kind,
            target_solve: rng.gen_range(0..2),
            trigger_iteration: rng.gen_range(1..8),
            cell_position: rng.gen_f64(),
        }
    }

    /// The same plan retargeted at another solve invocation.
    #[must_use]
    pub fn targeting_solve(mut self, index: usize) -> Self {
        self.target_solve = index;
        self
    }
}

thread_local! {
    static PLAN: Cell<Option<FaultPlan>> = const { Cell::new(None) };
    /// Solver invocations since the plan was armed.
    static SOLVES: Cell<usize> = const { Cell::new(0) };
    /// Corruptions actually applied.
    static INJECTIONS: Cell<usize> = const { Cell::new(0) };
}

/// Arms `plan` on the calling thread and resets the solve/injection
/// counters. The plan stays armed (faulting every matching solve) until
/// [`disarm`].
pub fn arm(plan: FaultPlan) {
    PLAN.with(|p| p.set(Some(plan)));
    SOLVES.with(|s| s.set(0));
    INJECTIONS.with(|i| i.set(0));
}

/// Clears the calling thread's plan; subsequent solves run clean.
pub fn disarm() {
    PLAN.with(|p| p.set(None));
}

/// Corruptions applied since the last [`arm`] — harnesses assert this
/// moved to prove the fault actually fired (a plan targeting solve 3 of
/// a 1-solve run injects nothing).
#[must_use]
pub fn injections() -> usize {
    INJECTIONS.with(Cell::get)
}

/// True when the armed plan targets the solve currently running.
fn active() -> Option<FaultPlan> {
    let plan = PLAN.with(Cell::get)?;
    let current = SOLVES.with(Cell::get);
    (current == plan.target_solve + 1).then_some(plan)
}

fn record_injection() {
    INJECTIONS.with(|i| i.set(i.get() + 1));
}

// --- hooks called by the solver kernels (crate-internal) ---------------

/// Marks the entry of one solver kernel invocation.
pub(crate) fn begin_solve() {
    if PLAN.with(Cell::get).is_some() {
        SOLVES.with(|s| s.set(s.get() + 1));
    }
}

/// Applies cell poisoning to the initial iterate, if armed for it.
pub(crate) fn poison_field(x: &mut [f64]) {
    let Some(plan) = active() else { return };
    let value = match plan.kind {
        FaultKind::PoisonCellNan => f64::NAN,
        FaultKind::PoisonCellInf => f64::INFINITY,
        _ => return,
    };
    if x.is_empty() {
        return;
    }
    let idx = ((plan.cell_position * x.len() as f64) as usize).min(x.len() - 1);
    x[idx] = value;
    record_injection();
}

/// Corrupts a residual evaluation once the trigger iteration is
/// reached, if armed for it.
pub(crate) fn corrupt_residual(iteration: usize, residual: f64) -> f64 {
    let Some(plan) = active() else {
        return residual;
    };
    let poisoned = match plan.kind {
        FaultKind::ResidualNan => f64::NAN,
        FaultKind::ResidualInf => f64::INFINITY,
        _ => return residual,
    };
    if iteration >= plan.trigger_iteration {
        record_injection();
        poisoned
    } else {
        residual
    }
}

/// Truncates an iteration budget, if armed for it.
pub(crate) fn truncated_budget(budget: usize) -> usize {
    let Some(plan) = active() else {
        return budget;
    };
    if plan.kind == FaultKind::TruncateBudget && plan.trigger_iteration < budget {
        record_injection();
        plan.trigger_iteration.max(1)
    } else {
        budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(FaultPlan::from_seed(7), FaultPlan::from_seed(7));
        // Distinct seeds eventually differ (checked over a small range
        // so the test is robust to any one collision).
        assert!((0..16)
            .map(FaultPlan::from_seed)
            .any(|p| p != FaultPlan::from_seed(0)));
    }

    #[test]
    fn inactive_plan_is_a_no_op() {
        disarm();
        let mut x = vec![1.0, 2.0];
        poison_field(&mut x);
        assert_eq!(x, vec![1.0, 2.0]);
        assert_eq!(corrupt_residual(5, 0.5), 0.5);
        assert_eq!(truncated_budget(100), 100);
    }

    #[test]
    fn poison_targets_the_requested_solve_only() {
        arm(FaultPlan {
            kind: FaultKind::PoisonCellNan,
            target_solve: 1,
            trigger_iteration: 1,
            cell_position: 0.5,
        });
        let mut x = vec![1.0; 8];
        begin_solve(); // solve 0: not the target
        poison_field(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        begin_solve(); // solve 1: fires
        poison_field(&mut x);
        assert_eq!(x.iter().filter(|v| v.is_nan()).count(), 1);
        assert_eq!(injections(), 1);
        disarm();
    }

    #[test]
    fn residual_corruption_waits_for_trigger() {
        arm(FaultPlan {
            kind: FaultKind::ResidualInf,
            target_solve: 0,
            trigger_iteration: 3,
            cell_position: 0.0,
        });
        begin_solve();
        assert_eq!(corrupt_residual(2, 0.25), 0.25);
        assert!(corrupt_residual(3, 0.25).is_infinite());
        disarm();
    }

    #[test]
    fn budget_truncation_clamps() {
        arm(FaultPlan {
            kind: FaultKind::TruncateBudget,
            target_solve: 0,
            trigger_iteration: 2,
            cell_position: 0.0,
        });
        begin_solve();
        assert_eq!(truncated_budget(50_000), 2);
        assert_eq!(injections(), 1);
        disarm();
    }
}
