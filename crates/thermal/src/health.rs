//! Solve-health reporting for the fault-tolerant thermal engines.
//!
//! Every [`SolveContext`](crate::SolveContext) /
//! [`TransientStepper`](crate::TransientStepper) solve now runs through a
//! [`SolveLadder`](vcsel_numerics::SolveLadder), which may silently recover
//! from a preconditioner breakdown by escalating to a weaker rung. That
//! recovery must not be *invisible*: the scenario engine and the runtime-
//! management loop both need to know a solve was degraded (it costs
//! iterations and signals failing hardware models). [`SolveHealth`] is the
//! per-solve report they read.

use vcsel_numerics::{LadderSummary, RungAttempt};

/// Health report of the most recent ladder-backed solve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveHealth {
    /// Whether the final rung met the tolerance. The engines convert a
    /// `false` into a typed error, so after an `Ok` solve this is always
    /// `true` — the field matters when inspecting health after an `Err`.
    pub converged: bool,
    /// `true` when the solve only succeeded by escalating past at least
    /// one failed rung — converged, but on degraded (weaker) numerics.
    pub recovered: bool,
    /// CG iterations of the deciding attempt.
    pub iterations: usize,
    /// CG iterations across every attempt, including failed rungs — the
    /// honest cost of the solve.
    pub total_iterations: usize,
    /// Relative residual of the deciding attempt.
    pub residual: f64,
    /// Rungs retired during the solve.
    pub escalations: usize,
    /// The per-rung story, in attempt order.
    pub attempts: Vec<RungAttempt>,
}

impl SolveHealth {
    /// Builds the report from a ladder solve's summary and attempt log.
    pub fn from_ladder(summary: LadderSummary, attempts: &[RungAttempt]) -> Self {
        let mut health = Self::default();
        health.refresh(summary, attempts);
        health
    }

    /// Overwrites the report with a new solve's outcome, reusing the
    /// attempt log's allocation — the per-step path of the transient
    /// stepper.
    pub(crate) fn refresh(&mut self, summary: LadderSummary, attempts: &[RungAttempt]) {
        self.converged = summary.converged;
        self.recovered = summary.converged && summary.escalations > 0;
        self.iterations = summary.iterations;
        self.total_iterations = summary.total_iterations;
        self.residual = summary.residual;
        self.escalations = summary.escalations;
        self.attempts.clear();
        self.attempts.extend_from_slice(attempts);
    }

    /// `true` when the solve converged on its first attempt with no
    /// escalations — the everyday case.
    pub fn is_clean(&self) -> bool {
        self.converged && self.escalations == 0
    }
}
