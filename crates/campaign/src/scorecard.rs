//! The resilience scorecard: what a campaign's thousands of runs reduce
//! to.

use serde::{Deserialize, Serialize};
use toolkit::QueryMetrics;
use workflow::RunHealth;

use crate::ensemble::Distribution;

/// Aggregate health, detection and impact over every query a campaign
/// served. Built by folding outcomes in task order (a deterministic
/// order at any worker count), with distributions summarized through
/// `total_cmp` — the scorecard is bit-identical across reruns.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResilienceScorecard {
    /// Total queries served (ok + degraded + failed).
    pub queries: usize,
    /// Runs whose every step succeeded.
    pub ok: usize,
    /// Runs degraded by non-critical failures (surviving outputs are
    /// trustworthy; see `workflow::RunHealth`).
    pub degraded: usize,
    /// Runs that failed outright (a critical step died, or the session
    /// itself errored).
    pub failed: usize,
    /// `degraded / queries` (0.0 for an empty campaign).
    pub degraded_rate: f64,
    /// `failed / queries`.
    pub failed_rate: f64,
    /// Queries where at least one detector surfaced evidence.
    pub detector_hits: usize,
    /// `detector_hits / queries`.
    pub detector_hit_rate: f64,
    /// Transient-failure retries spent across all runs.
    pub retries: usize,
    /// Distribution of per-query impact scores.
    pub impact: Distribution,
}

/// Incremental scorecard accumulation (fold in task order, then
/// [`ScorecardBuilder::finish`]).
#[derive(Debug, Default)]
pub struct ScorecardBuilder {
    ok: usize,
    degraded: usize,
    failed: usize,
    detector_hits: usize,
    retries: usize,
    impacts: Vec<f64>,
}

impl ScorecardBuilder {
    /// Folds one query outcome.
    pub fn record(&mut self, health: &RunHealth, metrics: &QueryMetrics, retries: usize) {
        match health {
            RunHealth::Ok => self.ok += 1,
            RunHealth::Degraded { .. } => self.degraded += 1,
            RunHealth::Failed { .. } => self.failed += 1,
        }
        if metrics.detector_hit() {
            self.detector_hits += 1;
        }
        self.retries += retries;
        self.impacts.push(metrics.impact_score);
    }

    pub fn finish(self) -> ResilienceScorecard {
        let queries = self.ok + self.degraded + self.failed;
        let rate = |n: usize| if queries == 0 { 0.0 } else { n as f64 / queries as f64 };
        ResilienceScorecard {
            queries,
            ok: self.ok,
            degraded: self.degraded,
            failed: self.failed,
            degraded_rate: rate(self.degraded),
            failed_rate: rate(self.failed),
            detector_hits: self.detector_hits,
            detector_hit_rate: rate(self.detector_hits),
            retries: self.retries,
            impact: Distribution::of(&self.impacts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workflow::StepId;

    #[test]
    fn scorecard_folds_health_and_detections() {
        let mut builder = ScorecardBuilder::default();
        let hit = QueryMetrics { moas_conflicts: 2, ..QueryMetrics::default() };
        let miss = QueryMetrics { impact_score: 1.5, ..QueryMetrics::default() };
        builder.record(&RunHealth::Ok, &hit, 0);
        builder.record(
            &RunHealth::Degraded { failed_steps: vec![StepId::from("s")] },
            &miss,
            2,
        );
        builder.record(&RunHealth::Failed { failed_steps: vec![] }, &miss, 1);
        let card = builder.finish();
        assert_eq!(card.queries, 3);
        assert_eq!((card.ok, card.degraded, card.failed), (1, 1, 1));
        assert_eq!(card.detector_hits, 1);
        assert_eq!(card.retries, 3);
        assert!((card.degraded_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(card.impact.count, 3);
        assert_eq!(card.impact.max, 1.5);
    }

    #[test]
    fn empty_scorecard_has_zero_rates() {
        let card = ScorecardBuilder::default().finish();
        assert_eq!(card, ResilienceScorecard::default());
    }
}
