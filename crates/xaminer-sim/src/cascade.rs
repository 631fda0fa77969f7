//! Cascade propagation: how an initial failure spreads through load
//! redistribution.
//!
//! The model is the standard capacity-overload cascade adapted to the
//! cross-layer setting of case study 3:
//!
//! 1. the initial event fails a set of IP links (round 0);
//! 2. traffic carried by failed links redistributes onto the surviving
//!    links of the *same corridor* (links whose endpoints share the two
//!    regions), raising their load;
//! 3. links whose load exceeds `overload_threshold ×` capacity fail in the
//!    next round; ASes that lose more than `as_degradation_threshold` of
//!    their links are marked degraded;
//! 4. repeat until a fixpoint or `max_rounds`.
//!
//! Each round is stamped with a time offset, producing the unified
//! cable→IP→AS cascade timeline the case study reports.

use std::collections::{BTreeMap, BTreeSet};

use net_model::{Asn, LinkId, Region, SimDuration};
use serde::{Deserialize, Serialize};
use world::World;

use crate::event::FailureImpact;

/// Cascade model parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CascadeConfig {
    /// Initial load on every link as a fraction of capacity.
    pub base_load: f64,
    /// Load/capacity ratio beyond which a link fails.
    pub overload_threshold: f64,
    /// Fraction of lost links beyond which an AS counts as degraded.
    pub as_degradation_threshold: f64,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// Wall-clock spacing between rounds in the produced timeline.
    pub round_spacing: SimDuration,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            base_load: 0.55,
            overload_threshold: 1.0,
            as_degradation_threshold: 0.35,
            max_rounds: 10,
            round_spacing: SimDuration::minutes(30),
        }
    }
}

/// One round of the cascade.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CascadeRound {
    pub round: usize,
    /// Offset from the initial event.
    pub at_offset: SimDuration,
    /// Links that failed in this round, ascending.
    pub newly_failed_links: Vec<LinkId>,
    /// ASes that crossed the degradation threshold in this round.
    pub newly_degraded_ases: Vec<Asn>,
}

/// The full cascade timeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CascadeTimeline {
    pub rounds: Vec<CascadeRound>,
}

impl CascadeTimeline {
    /// Every failed link across all rounds.
    pub fn all_failed_links(&self) -> Vec<LinkId> {
        let mut v: Vec<LinkId> =
            self.rounds.iter().flat_map(|r| r.newly_failed_links.iter().copied()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of rounds with any new failure (round 0 included).
    pub fn depth(&self) -> usize {
        self.rounds.iter().filter(|r| !r.newly_failed_links.is_empty()).count()
    }
}

/// Corridor key: unordered region pair of a link's endpoints.
fn corridor(world: &World, link: &world::IpLink) -> (Region, Region) {
    let ra = world.city(link.a.city).region;
    let rb = world.city(link.b.city).region;
    if ra <= rb {
        (ra, rb)
    } else {
        (rb, ra)
    }
}

/// Runs the cascade.
pub fn propagate(
    world: &World,
    initial: &FailureImpact,
    config: &CascadeConfig,
) -> CascadeTimeline {
    let mut failed: BTreeSet<LinkId> = initial.failed_links.iter().copied().collect();
    let mut degraded: BTreeSet<Asn> = BTreeSet::new();
    let mut rounds = Vec::new();

    // Per-AS link totals, for degradation bookkeeping.
    let mut as_totals: BTreeMap<Asn, usize> = BTreeMap::new();
    for link in &world.links {
        *as_totals.entry(link.a.asn).or_default() += 1;
        if link.b.asn != link.a.asn {
            *as_totals.entry(link.b.asn).or_default() += 1;
        }
    }

    let as_lost = |failed: &BTreeSet<LinkId>| -> BTreeMap<Asn, usize> {
        let mut lost: BTreeMap<Asn, usize> = BTreeMap::new();
        for &lid in failed {
            let link = world.link(lid);
            *lost.entry(link.a.asn).or_default() += 1;
            if link.b.asn != link.a.asn {
                *lost.entry(link.b.asn).or_default() += 1;
            }
        }
        lost
    };

    // Round 0: the initial failure plus any immediately-degraded ASes.
    let lost0 = as_lost(&failed);
    let mut newly_degraded: Vec<Asn> = lost0
        .iter()
        .filter(|(asn, &lost)| {
            let total = as_totals.get(asn).copied().unwrap_or(0).max(1);
            lost as f64 / total as f64 >= config.as_degradation_threshold
        })
        .map(|(asn, _)| *asn)
        .collect();
    degraded.extend(newly_degraded.iter().copied());
    rounds.push(CascadeRound {
        round: 0,
        at_offset: SimDuration::seconds(0),
        newly_failed_links: initial.failed_links.clone(),
        newly_degraded_ases: newly_degraded,
    });

    for round in 1..=config.max_rounds {
        // Redistribute: per corridor, the load of failed links spreads
        // over surviving links of the same corridor.
        let mut corridor_failed_cap: BTreeMap<(Region, Region), f64> = BTreeMap::new();
        let mut corridor_live_cap: BTreeMap<(Region, Region), f64> = BTreeMap::new();
        for link in &world.links {
            let key = corridor(world, link);
            if failed.contains(&link.id) {
                *corridor_failed_cap.entry(key).or_default() +=
                    link.capacity_gbps * config.base_load;
            } else {
                *corridor_live_cap.entry(key).or_default() += link.capacity_gbps;
            }
        }

        let mut next_failures: Vec<LinkId> = Vec::new();
        for link in &world.links {
            if failed.contains(&link.id) {
                continue;
            }
            let key = corridor(world, link);
            let displaced = corridor_failed_cap.get(&key).copied().unwrap_or(0.0);
            let live = corridor_live_cap.get(&key).copied().unwrap_or(0.0);
            if displaced <= 0.0 || live <= 0.0 {
                continue;
            }
            // This link's share of the displaced traffic is proportional to
            // its capacity share of the corridor.
            let extra = displaced * (link.capacity_gbps / live);
            let load = link.capacity_gbps * config.base_load + extra;
            if load > link.capacity_gbps * config.overload_threshold {
                next_failures.push(link.id);
            }
        }

        if next_failures.is_empty() {
            break;
        }
        failed.extend(next_failures.iter().copied());

        let lost = as_lost(&failed);
        newly_degraded = lost
            .iter()
            .filter(|(asn, &l)| {
                if degraded.contains(asn) {
                    return false;
                }
                let total = as_totals.get(asn).copied().unwrap_or(0).max(1);
                l as f64 / total as f64 >= config.as_degradation_threshold
            })
            .map(|(asn, _)| *asn)
            .collect();
        degraded.extend(newly_degraded.iter().copied());

        rounds.push(CascadeRound {
            round,
            at_offset: SimDuration::seconds(config.round_spacing.as_seconds() * round as i64),
            newly_failed_links: next_failures,
            newly_degraded_ases: newly_degraded,
        });
    }

    CascadeTimeline { rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{process_event, FailureEvent};
    use nautilus_sim::DependencyTable;
    use world::{generate, WorldConfig};

    fn initial_failure(world: &World, cable_name: &str) -> FailureImpact {
        let deps = DependencyTable::from_ground_truth(world);
        let cable = world.cable_by_name(cable_name).unwrap().id;
        process_event(world, &deps, &FailureEvent::CableFailure { cable })
    }

    #[test]
    fn round_zero_is_the_initial_failure() {
        let world = generate(&WorldConfig::default());
        let initial = initial_failure(&world, "SeaMeWe-5");
        let tl = propagate(&world, &initial, &CascadeConfig::default());
        assert_eq!(tl.rounds[0].newly_failed_links, initial.failed_links);
        assert_eq!(tl.rounds[0].round, 0);
    }

    #[test]
    fn cascade_is_monotone_and_bounded() {
        let world = generate(&WorldConfig::default());
        let initial = initial_failure(&world, "SeaMeWe-5");
        let config = CascadeConfig { base_load: 0.8, ..CascadeConfig::default() };
        let tl = propagate(&world, &initial, &config);
        assert!(tl.rounds.len() <= config.max_rounds + 1);
        // No link fails twice.
        let all = tl.all_failed_links();
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }

    #[test]
    fn higher_load_cascades_at_least_as_far() {
        let world = generate(&WorldConfig::default());
        let initial = initial_failure(&world, "SeaMeWe-5");
        let low = propagate(
            &world,
            &initial,
            &CascadeConfig { base_load: 0.3, ..CascadeConfig::default() },
        );
        let high = propagate(
            &world,
            &initial,
            &CascadeConfig { base_load: 0.85, ..CascadeConfig::default() },
        );
        assert!(high.all_failed_links().len() >= low.all_failed_links().len());
    }

    #[test]
    fn rounds_are_time_stamped_in_order() {
        let world = generate(&WorldConfig::default());
        let initial = initial_failure(&world, "SeaMeWe-5");
        let tl = propagate(
            &world,
            &initial,
            &CascadeConfig { base_load: 0.85, ..CascadeConfig::default() },
        );
        for w in tl.rounds.windows(2) {
            assert!(w[0].at_offset < w[1].at_offset);
        }
    }

    #[test]
    fn empty_initial_failure_stops_immediately() {
        let world = generate(&WorldConfig::default());
        let tl = propagate(&world, &FailureImpact::default(), &CascadeConfig::default());
        assert_eq!(tl.depth(), 0);
        assert_eq!(tl.rounds.len(), 1);
    }
}
