//! # bgp-sim — the BGP measurement substrate
//!
//! Reproduces the slice of the BGP ecosystem the paper's workflows consume:
//! RouteViews/RIS-style collectors ([6, 7] in the paper) exposed through a
//! BGPStream-like reader API ([21]).
//!
//! * [`graph`] — the AS-level graph induced by a scenario at an instant
//!   (adjacencies disappear while all their IP links are down);
//! * [`routing`] — Gao–Rexford valley-free path computation with the
//!   standard customer > peer > provider preference;
//! * [`rib`] — RIB snapshots from a set of collector vantage points;
//! * [`updates`] — update streams derived by diffing routing state across
//!   each scenario event in origin space (each `(peer, origin)` path is
//!   compared once, and one routing table serves every state with the
//!   same topology and policy overrides), with deterministic convergence
//!   jitter and path exploration transients;
//! * [`anomaly`] — update-burst, reachability-loss, MOAS and
//!   valley-violation detectors.
//!
//! Everything is a pure function of the scenario; there is no hidden state.
//! Each capability has one entry point, and `toolkit::runtime` is what
//! binds them to registry functions: [`RibSnapshot::capture`] for RIBs,
//! [`BgpSimulator::observe`] for a scenario's update stream together with
//! the baseline origin sets the MOAS detector reads (one derivation per
//! scenario), and the detectors.

pub mod anomaly;
pub mod graph;
pub mod rib;
pub mod routing;
pub mod updates;

pub use anomaly::{
    detect_moas_conflicts, detect_moas_conflicts_indexed, detect_update_bursts,
    detect_valley_violations, reachability_losses, MoasConflict, UpdateBurst, ValleyViolation,
};
pub use graph::AsGraph;
pub use rib::{OriginIndex, RibEntry, RibSnapshot};
pub use routing::{PolicyOverrides, Route, RouteKind, RoutingTable};
pub use updates::{BgpUpdate, Observation, UpdateKind};

use world::Scenario;

/// One scenario's collector deployment and the update stream it observes.
#[derive(Debug)]
pub struct BgpSimulator<'a> {
    scenario: &'a Scenario,
    collectors: Vec<net_model::Asn>,
}

impl<'a> BgpSimulator<'a> {
    /// Builds a simulator with the default collector deployment: every
    /// tier-1 plus every national transit AS peers with "the collector",
    /// mirroring RouteViews' full-feed peer mix.
    pub fn new(scenario: &'a Scenario) -> Self {
        let collectors = scenario
            .world
            .ases
            .iter()
            .filter(|a| matches!(a.tier, world::AsTier::Tier1 | world::AsTier::Transit))
            .map(|a| a.asn)
            .collect();
        BgpSimulator { scenario, collectors }
    }

    /// The scenario under measurement.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Vantage-point ASNs feeding the collector.
    pub fn collectors(&self) -> &[net_model::Asn] {
        &self.collectors
    }

    /// The update stream across the whole horizon, with the origin sets
    /// of the collector RIB at the horizon start.
    pub fn observe(&self) -> Observation {
        updates::observe(self.scenario, &self.collectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimDuration;
    use world::{generate, EventKind, Scenario, WorldConfig};

    #[test]
    fn simulator_end_to_end_on_cable_cut() {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut_at = net_model::SimTime::EPOCH + SimDuration::days(5);
        let scenario =
            Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut_at);
        let sim = BgpSimulator::new(&scenario);

        let peers = sim.collectors();
        let before = RibSnapshot::capture(&scenario, peers, cut_at - SimDuration::hours(1));
        let after = RibSnapshot::capture(&scenario, peers, cut_at + SimDuration::hours(1));
        assert!(!before.entries.is_empty());
        // The cut must change at least one best path somewhere.
        assert_ne!(before.entries, after.entries);

        let updates = sim.observe().updates;
        assert!(!updates.is_empty(), "a cable cut must generate updates");
        assert!(updates.iter().all(|u| u.time >= cut_at));
    }
}
