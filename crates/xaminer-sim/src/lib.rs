//! # xaminer-sim — cross-layer resilience analysis
//!
//! A from-scratch implementation of the analysis layer Xaminer ([23] in
//! the paper) provides to the case studies. It consumes Nautilus-style
//! dependency tables (inferred or oracle) and answers resilience
//! questions:
//!
//! * [`event`] — **failure event processing**: a cable failure or a
//!   geo-footprint disaster (with per-asset failure probability) becomes a
//!   concrete set of failed segments/links and affected ASes/countries.
//!   This is the "single event processing function" whose versatility case
//!   study 2 leans on.
//! * [`impact`] — **cross-layer impact metrics**: normalized per-country
//!   and per-AS metrics (IPs, links, ASes, AS-links affected), the same
//!   embedding families the Xaminer paper aggregates.
//! * [`cascade`] — **cascade propagation**: load-redistribution rounds
//!   over the dependency graph until fixpoint, producing the multi-layer
//!   cascade timelines of case study 3.
//! * [`control_plane`] — **control-plane incidents**: who a prefix hijack
//!   misdirects and whose best paths a route leak drags through the
//!   leaker, computed on the BGP substrate while every link stays up.
//! * [`risk`] — **risk profiles**: per-country dependency concentration
//!   (HHI), critical-cable rankings and resilience scores.
//!
//! Callers pass the world and a [`nautilus_sim::DependencyTable`] to
//! [`process_event`], then feed the resulting [`FailureImpact`] to
//! [`impact::aggregate`] or [`cascade::propagate`], as `toolkit::runtime`
//! does.

pub mod cascade;
pub mod control_plane;
pub mod event;
pub mod impact;
pub mod risk;

pub use cascade::{CascadeConfig, CascadeRound, CascadeTimeline};
pub use control_plane::{ControlPlaneImpact, ControlPlaneIncident};
pub use event::{process_event, FailureEvent, FailureImpact};
pub use impact::{AsImpact, CountryImpact, ImpactReport};
pub use risk::{country_risk_profile, CountryRiskProfile};

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_sim::DependencyTable;
    use world::{generate, WorldConfig};

    #[test]
    fn oracle_engine_processes_cable_failure() {
        let world = generate(&WorldConfig::default());
        let deps = DependencyTable::from_ground_truth(&world);
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let failure = process_event(&world, &deps, &FailureEvent::CableFailure { cable });
        let report = impact::aggregate(&world, &failure);
        assert!(!report.per_country.is_empty());
        // France and Singapore land the cable; both should appear.
        let fr = net_model::Country(*b"FR");
        let sg = net_model::Country(*b"SG");
        let countries: Vec<_> = report.per_country.iter().map(|c| c.country).collect();
        assert!(countries.contains(&fr) || countries.contains(&sg));
    }
}
