//! Standard case-study scenarios — the measurement conditions under which
//! the paper's four queries are asked.

use std::sync::{Arc, OnceLock};

use net_model::{Region, SimDuration, SimTime};
use world::{EventKind, Scenario, World, WorldConfig};

/// The standard evaluation world (seed 42), generated once per process:
/// the five case-study scenarios share **one** generation instead of
/// regenerating per scenario. It is one fixed world, so holding it for
/// the life of the process is bounded; an engine fleet naming the
/// default config builds its own copy in the engine's cache.
pub fn standard_world() -> Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(WORLD.get_or_init(|| Arc::new(world::generate(&WorldConfig::default()))))
}

/// CS1 — "impact at a country level due to SeaMeWe-5 cable failure".
/// The failure is *hypothetical* (what-if analysis), so the measurement
/// record itself is quiet.
pub fn cs1_scenario() -> Scenario {
    Scenario::quiet(standard_world(), 10)
}

/// CS2 — "severe earthquakes and hurricanes globally at 10% failure
/// probability". Also a what-if: quiet record.
pub fn cs2_scenario() -> Scenario {
    Scenario::quiet(standard_world(), 10)
}

/// CS3 — "cascading effects of submarine cable failures between Europe and
/// Asia". The record *contains* the corridor failures (the 2022 AAE-1
/// pattern: two systems failing in close succession), so the temporal
/// sub-analyses have real BGP and latency evolution to observe.
pub fn cs3_scenario() -> Scenario {
    let world = standard_world();
    #[expect(clippy::expect_used, reason = "SeaMeWe-5 is a curated cable")]
    let smw5 = world.cable_by_name("SeaMeWe-5").expect("curated").id;
    #[expect(clippy::expect_used, reason = "AAE-1 is a curated cable")]
    let aae1 = world.cable_by_name("AAE-1").expect("curated").id;
    let t1 = SimTime::EPOCH + SimDuration::days(4);
    let t2 = t1 + SimDuration::hours(10);
    Scenario::quiet(world, 10)
        .with_event(EventKind::CableCut { cable: smw5 }, t1)
        .with_event(EventKind::CableCut { cable: aae1 }, t2)
}

/// The cable cut in the CS4 scenario.
pub const CS4_CULPRIT: &str = "SeaMeWe-4";

/// CS4 — the forensic scenario: a Europe–Asia cable fails three days
/// before "now", producing the latency anomaly the query asks about.
pub fn cs4_scenario() -> Scenario {
    let world = standard_world();
    #[expect(clippy::expect_used, reason = "the CS4 culprit is a curated cable")]
    let cable = world.cable_by_name(CS4_CULPRIT).expect("curated").id;
    let horizon_days = 14;
    let cut_at = SimTime::EPOCH + SimDuration::days(horizon_days - 3);
    Scenario::quiet(world, horizon_days).with_event(EventKind::CableCut { cable }, cut_at)
}

/// CS4 negative control — the same latency symptom caused by congestion,
/// with **no** cable failure. A sound forensic workflow must not blame a
/// cable here.
pub fn cs4_negative_scenario() -> Scenario {
    let world = standard_world();
    let horizon_days = 14;
    let start = SimTime::EPOCH + SimDuration::days(horizon_days - 3);
    let mut s = Scenario::quiet(world, horizon_days);
    s.push_event(
        EventKind::CongestionSurge {
            from: Region::Europe,
            to: Region::Asia,
            extra_ms: 45.0,
        },
        start,
        None,
    );
    s
}

/// The query the hijack-forensics case study serves.
pub const CS5_QUERY: &str =
    "Multiple origin ASes were observed announcing the same prefixes starting two days \
     ago. Determine whether a prefix hijack or a route leak caused this, and identify \
     the offending AS.";

/// CS5 — the control-plane forensic scenario: a transit AS starts
/// originating an access network's prefix two days before "now" (the
/// 2008 YouTube/Pakistan pattern, scaled down), so the update stream and
/// RIB carry a live MOAS conflict for the forensics workflow to find.
///
/// Victim and hijacker are picked structurally — the same
/// `AsTarget::TierRank` resolution the `targeted-prefix-hijack` scenario
/// family uses — so the scenario stays stable under world regeneration.
pub fn cs5_hijack_scenario() -> Scenario {
    let world = standard_world();
    let (hijacker, victim_prefix) = cs5_actors(&world);
    let horizon_days = 10;
    let at = SimTime::EPOCH + SimDuration::days(horizon_days - 2);
    Scenario::quiet(world, horizon_days)
        .with_event(EventKind::PrefixHijack { origin: hijacker, victim_prefix }, at)
}

/// The hijacker ASN and victim prefix of [`cs5_hijack_scenario`].
pub fn cs5_actors(world: &world::World) -> (net_model::Asn, net_model::Ipv4Net) {
    use scenario_forge::script::AsTarget;
    #[expect(clippy::expect_used, reason = "the standard world has European transit ASes")]
    let hijacker = AsTarget::TierRank {
        region: net_model::Region::Europe,
        tier: world::AsTier::Transit,
        rank: 0,
    }
    .resolve(world)
    .expect("the standard world has European transit ASes");
    #[expect(clippy::expect_used, reason = "the standard world has Asian access ASes")]
    let victim = AsTarget::TierRank {
        region: net_model::Region::Asia,
        tier: world::AsTier::Access,
        rank: 0,
    }
    .resolve(world)
    .expect("the standard world has Asian access ASes");
    #[expect(clippy::expect_used, reason = "access ASes announce prefixes")]
    let victim_prefix = world
        .prefixes
        .iter()
        .filter(|p| p.origin == victim)
        .map(|p| p.net)
        .min()
        .expect("access ASes announce prefixes");
    (hijacker, victim_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs3_has_two_cable_cuts_in_order() {
        let s = cs3_scenario();
        let tl = s.timeline();
        assert_eq!(tl.len(), 2);
        assert!(tl[0].0 < tl[1].0);
    }

    #[test]
    fn cs4_cut_lands_three_days_before_now() {
        let s = cs4_scenario();
        let tl = s.timeline();
        assert_eq!(tl.len(), 1);
        assert_eq!(s.now.since(tl[0].0), SimDuration::days(3));
    }

    #[test]
    fn cs4_negative_has_no_failed_links() {
        let s = cs4_negative_scenario();
        assert!(s.links_down_at(s.now).is_empty());
        assert_eq!(
            s.congestion_extra_ms(s.now - SimDuration::days(1), Region::Europe, Region::Asia),
            45.0
        );
    }

    #[test]
    fn what_if_scenarios_are_quiet() {
        assert!(cs1_scenario().timeline().is_empty());
        assert!(cs2_scenario().timeline().is_empty());
    }

    #[test]
    fn case_studies_share_one_cached_world() {
        // Every case-study scenario draws the one standard world,
        // generated once per process: same Arc, one generation.
        let quiet = cs1_scenario();
        for s in [
            cs2_scenario(),
            cs3_scenario(),
            cs4_scenario(),
            cs4_negative_scenario(),
            cs5_hijack_scenario(),
        ] {
            assert!(Arc::ptr_eq(&quiet.world, &s.world));
        }
    }

    #[test]
    fn cs5_hijack_is_live_at_now_and_fails_nothing() {
        let s = cs5_hijack_scenario();
        let (hijacker, prefix) = cs5_actors(&s.world);
        let legit = s.world.prefixes.iter().find(|p| p.net == prefix).unwrap();
        assert_ne!(legit.origin, hijacker, "hijacker must not own the prefix");
        let control = s.control_plane_at(s.now - SimDuration::hours(1));
        assert_eq!(control.hijacks, vec![(prefix, hijacker)]);
        assert!(s.links_down_at(s.now).is_empty(), "control plane fails no links");
        assert_eq!(s.now.since(s.timeline()[0].0), SimDuration::days(2));
    }
}
