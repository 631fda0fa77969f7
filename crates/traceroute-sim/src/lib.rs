//! # traceroute-sim — the active-measurement substrate
//!
//! A RIPE-Atlas-style measurement platform over the synthetic world:
//! probes launch Paris-traceroute-compatible measurements ([11, 26] in the
//! paper) whose forwarding paths follow the BGP simulator's AS-level
//! routes and whose RTTs follow fiber propagation over the physical paths
//! of the traversed IP links.
//!
//! Key behaviours reproduced:
//!
//! * **BGP-coupled forwarding** — when a cable cut changes AS paths, the
//!   IP paths and RTTs of affected probe/destination pairs change at the
//!   same instant; the forensic case study depends on this coupling;
//! * **Paris flow semantics** — the flow identifier deterministically
//!   selects among parallel links between an AS pair, so one flow sees a
//!   stable path while an MDA-style sweep over flow ids enumerates the
//!   load-balanced alternatives;
//! * **measurement noise** — deterministic per-(probe, dst, hop, time)
//!   jitter and a small timeout probability, so statistical baselines have
//!   realistic texture;
//! * **congestion confounders** — scenario congestion surges raise RTTs
//!   without any routing change, giving forensic workflows a true-negative
//!   to distinguish.
//!
//! The one entry point is [`TracerouteSimulator::measure`]. Probe
//! campaigns (probe × destination × time sweeps) are built on it by the
//! `traceroute.campaign` function in `toolkit::runtime`.

pub mod path;
pub mod rtt;

pub use path::{ForwardingPath, PathStep};
pub use rtt::{Hop, Traceroute};

use std::collections::BTreeMap;

use net_model::{Ipv4Addr, ProbeId, SimTime};
use world::Scenario;

use bgp_sim::RoutingTable;

/// How strongly reduced corridor capacity shows up as queueing delay:
/// the one-way extra at 100% displaced capacity, in ms.
pub const CONGESTION_SENSITIVITY_MS: f64 = 80.0;

/// The measurement engine for one scenario.
///
/// Routing state is precomputed per *topology epoch* (the intervals between
/// event starts and ends), so measuring is cheap even for large campaigns
/// and a bounded event's effects end when it does.
pub struct TracerouteSimulator<'a> {
    scenario: &'a Scenario,
    /// Epoch boundaries: [`Scenario::boundaries`].
    boundaries: Vec<SimTime>,
    /// Routing table per epoch (`boundaries.len() + 1` entries).
    tables: Vec<RoutingTable>,
    /// Per-epoch link congestion surcharge (one-way ms): when a cable
    /// fails, its traffic displaces onto links riding *sibling* systems
    /// (cables sharing the failed cable's landing corridor), so those
    /// links queue. This is how a cable cut raises RTTs even for traffic
    /// whose paths survive.
    link_extra: Vec<BTreeMap<net_model::LinkId, f64>>,
    /// prefix lookup, by network address.
    prefix_index: BTreeMap<u32, (net_model::Ipv4Net, net_model::Asn)>,
}

impl<'a> TracerouteSimulator<'a> {
    /// Builds the simulator, precomputing per-epoch routing on the
    /// caller's thread.
    pub fn new(scenario: &'a Scenario) -> Self {
        let boundaries = scenario.boundaries();
        let mut tables = Vec::with_capacity(boundaries.len() + 1);
        let mut sample_points = Vec::with_capacity(boundaries.len() + 1);
        sample_points.push(scenario.horizon.start);
        for b in &boundaries {
            sample_points.push(SimTime(b.0 + 1));
        }
        let mut link_extra = Vec::with_capacity(sample_points.len());
        for &t in &sample_points {
            let graph = bgp_sim::AsGraph::at_time(scenario, t);
            tables.push(RoutingTable::compute(&graph, &scenario.world));
            link_extra.push(link_congestion(scenario, t));
        }
        let prefix_index = scenario
            .world
            .prefixes
            .iter()
            .map(|p| (p.net.network().0, (p.net, p.origin)))
            .collect();
        TracerouteSimulator { scenario, boundaries, tables, link_extra, prefix_index }
    }

    /// The scenario under measurement.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Index of the topology epoch containing `t`.
    fn epoch(&self, t: SimTime) -> usize {
        self.boundaries.iter().take_while(|&&b| b <= t).count()
    }

    /// Routing table in effect at `t`.
    pub fn routing_at(&self, t: SimTime) -> &RoutingTable {
        &self.tables[self.epoch(t)]
    }

    /// Extra one-way congestion latency on a link at `t`.
    pub fn link_congestion_ms(&self, t: SimTime, link: net_model::LinkId) -> f64 {
        self.link_extra[self.epoch(t)].get(&link).copied().unwrap_or(0.0)
    }

    /// Longest-prefix match for a destination address.
    pub fn resolve(&self, dst: Ipv4Addr) -> Option<(net_model::Ipv4Net, net_model::Asn)> {
        // Prefixes are non-overlapping /20s, so one candidate suffices:
        // the greatest network address ≤ dst.
        self.prefix_index
            .range(..=dst.0)
            .next_back()
            .map(|(_, v)| *v)
            .filter(|(net, _)| net.contains(dst))
    }

    /// Runs one traceroute.
    pub fn measure(
        &self,
        probe: ProbeId,
        dst: Ipv4Addr,
        time: SimTime,
        flow_id: u16,
    ) -> Traceroute {
        let fwd = path::forwarding_path(self, probe, dst, time, flow_id);
        rtt::execute(self, probe, dst, time, flow_id, &fwd)
    }
}

/// Computes the per-link congestion surcharge at time `t`.
///
/// For every cable with failed segments, the capacity its downed links
/// carried displaces onto the live links riding **sibling systems** —
/// cables sharing at least two landing cities with the failed one (they
/// serve the same physical corridor). Each such link queues by
/// `CONGESTION_SENSITIVITY_MS × displaced / (displaced + surviving)`.
fn link_congestion(scenario: &Scenario, t: SimTime) -> BTreeMap<net_model::LinkId, f64> {
    let world = &scenario.world;
    let down = scenario.links_down_at(t);
    let failed_cables: Vec<net_model::CableId> =
        scenario.degraded_cables_at(t).into_iter().collect();
    let mut extra: BTreeMap<net_model::LinkId, f64> = BTreeMap::new();

    for &cf in &failed_cables {
        let failed_cable = world.cable(cf);
        // Capacity the failure displaced.
        let displaced: f64 = world
            .links_on_cable(cf)
            .iter()
            .filter(|l| down.contains(l))
            .map(|&l| world.link(l).capacity_gbps)
            .sum();
        if displaced <= 0.0 {
            continue;
        }
        // Sibling systems on the same corridor.
        let siblings: Vec<net_model::CableId> = world
            .cables
            .iter()
            .filter(|c| c.id != cf)
            .filter(|c| {
                c.landings.iter().filter(|l| failed_cable.landings.contains(l)).count() >= 2
            })
            .map(|c| c.id)
            .collect();
        // Live links riding a sibling absorb the displaced load.
        let mut absorbers: Vec<net_model::LinkId> = Vec::new();
        for &s in &siblings {
            for l in world.links_on_cable(s) {
                if !down.contains(&l) && !absorbers.contains(&l) {
                    absorbers.push(l);
                }
            }
        }
        let surviving: f64 = absorbers.iter().map(|&l| world.link(l).capacity_gbps).sum();
        if surviving <= 0.0 {
            continue;
        }
        let surcharge = CONGESTION_SENSITIVITY_MS * displaced / (displaced + surviving);
        for l in absorbers {
            let e = extra.entry(l).or_default();
            *e = (*e + surcharge).min(CONGESTION_SENSITIVITY_MS);
        }
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimDuration;
    use world::{generate, EventKind, Scenario, WorldConfig};

    fn scenario_with_cut() -> (Scenario, SimTime) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        (Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut), cut)
    }

    #[test]
    fn epochs_bracket_events() {
        let (s, cut) = scenario_with_cut();
        let sim = TracerouteSimulator::new(&s);
        assert_eq!(sim.epoch(cut - SimDuration::hours(1)), 0);
        assert_eq!(sim.epoch(cut), 1);
        assert_eq!(sim.epoch(cut + SimDuration::days(1)), 1);
    }

    #[test]
    fn resolve_finds_owning_prefix() {
        let (s, _) = scenario_with_cut();
        let sim = TracerouteSimulator::new(&s);
        let p = &s.world.prefixes[7];
        let addr = p.net.host(100);
        let (net, origin) = sim.resolve(addr).expect("address is announced");
        assert_eq!(net, p.net);
        assert_eq!(origin, p.origin);
        // An address outside every /20 resolves to none.
        assert!(sim.resolve(Ipv4Addr::from_octets(203, 0, 113, 1)).is_none());
    }

    #[test]
    fn measurement_is_deterministic() {
        let (s, _) = scenario_with_cut();
        let sim = TracerouteSimulator::new(&s);
        let probe = s.world.probes[0].id;
        let dst = s.world.prefixes[40].net.host(1);
        let t = SimTime::EPOCH + SimDuration::days(1);
        let m1 = sim.measure(probe, dst, t, 7);
        let m2 = sim.measure(probe, dst, t, 7);
        assert_eq!(m1, m2);
    }

    #[test]
    fn traceroutes_after_a_repair_match_the_quiet_world() {
        // A two-day SeaMeWe-5 cut: traces during it reroute, and once the
        // cable is repaired routing and congestion are the quiet world's.
        let world = std::sync::Arc::new(generate(&WorldConfig::default()));
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        let repair = cut + SimDuration::days(2);
        let quiet = Scenario::quiet(world.clone(), 10);
        let mut repaired = Scenario::quiet(world, 10);
        repaired.push_event(EventKind::CableCut { cable }, cut, Some(repair));
        let (quiet_sim, repaired_sim) =
            (TracerouteSimulator::new(&quiet), TracerouteSimulator::new(&repaired));
        let differing = |t: SimTime| {
            let mut n = 0;
            for probe in &quiet.world.probes {
                for prefix in quiet.world.prefixes.iter().step_by(8) {
                    let dst = prefix.net.host(1);
                    if quiet_sim.measure(probe.id, dst, t, 0)
                        != repaired_sim.measure(probe.id, dst, t, 0)
                    {
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(differing(cut + SimDuration::days(1)) > 0, "the cut reroutes some traces");
        for t in [repair, repair + SimDuration::hours(1), repair + SimDuration::days(2)] {
            assert_eq!(differing(t), 0, "traces at {t:?} still see the repaired cut");
        }
    }
}
