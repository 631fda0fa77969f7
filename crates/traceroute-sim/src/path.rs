//! Forwarding-path derivation: from a probe and destination to the exact
//! sequence of IP links a packet traverses.
//!
//! The inter-AS skeleton comes from the BGP best path; within each AS the
//! packet travels the AS's backbone from its entry city to the egress
//! link's city. Where an AS pair has parallel links, the Paris flow id
//! picks one deterministically — same flow, same path.

use net_model::{Asn, CityId, Ipv4Addr, LinkId, ProbeId, SimTime};
use net_model::hash::stable_hash;

use crate::TracerouteSimulator;

/// One inter-AS step of the forwarding path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// Link crossed to reach the next AS.
    pub link: LinkId,
    /// AS being left.
    pub from_as: Asn,
    /// AS being entered.
    pub to_as: Asn,
    /// City where the packet leaves `from_as`.
    pub egress_city: CityId,
    /// City where the packet enters `to_as`.
    pub ingress_city: CityId,
    /// Egress interface address (the hop a traceroute reveals).
    pub egress_addr: Ipv4Addr,
    /// Ingress interface address on the far side.
    pub ingress_addr: Ipv4Addr,
}

/// A complete derived forwarding path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForwardingPath {
    /// AS-level route (probe's AS first, destination origin last).
    pub as_path: Vec<Asn>,
    /// Inter-AS steps; empty when src and dst share an AS.
    pub steps: Vec<PathStep>,
    /// Whether a route existed at measurement time.
    pub routed: bool,
}

/// Derives the forwarding path for `(probe, dst)` at `time` under `flow_id`.
///
/// The path depends on `time` only through
/// [`TracerouteSimulator::interval`]: the routing table and the down-link
/// set are both read from `time`'s interval.
pub fn forwarding_path(
    sim: &TracerouteSimulator<'_>,
    probe: ProbeId,
    dst: Ipv4Addr,
    time: SimTime,
    flow_id: u16,
) -> ForwardingPath {
    let world = &sim.scenario().world;
    let probe_info = world.probe(probe);

    let (_, origin) = match sim.resolve(dst) {
        Some(x) => x,
        None => return ForwardingPath::default(),
    };

    let interval = sim.interval(time);
    let route = match sim.routing_in(interval).route(probe_info.asn, origin) {
        Some(r) => r,
        None => return ForwardingPath::default(),
    };

    let down = sim.links_down_in(interval);
    let mut steps = Vec::new();

    for w in route.as_path.windows(2) {
        let (from_as, to_as) = (w[0], w[1]);
        // Live parallel links between the pair, canonical (ascending id)
        // order — an O(k) hit on the world's AS-pair index instead of a
        // scan over every link per AS hop.
        let candidates: Vec<&world::IpLink> = world
            .links_between(from_as, to_as)
            .iter()
            .map(|&l| world.link(l))
            .filter(|l| !down.contains(&l.id))
            .collect();
        if candidates.is_empty() {
            // The BGP route says the adjacency exists, so this should not
            // happen; treat defensively as unrouted.
            return ForwardingPath { as_path: route.as_path, steps, routed: false };
        }
        // Paris semantics: flow id (+ hop position) selects the link.
        let pick = stable_hash(&[flow_id as u64, steps.len() as u64]) as usize % candidates.len();
        let link = candidates[pick];
        let (egress, ingress) =
            if link.a.asn == from_as { (link.a, link.b) } else { (link.b, link.a) };
        steps.push(PathStep {
            link: link.id,
            from_as,
            to_as,
            egress_city: egress.city,
            ingress_city: ingress.city,
            egress_addr: egress.addr,
            ingress_addr: ingress.addr,
        });
    }

    ForwardingPath { as_path: route.as_path, steps, routed: true }
}

impl ForwardingPath {
    /// The set of IP links traversed.
    pub fn links(&self) -> Vec<LinkId> {
        self.steps.iter().map(|s| s.link).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimDuration;
    use world::{generate, EventKind, Scenario, WorldConfig};

    fn sim_fixture() -> (Scenario, SimTime) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = net_model::SimTime::EPOCH + SimDuration::days(5);
        (Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut), cut)
    }

    /// Finds a probe/destination pair whose pre-cut path rides the cable.
    fn affected_pair(
        s: &Scenario,
        sim: &TracerouteSimulator<'_>,
        cut: SimTime,
    ) -> Option<(ProbeId, Ipv4Addr)> {
        let cable = s.world.cable_by_name("SeaMeWe-5").unwrap().id;
        let affected: std::collections::BTreeSet<LinkId> =
            s.world.links_on_cable(cable).into_iter().collect();
        let before = cut - SimDuration::hours(1);
        for probe in &s.world.probes {
            for pfx in s.world.prefixes.iter().step_by(7) {
                let dst = pfx.net.host(1);
                let path = forwarding_path(sim, probe.id, dst, before, 0);
                if path.routed && path.links().iter().any(|l| affected.contains(l)) {
                    return Some((probe.id, dst));
                }
            }
        }
        None
    }

    #[test]
    fn paths_follow_bgp_and_are_flow_stable() {
        let (s, _) = sim_fixture();
        let sim = TracerouteSimulator::new(&s);
        let probe = s.world.probes[3].id;
        let dst = s.world.prefixes[100].net.host(9);
        let t = net_model::SimTime::EPOCH + SimDuration::days(1);

        let p1 = forwarding_path(&sim, probe, dst, t, 42);
        let p2 = forwarding_path(&sim, probe, dst, t, 42);
        assert_eq!(p1, p2, "same flow id must give the same path");
        assert!(p1.routed);
        assert_eq!(p1.steps.len(), p1.as_path.len() - 1);

        // Step chain is contiguous.
        for (i, st) in p1.steps.iter().enumerate() {
            assert_eq!(st.from_as, p1.as_path[i]);
            assert_eq!(st.to_as, p1.as_path[i + 1]);
        }
    }

    #[test]
    fn flow_sweep_can_reveal_parallel_links() {
        let (s, _) = sim_fixture();
        let sim = TracerouteSimulator::new(&s);
        let t = net_model::SimTime::EPOCH + SimDuration::days(1);
        // Over many probe/dst pairs and 16 flows, at least one pair must
        // show path diversity (the world has parallel links).
        let mut diverse = false;
        'outer: for probe in s.world.probes.iter().take(20) {
            for pfx in s.world.prefixes.iter().step_by(11).take(20) {
                let dst = pfx.net.host(1);
                let mut seen = std::collections::BTreeSet::new();
                for flow in 0..16u16 {
                    let p = forwarding_path(&sim, probe.id, dst, t, flow);
                    if p.routed {
                        seen.insert(p.links());
                    }
                }
                if seen.len() > 1 {
                    diverse = true;
                    break 'outer;
                }
            }
        }
        assert!(diverse, "MDA-style flow sweep should find load-balanced paths somewhere");
    }

    #[test]
    fn cable_cut_moves_affected_paths() {
        let (s, cut) = sim_fixture();
        let sim = TracerouteSimulator::new(&s);
        let (probe, dst) = affected_pair(&s, &sim, cut).expect("some pair rides SeaMeWe-5");
        let before = forwarding_path(&sim, probe, dst, cut - SimDuration::hours(1), 0);
        let after = forwarding_path(&sim, probe, dst, cut + SimDuration::hours(1), 0);
        assert!(before.routed);
        // After the cut the path must differ (link set changes: the failed
        // links cannot appear).
        let cable = s.world.cable_by_name("SeaMeWe-5").unwrap().id;
        let failed: std::collections::BTreeSet<LinkId> =
            s.world.links_on_cable(cable).into_iter().collect();
        assert!(after.links().iter().all(|l| !failed.contains(l)));
        assert_ne!(before.links(), after.links());
    }

    #[test]
    fn unannounced_destination_is_unrouted() {
        let (s, _) = sim_fixture();
        let sim = TracerouteSimulator::new(&s);
        let p = forwarding_path(
            &sim,
            s.world.probes[0].id,
            Ipv4Addr::from_octets(198, 51, 100, 1),
            net_model::SimTime::EPOCH,
            0,
        );
        assert!(!p.routed);
        assert!(p.steps.is_empty());
    }
}
