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
//! `traceroute.campaign` function in `toolkit::catalog`.
//!
//! Nothing that changes only at events is recomputed per measurement:
//! link state is stored once per interval between event starts and ends,
//! routing once per epoch between [`Scenario::boundaries`], and a
//! forwarding path depends on its time only through the interval (see
//! [`TracerouteSimulator`]). A test-only oracle keeps the per-call
//! derivation, and a proptest holds the two equal bit for bit.

pub mod path;
pub mod rtt;

pub use path::{ForwardingPath, PathStep};
pub use rtt::{Hop, Traceroute};

use std::collections::{BTreeMap, BTreeSet};

use net_model::{Ipv4Addr, ProbeId, SimTime};
use world::Scenario;

use bgp_sim::RoutingTable;

/// How strongly reduced corridor capacity shows up as queueing delay:
/// the one-way extra at 100% displaced capacity, in ms.
pub const CONGESTION_SENSITIVITY_MS: f64 = 80.0;

/// The measurement engine for one scenario.
///
/// Two precomputed timelines back every measurement:
///
/// * **intervals** — the event timeline split at every distinct event
///   start and end, wherever it lies (before the horizon, inside it or
///   after it). No event starts or ends strictly inside an interval, so
///   [`Scenario::links_down_at`] is constant over it. The down set is
///   computed once, at the interval's start, and it equals the per-call
///   `links_down_at(t)` at any `t`, in or out of the horizon;
/// * **routing epochs** — the horizon split at [`Scenario::boundaries`]
///   (event starts and ends inside the horizon), each with the routing
///   table and failure-displaced congestion sampled one second past its
///   boundary (the first epoch at the horizon start). The boundaries are
///   a subset of the interval split points, so every interval lies inside
///   one routing epoch and records its index.
///
/// One `partition_point` over the split points finds a time's interval
/// ([`TracerouteSimulator::interval`]), and through it the down set and
/// the routing table. Paths derived at two times of one interval are
/// identical, which `traceroute.campaign` uses to derive each forwarding
/// path once per interval. A bounded event's effects end when it does.
pub struct TracerouteSimulator<'a> {
    scenario: &'a Scenario,
    /// Interval split points: every distinct event start and end,
    /// ascending. Interval `i` is `[splits[i - 1], splits[i])`, the first
    /// and last open-ended.
    splits: Vec<SimTime>,
    /// Per interval (`splits.len() + 1` entries).
    intervals: Vec<Interval>,
    /// Routing table per epoch ([`Scenario::boundaries`]`.len() + 1`
    /// entries).
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

/// The state of one interval of constant link state.
struct Interval {
    /// IP links down throughout the interval.
    down: BTreeSet<net_model::LinkId>,
    /// Index of the routing epoch containing the interval.
    epoch: usize,
}

impl<'a> TracerouteSimulator<'a> {
    /// Builds the simulator, precomputing per-epoch routing and
    /// per-interval link state on the caller's thread.
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
        let mut splits: Vec<SimTime> =
            scenario.events.iter().flat_map(|e| [Some(e.at), e.until]).flatten().collect();
        splits.sort();
        splits.dedup();
        // The first interval starts before every event; `SimTime(i64::MIN)`
        // stands for its open start.
        let intervals = std::iter::once(SimTime(i64::MIN))
            .chain(splits.iter().copied())
            .map(|start| Interval {
                down: scenario.links_down_at(start),
                epoch: boundaries.partition_point(|&b| b <= start),
            })
            .collect();
        let prefix_index = scenario
            .world
            .prefixes
            .iter()
            .map(|p| (p.net.network().0, (p.net, p.origin)))
            .collect();
        TracerouteSimulator { scenario, splits, intervals, tables, link_extra, prefix_index }
    }

    /// The scenario under measurement.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Index of the interval of constant link and routing state
    /// containing `t`. Two times with the same index see the same
    /// forwarding paths.
    pub fn interval(&self, t: SimTime) -> usize {
        self.splits.partition_point(|&s| s <= t)
    }

    /// IP links down throughout interval `index`.
    pub(crate) fn links_down_in(&self, index: usize) -> &BTreeSet<net_model::LinkId> {
        &self.intervals[index].down
    }

    /// Routing table in effect throughout interval `index`.
    pub(crate) fn routing_in(&self, index: usize) -> &RoutingTable {
        &self.tables[self.intervals[index].epoch]
    }

    /// Routing table in effect at `t`.
    pub fn routing_at(&self, t: SimTime) -> &RoutingTable {
        self.routing_in(self.interval(t))
    }

    /// Extra one-way congestion latency on a link at `t`.
    pub fn link_congestion_ms(&self, t: SimTime, link: net_model::LinkId) -> f64 {
        let epoch = self.intervals[self.interval(t)].epoch;
        self.link_extra[epoch].get(&link).copied().unwrap_or(0.0)
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

/// The per-call simulator kept as a test oracle: `forwarding_path` reads
/// `Scenario::links_down_at(time)` on every call, routing epochs are
/// found by a linear scan of [`Scenario::boundaries`], and the RTT draws
/// hash a freshly built `Vec`. The simulator above must agree with it
/// bit for bit at every instant.
#[cfg(test)]
mod reference {
    use net_model::{Ipv4Addr, LinkId, ProbeId, SimTime};
    use net_model::hash::stable_hash;

    use crate::path::{ForwardingPath, PathStep};
    use crate::rtt::{Hop, Traceroute, HOP_TIMEOUT_PROB, ROUTER_COST_MS};
    use crate::TracerouteSimulator;

    /// Index of the topology epoch containing `t`.
    fn epoch(sim: &TracerouteSimulator<'_>, t: SimTime) -> usize {
        sim.scenario.boundaries().iter().take_while(|&&b| b <= t).count()
    }

    fn link_congestion_ms(sim: &TracerouteSimulator<'_>, t: SimTime, link: LinkId) -> f64 {
        sim.link_extra[epoch(sim, t)].get(&link).copied().unwrap_or(0.0)
    }

    /// `TracerouteSimulator::measure` over the per-call path and RTT model.
    pub(super) fn measure(
        sim: &TracerouteSimulator<'_>,
        probe: ProbeId,
        dst: Ipv4Addr,
        time: SimTime,
        flow_id: u16,
    ) -> Traceroute {
        let fwd = forwarding_path(sim, probe, dst, time, flow_id);
        execute(sim, probe, dst, time, flow_id, &fwd)
    }

    /// `path::forwarding_path`, reading the down set per call.
    pub(super) fn forwarding_path(
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

        let route = match sim.tables[epoch(sim, time)].route(probe_info.asn, origin) {
            Some(r) => r,
            None => return ForwardingPath::default(),
        };

        let down = sim.scenario().links_down_at(time);
        let mut steps = Vec::new();

        for w in route.as_path.windows(2) {
            let (from_as, to_as) = (w[0], w[1]);
            let candidates: Vec<&world::IpLink> = world
                .links_between(from_as, to_as)
                .iter()
                .map(|&l| world.link(l))
                .filter(|l| !down.contains(&l.id))
                .collect();
            if candidates.is_empty() {
                return ForwardingPath { as_path: route.as_path, steps, routed: false };
            }
            let pick =
                stable_hash(&[flow_id as u64, steps.len() as u64]) as usize % candidates.len();
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

    /// Deterministic jitter in `[0, max_ms)`, varying with time bucket so
    /// repeated measurements differ realistically but reproducibly.
    fn jitter_ms(seed: u64, parts: &[u64], max_ms: f64) -> f64 {
        let mut v = vec![seed];
        v.extend_from_slice(parts);
        let h = stable_hash(&v);
        (h % 10_000) as f64 / 10_000.0 * max_ms
    }

    fn hop_times_out(seed: u64, parts: &[u64]) -> bool {
        let mut v = vec![seed, 0xdead];
        v.extend_from_slice(parts);
        let h = stable_hash(&v);
        (h as f64 / u64::MAX as f64) < HOP_TIMEOUT_PROB
    }

    /// `rtt::execute`, drawing through the `Vec`-building hashes above.
    pub(super) fn execute(
        sim: &TracerouteSimulator<'_>,
        probe: ProbeId,
        dst: Ipv4Addr,
        time: SimTime,
        flow_id: u16,
        fwd: &ForwardingPath,
    ) -> Traceroute {
        let world = &sim.scenario().world;
        let probe_info = *world.probe(probe);
        let seed = world.seed;
        // Five-minute time bucket: repeated samples inside a bucket coincide,
        // across buckets they differ.
        let bucket = (time.0 / 300) as u64;

        let mut hops = Vec::new();
        let mut one_way_ms = 0.0f64;
        let mut ttl: u8 = 1;
        let mut current_city = probe_info.city;

        // First hop: the probe's home gateway.
        one_way_ms += ROUTER_COST_MS + jitter_ms(seed, &[probe.0 as u64, bucket, 0], 0.4);
        hops.push(Hop {
            ttl,
            addr: Some(probe_info.addr),
            asn: Some(probe_info.asn),
            city: Some(probe_info.city),
            rtt_ms: Some(2.0 * one_way_ms),
        });

        // No route: a few anonymous timeouts, then give up — the classic look
        // of traceroute into a withdrawn prefix.
        let unrouted = |mut hops: Vec<Hop>, mut ttl: u8| {
            for _ in 0..3 {
                ttl += 1;
                hops.push(Hop { ttl, addr: None, asn: None, city: None, rtt_ms: None });
            }
            Traceroute { probe, src: probe_info.addr, dst, time, flow_id, hops, completed: false }
        };
        if !fwd.routed {
            return unrouted(hops, ttl);
        }

        for (i, step) in fwd.steps.iter().enumerate() {
            // Intra-AS: current city → egress city of this step.
            let a = world.city(current_city).location;
            let b = world.city(step.egress_city).location;
            one_way_ms += a.fiber_latency_ms(&b) + ROUTER_COST_MS;

            // Failure-displaced congestion on the link about to be crossed
            // (see `TracerouteSimulator` docs).
            one_way_ms += link_congestion_ms(sim, time, step.link);

            ttl += 1;
            let hop_parts = [probe.0 as u64, dst.0 as u64, bucket, i as u64 + 1];
            if hop_times_out(seed, &hop_parts) {
                hops.push(Hop { ttl, addr: None, asn: None, city: None, rtt_ms: None });
            } else {
                let j = jitter_ms(seed, &hop_parts, 1.2);
                hops.push(Hop {
                    ttl,
                    addr: Some(step.egress_addr),
                    asn: Some(step.from_as),
                    city: Some(step.egress_city),
                    rtt_ms: Some(2.0 * one_way_ms + j),
                });
            }

            // Cross the inter-AS link.
            let link = world.link(step.link);
            one_way_ms += link.latency_ms;
            current_city = step.ingress_city;
        }

        // Final segment: ingress city of the origin AS to the destination host
        // (hosted at the origin AS's PoP nearest to the entry point).
        // A routed path names its origin, which the world knows; should either
        // fail, the destination is unreachable past the last hop.
        let Some(&origin) = fwd.as_path.last() else {
            return unrouted(hops, ttl);
        };
        let Some(origin_info) = world.as_info(origin) else {
            return unrouted(hops, ttl);
        };
        let dest_city = origin_info
            .presence
            .iter()
            .copied()
            .min_by(|&x, &y| {
                let t = world.city(current_city).location;
                let dx = world.city(x).location.distance_km(&t);
                let dy = world.city(y).location.distance_km(&t);
                dx.total_cmp(&dy).then(x.cmp(&y))
            })
            .unwrap_or(current_city);
        let a = world.city(current_city).location;
        let b = world.city(dest_city).location;
        one_way_ms += a.fiber_latency_ms(&b) + ROUTER_COST_MS;

        // Congestion surge between probe region and destination region.
        let dst_region = origin_info.region;
        one_way_ms += sim.scenario().congestion_extra_ms(time, probe_info.region, dst_region);

        ttl += 1;
        let j = jitter_ms(seed, &[probe.0 as u64, dst.0 as u64, bucket, 0xFF], 1.2);
        hops.push(Hop {
            ttl,
            addr: Some(dst),
            asn: Some(origin),
            city: Some(dest_city),
            rtt_ms: Some(2.0 * one_way_ms + j),
        });

        Traceroute { probe, src: probe_info.addr, dst, time, flow_id, hops, completed: true }
    }

    mod oracle {
        use std::collections::BTreeSet;
        use std::sync::{Arc, OnceLock};

        use net_model::geo::GeoCircle;
        use net_model::{
            Asn, CableId, GeoPoint, Ipv4Addr, Ipv4Net, ProbeId, Region, SimDuration, SimTime,
        };
        use proptest::prelude::*;
        use world::physical::PathHop;
        use world::{generate, EventKind, Scenario, World, WorldConfig};

        use crate::{path, Traceroute, TracerouteSimulator};

        /// The shared world and what the random timelines draw from.
        struct Fixture {
            world: Arc<World>,
            /// European probes to Asian access prefixes, both Paris flows.
            pairs: Vec<(ProbeId, Ipv4Addr, u16)>,
            /// Cables the pairs' quiet paths ride, ascending.
            cables: Vec<CableId>,
            /// Landing points of those cables: disaster centres.
            centres: Vec<GeoPoint>,
            /// The pairs' destination prefixes: hijack victims.
            victims: Vec<Ipv4Net>,
            /// Hijackers and leakers.
            ases: Vec<Asn>,
        }

        /// Built once: debug-mode world generation is the slow part.
        fn fixture() -> &'static Fixture {
            static FIXTURE: OnceLock<Fixture> = OnceLock::new();
            FIXTURE.get_or_init(|| {
                let world = Arc::new(generate(&WorldConfig::default()));
                let region_of = |asn| world.as_info(asn).map(|a| (a.region, a.tier));
                let probes: Vec<ProbeId> = world
                    .probes
                    .iter()
                    .filter(|p| p.region == Region::Europe)
                    .step_by(5)
                    .take(5)
                    .map(|p| p.id)
                    .collect();
                let dests: Vec<Ipv4Net> = world
                    .prefixes
                    .iter()
                    .filter(|p| {
                        region_of(p.origin) == Some((Region::Asia, world::AsTier::Access))
                    })
                    .step_by(3)
                    .take(4)
                    .map(|p| p.net)
                    .collect();
                let pairs: Vec<(ProbeId, Ipv4Addr, u16)> = probes
                    .iter()
                    .flat_map(|&p| dests.iter().map(move |d| (p, d.host(1))))
                    .flat_map(|(p, d)| [(p, d, 0), (p, d, 1)])
                    .collect();
                let quiet = Scenario::quiet(Arc::clone(&world), 10);
                let sim = TracerouteSimulator::new(&quiet);
                let mut cables = BTreeSet::new();
                for &(probe, dst, flow) in &pairs {
                    let quiet_path = path::forwarding_path(&sim, probe, dst, SimTime::EPOCH, flow);
                    for link in quiet_path.links() {
                        for hop in &world.link(link).path.hops {
                            if let PathHop::Cable { cable, .. } = hop {
                                cables.insert(*cable);
                            }
                        }
                    }
                }
                let cables: Vec<CableId> = cables.into_iter().collect();
                let centres = cables
                    .iter()
                    .flat_map(|&c| world.cable(c).landings.clone())
                    .map(|city| world.city(city).location)
                    .collect();
                let ases = world.ases.iter().step_by(7).map(|a| a.asn).collect();
                Fixture { world, pairs, cables, centres, victims: dests, ases }
            })
        }

        /// Event starts, in seconds from the horizon start (the horizon is
        /// ten days): before it, on its edges, inside it, after it.
        const STARTS: [i64; 9] = [
            -2 * 86_400,
            -1,
            0,
            3 * 86_400 + 7 * 3_600 + 13,
            5 * 86_400,
            5 * 86_400 + 1,
            10 * 86_400 - 1,
            10 * 86_400,
            11 * 86_400,
        ];

        /// Event lengths in seconds; `None` never ends. One second is the
        /// shortest event that is ever active.
        const LENGTHS: [Option<i64>; 7] =
            [Some(1), Some(2), Some(3_600), Some(2 * 86_400), Some(13 * 86_400), None, Some(0)];

        /// One timeline event from its drawn coordinates.
        fn event_kind(fx: &Fixture, kind: u8, pick: usize) -> EventKind {
            let cable = fx.cables[pick % fx.cables.len()];
            let centre = fx.centres[pick % fx.centres.len()];
            let (low, high) = ((pick / 7).is_multiple_of(2), pick.is_multiple_of(2));
            match kind {
                0 => EventKind::CableCut { cable },
                1 => {
                    let segments = fx.world.cable(cable).segments.len();
                    EventKind::SegmentCut { cable, segment: (pick / 3) % segments }
                }
                2 => EventKind::Earthquake {
                    footprint: GeoCircle::new(centre, if low { 300.0 } else { 800.0 }),
                    failure_prob: if high { 1.0 } else { 0.5 },
                },
                3 => EventKind::Hurricane {
                    footprint: GeoCircle::new(centre, if low { 600.0 } else { 1_200.0 }),
                    failure_prob: if high { 0.7 } else { 0.3 },
                },
                4 => {
                    let (from, to) = (Region::Europe, Region::Asia);
                    let (from, to) = if low { (from, to) } else { (to, from) };
                    EventKind::CongestionSurge { from, to, extra_ms: 5.0 + (pick % 40) as f64 }
                }
                5 => EventKind::PrefixHijack {
                    origin: fx.ases[pick % fx.ases.len()],
                    victim_prefix: fx.victims[(pick / 5) % fx.victims.len()],
                },
                _ => EventKind::RouteLeak { leaker: fx.ases[pick % fx.ases.len()] },
            }
        }

        /// A trace's hop RTTs as bit patterns.
        fn rtt_bits(tr: &Traceroute) -> Vec<Option<u64>> {
            tr.hops.iter().map(|h| h.rtt_ms.map(f64::to_bits)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn interval_state_matches_the_per_call_oracle(
                events in proptest::collection::vec(
                    (0u8..7, 0usize..1_000, 0usize..STARTS.len(), 0usize..LENGTHS.len()),
                    0..=4,
                ),
            ) {
                let fx = fixture();
                let mut scenario = Scenario::quiet(Arc::clone(&fx.world), 10);
                for &(kind, pick, start, length) in &events {
                    let at = SimTime::EPOCH + SimDuration::seconds(STARTS[start]);
                    let until = LENGTHS[length].map(|l| at + SimDuration::seconds(l));
                    scenario.push_event(event_kind(fx, kind, pick), at, until);
                }
                let sim = TracerouteSimulator::new(&scenario);
                let horizon = scenario.horizon;
                let mut instants: BTreeSet<SimTime> = [
                    horizon.start - SimDuration::days(3),
                    horizon.start,
                    horizon.start + SimDuration::hours(53),
                    horizon.end,
                    horizon.end + SimDuration::days(3),
                ]
                .into();
                for ev in &scenario.events {
                    for t in [Some(ev.at), ev.until].into_iter().flatten() {
                        instants.extend([SimTime(t.0 - 1), t, SimTime(t.0 + 1)]);
                    }
                }
                for &t in &instants {
                    for &(probe, dst, flow) in &fx.pairs {
                        let where_ = || {
                            let events = &scenario.events;
                            format!("{probe:?} → {dst} flow {flow} at {t:?} under {events:?}")
                        };
                        let (fast, slow) = (
                            path::forwarding_path(&sim, probe, dst, t, flow),
                            super::forwarding_path(&sim, probe, dst, t, flow),
                        );
                        prop_assert!(fast == slow, "path of {}: {fast:?} vs {slow:?}", where_());
                        let (fast, slow) = (
                            sim.measure(probe, dst, t, flow),
                            super::measure(&sim, probe, dst, t, flow),
                        );
                        prop_assert!(rtt_bits(&fast) == rtt_bits(&slow), "RTTs of {}", where_());
                        prop_assert_eq!(fast, slow);
                    }
                }
            }
        }
    }
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
        let epoch = |t| sim.intervals[sim.interval(t)].epoch;
        assert_eq!(epoch(cut - SimDuration::hours(1)), 0);
        assert_eq!(epoch(cut), 1);
        assert_eq!(epoch(cut + SimDuration::days(1)), 1);
    }

    #[test]
    fn intervals_split_at_events_outside_the_horizon_too() {
        // A cut that starts a day before the horizon and is repaired a day
        // into it, then a second cut after the horizon ends.
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let (before, repair) = (SimTime::EPOCH - SimDuration::days(1), SimDuration::days(1));
        let after = SimTime::EPOCH + SimDuration::days(12);
        let mut s = Scenario::quiet(world, 10);
        s.push_event(EventKind::CableCut { cable }, before, Some(SimTime::EPOCH + repair));
        s.push_event(EventKind::CableCut { cable }, after, None);
        let sim = TracerouteSimulator::new(&s);
        assert_eq!(sim.splits, vec![before, SimTime::EPOCH + repair, after]);
        // Only the repair lies inside the horizon, so two routing epochs.
        assert_eq!(sim.tables.len(), 2);
        let epochs: Vec<usize> = sim.intervals.iter().map(|i| i.epoch).collect();
        assert_eq!(epochs, vec![0, 0, 1, 1]);
        for t in [before - SimDuration::days(1), before, SimTime::EPOCH, after, after + repair] {
            assert_eq!(sim.links_down_in(sim.interval(t)), &s.links_down_at(t), "at {t:?}");
        }
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
