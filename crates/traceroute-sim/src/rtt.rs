//! RTT synthesis and hop records: turning a forwarding path into the
//! traceroute a probe would actually report.
//!
//! The latency model, hop by hop:
//!
//! * crossing an inter-AS link costs its propagation latency (which embeds
//!   the physical path — the cable detour is what makes post-failure RTTs
//!   jump);
//! * moving through an AS from ingress city to egress city costs the
//!   intra-AS backbone latency (fiber over the great circle) plus a fixed
//!   per-router processing cost;
//! * every reading carries deterministic jitter, and a small fraction of
//!   hops time out;
//! * active congestion surges between the probe's and destination's
//!   regions add their extra latency once.

use net_model::{Asn, CityId, Ipv4Addr, ProbeId, SimTime};
use serde::{Deserialize, Serialize};
use net_model::hash::stable_hash;

use crate::path::ForwardingPath;
use crate::TracerouteSimulator;

/// Per-router processing/serialization cost, ms (one-way).
pub(crate) const ROUTER_COST_MS: f64 = 0.15;

/// Probability that a single hop reading times out.
pub(crate) const HOP_TIMEOUT_PROB: f64 = 0.008;

/// One traceroute hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hop {
    pub ttl: u8,
    /// Responding interface; `None` on timeout.
    pub addr: Option<Ipv4Addr>,
    /// AS owning the interface, when known.
    pub asn: Option<Asn>,
    /// City of the responding router, when known.
    pub city: Option<CityId>,
    /// Round-trip time; `None` on timeout.
    pub rtt_ms: Option<f64>,
}

/// A complete traceroute measurement record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traceroute {
    pub probe: ProbeId,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub time: SimTime,
    pub flow_id: u16,
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub completed: bool,
}

impl Traceroute {
    /// End-to-end RTT (last hop's reading), if completed.
    pub fn end_to_end_rtt(&self) -> Option<f64> {
        if !self.completed {
            return None;
        }
        self.hops.last().and_then(|h| h.rtt_ms)
    }

    /// The AS-level path as revealed by the hops (deduplicated, order
    /// preserved) — what an AS-traceroute tool would infer.
    pub fn as_hops(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> = Vec::new();
        for h in &self.hops {
            if let Some(asn) = h.asn {
                if out.last() != Some(&asn) {
                    out.push(asn);
                }
            }
        }
        out
    }
}

/// Deterministic jitter in `[0, max_ms)` from `words` (the world seed,
/// then the reading's identity), varying with time bucket so repeated
/// measurements differ realistically but reproducibly. Callers pass a
/// stack array, so a hop's draws allocate nothing.
fn jitter_ms(words: &[u64], max_ms: f64) -> f64 {
    let h = stable_hash(words);
    (h % 10_000) as f64 / 10_000.0 * max_ms
}

/// Whether a hop reading times out; `words` is the world seed, `0xdead`,
/// then the hop's identity.
fn hop_times_out(words: &[u64]) -> bool {
    let h = stable_hash(words);
    (h as f64 / u64::MAX as f64) < HOP_TIMEOUT_PROB
}

/// Executes the RTT model over a derived forwarding path.
pub fn execute(
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
    one_way_ms += ROUTER_COST_MS + jitter_ms(&[seed, probe.0 as u64, bucket, 0], 0.4);
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
        one_way_ms += sim.link_congestion_ms(time, step.link);

        ttl += 1;
        let (p, d, hop) = (probe.0 as u64, dst.0 as u64, i as u64 + 1);
        if hop_times_out(&[seed, 0xdead, p, d, bucket, hop]) {
            hops.push(Hop { ttl, addr: None, asn: None, city: None, rtt_ms: None });
        } else {
            let j = jitter_ms(&[seed, p, d, bucket, hop], 1.2);
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
    let j = jitter_ms(&[seed, probe.0 as u64, dst.0 as u64, bucket, 0xFF], 1.2);
    hops.push(Hop {
        ttl,
        addr: Some(dst),
        asn: Some(origin),
        city: Some(dest_city),
        rtt_ms: Some(2.0 * one_way_ms + j),
    });

    Traceroute { probe, src: probe_info.addr, dst, time, flow_id, hops, completed: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimDuration;
    use world::{generate, EventKind, Scenario, WorldConfig};

    fn fixture() -> (Scenario, SimTime) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        (Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut), cut)
    }

    #[test]
    fn rtts_are_monotone_along_the_path() {
        let (s, _) = fixture();
        let sim = TracerouteSimulator::new(&s);
        let probe = s.world.probes[1].id;
        let dst = s.world.prefixes[120].net.host(1);
        let tr = sim.measure(probe, dst, SimTime::EPOCH + SimDuration::days(1), 3);
        assert!(tr.completed);
        let rtts: Vec<f64> = tr.hops.iter().filter_map(|h| h.rtt_ms).collect();
        assert!(rtts.len() >= 2);
        for w in rtts.windows(2) {
            // Jitter is bounded by 1.2 ms, distances dominate; allow tiny
            // inversions from jitter.
            assert!(w[1] + 1.5 > w[0], "rtt sequence {rtts:?} not monotone-ish");
        }
    }

    #[test]
    fn long_haul_rtt_is_physically_plausible() {
        let (s, _) = fixture();
        let sim = TracerouteSimulator::new(&s);
        // European probe to an Asian access prefix.
        let probe = s
            .world
            .probes
            .iter()
            .find(|p| p.region == net_model::Region::Europe)
            .unwrap();
        let asian_pfx = s
            .world
            .prefixes
            .iter()
            .find(|p| {
                s.world.as_info(p.origin).map(|a| {
                    a.region == net_model::Region::Asia && a.tier == world::AsTier::Access
                }) == Some(true)
            })
            .unwrap();
        let tr = sim.measure(probe.id, asian_pfx.net.host(1), SimTime::EPOCH, 0);
        assert!(tr.completed);
        let rtt = tr.end_to_end_rtt().unwrap();
        assert!(
            (60.0..800.0).contains(&rtt),
            "Europe→Asia RTT {rtt}ms outside plausible band"
        );
    }

    #[test]
    fn cable_cut_shifts_mean_rtt_for_europe_asia() {
        let (s, cut) = fixture();
        let sim = TracerouteSimulator::new(&s);
        let probes: Vec<ProbeId> = s
            .world
            .probes
            .iter()
            .filter(|p| p.region == net_model::Region::Europe)
            .map(|p| p.id)
            .collect();
        let dests: Vec<Ipv4Addr> = s
            .world
            .prefixes
            .iter()
            .filter(|p| {
                s.world.as_info(p.origin).map(|a| {
                    a.region == net_model::Region::Asia && a.tier == world::AsTier::Access
                }) == Some(true)
            })
            .take(6)
            .map(|p| p.net.host(1))
            .collect();
        // Every probe × destination pair, sampled every 8 h across the
        // horizon; completed RTTs split at the cut.
        let (mut before, mut after) = (Vec::new(), Vec::new());
        let mut t = s.horizon.start;
        while t < s.horizon.end {
            for &probe in &probes {
                for &dst in &dests {
                    if let Some(rtt) = sim.measure(probe, dst, t, 0).end_to_end_rtt() {
                        let side = if t < cut { &mut before } else { &mut after };
                        side.push(rtt);
                    }
                }
            }
            t = t + SimDuration::hours(8);
        }
        assert!(!before.is_empty(), "pre-cut samples");
        assert!(!after.is_empty(), "post-cut samples");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (before, after) = (mean(&before), mean(&after));
        assert!(
            after > before,
            "cutting SeaMeWe-5 must raise Europe→Asia mean RTT ({before:.1} → {after:.1})"
        );
    }

    #[test]
    fn unrouted_destination_yields_incomplete_trace() {
        let (s, _) = fixture();
        let sim = TracerouteSimulator::new(&s);
        let tr = sim.measure(
            s.world.probes[0].id,
            Ipv4Addr::from_octets(203, 0, 113, 7),
            SimTime::EPOCH,
            0,
        );
        assert!(!tr.completed);
        assert!(tr.end_to_end_rtt().is_none());
        assert!(tr.hops.iter().skip(1).all(|h| h.rtt_ms.is_none()));
    }

    #[test]
    fn as_hops_match_bgp_path() {
        let (s, _) = fixture();
        let sim = TracerouteSimulator::new(&s);
        let probe = &s.world.probes[5];
        let pfx = &s.world.prefixes[60];
        let t = SimTime::EPOCH + SimDuration::days(2);
        let tr = sim.measure(probe.id, pfx.net.host(1), t, 1);
        if tr.completed {
            let expected = sim.routing_at(t).route(probe.asn, pfx.origin).unwrap();
            let revealed = tr.as_hops();
            // Every revealed ASN must appear on the BGP path, in order
            // (timeouts may hide some).
            let mut iter = expected.as_path.iter();
            for asn in &revealed {
                assert!(
                    iter.any(|e| e == asn),
                    "revealed {asn} not on BGP path {:?}",
                    expected.as_path
                );
            }
        }
    }

    #[test]
    fn congestion_raises_rtt_without_path_change() {
        let (s, _) = fixture();
        // Build a second scenario that adds a congestion surge over days 6–8.
        let mut s2 = s.clone();
        let start = SimTime::EPOCH + SimDuration::days(6);
        s2.push_event(
            EventKind::CongestionSurge {
                from: net_model::Region::Europe,
                to: net_model::Region::Asia,
                extra_ms: 40.0,
            },
            start,
            Some(start + SimDuration::days(2)),
        );
        let sim = TracerouteSimulator::new(&s2);
        let probe = s2
            .world
            .probes
            .iter()
            .find(|p| p.region == net_model::Region::Europe)
            .unwrap();
        let pfx = s2
            .world
            .prefixes
            .iter()
            .find(|p| {
                s2.world.as_info(p.origin).map(|a| a.region == net_model::Region::Asia)
                    == Some(true)
            })
            .unwrap();
        let dst = pfx.net.host(1);
        let before = sim.measure(probe.id, dst, start - SimDuration::hours(2), 0);
        let during = sim.measure(probe.id, dst, start + SimDuration::hours(2), 0);
        if let (Some(b), Some(d)) = (before.end_to_end_rtt(), during.end_to_end_rtt()) {
            assert!(d > b + 30.0, "surge should add ≈40ms (before {b}, during {d})");
        } else {
            panic!("both measurements should complete");
        }
    }
}
