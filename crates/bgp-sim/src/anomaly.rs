//! BGP anomaly detection over update streams.
//!
//! Four detectors the case-study workflows use:
//!
//! * **update bursts** — bucket the stream, model the per-bucket count as
//!   roughly normal, flag buckets whose z-score exceeds a threshold. A
//!   cable cut produces a sharp, short burst of withdrawals and
//!   re-announcements; the forensic workflow (case study 4) correlates the
//!   burst time with the latency anomaly onset.
//! * **reachability losses** — `(peer, prefix)` pairs withdrawn and never
//!   re-announced within the stream, the signature of a hard partition.
//! * **MOAS conflicts** — prefixes observed with more than one origin AS
//!   (across a baseline RIB and the announcement stream), the signature
//!   of a prefix hijack.
//! * **valley violations** — announced AS paths that break the
//!   valley-free export rule against a reference topology, the signature
//!   of a route leak (with the pivot AS — the leaker candidate —
//!   attributed per violation).

use std::collections::{BTreeMap, BTreeSet};

use net_model::{Asn, Ipv4Net, SimTime, TimeWindow};
use serde::{Deserialize, Serialize};

use crate::graph::{AsGraph, NeighborKind};
use crate::rib::{OriginIndex, RibSnapshot};
use crate::updates::{BgpUpdate, UpdateKind};

/// A detected burst of update activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateBurst {
    pub window: TimeWindow,
    pub count: usize,
    /// How many standard deviations above the stream mean.
    pub z_score: f64,
    /// Fraction of updates in the burst that are withdrawals.
    pub withdrawal_fraction: f64,
}

/// Buckets the stream over `window` into `buckets` bins and returns bins
/// whose count z-score is at least `z_threshold`.
///
/// With fewer than two non-empty buckets no baseline exists and the single
/// active bucket is reported with an infinite z-score — an event in an
/// otherwise silent stream is maximally anomalous.
pub fn detect_update_bursts(
    updates: &[BgpUpdate],
    window: TimeWindow,
    buckets: usize,
    z_threshold: f64,
) -> Vec<UpdateBurst> {
    assert!(buckets > 0);
    let bins = window.buckets(buckets);
    let mut counts = vec![0usize; bins.len()];
    let mut withdrawals = vec![0usize; bins.len()];
    for u in updates {
        if let Some(i) = bucket_index(&window, buckets, u.time) {
            counts[i] += 1;
            if u.is_withdraw() {
                withdrawals[i] += 1;
            }
        }
    }

    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
    let sd = var.sqrt();

    let mut out = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let z = if sd > 0.0 {
            (c as f64 - mean) / sd
        } else {
            f64::INFINITY
        };
        if z >= z_threshold {
            out.push(UpdateBurst {
                window: bins[i],
                count: c,
                z_score: z,
                withdrawal_fraction: withdrawals[i] as f64 / c as f64,
            });
        }
    }
    out
}

/// `(peer, prefix)` pairs that were withdrawn and never re-announced later
/// in the stream. Returns them with the withdrawal time.
pub fn reachability_losses(updates: &[BgpUpdate]) -> Vec<(net_model::Asn, Ipv4Net, SimTime)> {
    use std::collections::BTreeMap;
    // Track the last update per (peer, prefix); stream is time-ordered.
    let mut last: BTreeMap<(net_model::Asn, Ipv4Net), (bool, SimTime)> = BTreeMap::new();
    for u in updates {
        let is_withdraw = matches!(u.kind, UpdateKind::Withdraw);
        last.insert((u.peer, u.prefix), (is_withdraw, u.time));
    }
    last.into_iter()
        .filter(|(_, (w, _))| *w)
        .map(|((peer, prefix), (_, t))| (peer, prefix, t))
        .collect()
}

/// A detected MOAS (multiple-origin AS) conflict: one prefix, several
/// origins — the capture footprint of a prefix hijack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoasConflict {
    pub prefix: Ipv4Net,
    /// Every origin observed for the prefix, ascending.
    pub origins: Vec<Asn>,
    /// When the stream first showed a second distinct origin (`None` when
    /// the conflict was already present in the baseline RIB).
    pub first_conflict: Option<SimTime>,
    /// Announcements of this prefix in the stream.
    pub announcements: usize,
}

/// Detects MOAS conflicts: prefixes whose observed origin set — origins
/// in the `baseline` RIB plus origins announced in `updates` — has more
/// than one member. Results are in ascending prefix order.
///
/// The baseline matters because a partial hijack moves only *some*
/// vantage points to the bogus origin: the victims' announcements carry
/// the hijacker while unaffected peers silently keep the legitimate
/// origin from the baseline, so the stream alone often shows one origin.
pub fn detect_moas_conflicts(
    updates: &[BgpUpdate],
    baseline: &RibSnapshot,
) -> Vec<MoasConflict> {
    detect_moas_conflicts_indexed(updates, &baseline.origins())
}

/// [`detect_moas_conflicts`] over a baseline already folded to its
/// per-prefix origin sets (what [`crate::BgpSimulator::observe`] returns),
/// so a call costs the stream plus the baseline's conflicted prefixes,
/// not a pass over every RIB entry.
pub fn detect_moas_conflicts_indexed(
    updates: &[BgpUpdate],
    baseline: &OriginIndex,
) -> Vec<MoasConflict> {
    struct Acc {
        origins: BTreeSet<Asn>,
        first_conflict: Option<SimTime>,
        announcements: usize,
        conflicted_in_baseline: bool,
    }
    let start = |prefix: &Ipv4Net| {
        let origins: BTreeSet<Asn> = baseline
            .binary_search_by_key(prefix, |(p, _)| *p)
            .map(|i| baseline[i].1.iter().copied().collect())
            .unwrap_or_default();
        let conflicted_in_baseline = origins.len() > 1;
        Acc { origins, first_conflict: None, announcements: 0, conflicted_in_baseline }
    };
    let mut by_prefix: BTreeMap<Ipv4Net, Acc> = baseline
        .iter()
        .filter(|(_, origins)| origins.len() > 1)
        .map(|(prefix, _)| (*prefix, start(prefix)))
        .collect();
    for u in updates {
        let UpdateKind::Announce { as_path } = &u.kind else { continue };
        let Some(&origin) = as_path.last() else { continue };
        let acc = by_prefix.entry(u.prefix).or_insert_with(|| start(&u.prefix));
        acc.announcements += 1;
        let grew = acc.origins.insert(origin);
        if grew && acc.origins.len() > 1 && acc.first_conflict.is_none() {
            acc.first_conflict = Some(u.time);
        }
    }
    by_prefix
        .into_iter()
        .filter(|(_, acc)| acc.origins.len() > 1)
        .map(|(prefix, acc)| MoasConflict {
            prefix,
            origins: acc.origins.into_iter().collect(),
            first_conflict: if acc.conflicted_in_baseline { None } else { acc.first_conflict },
            announcements: acc.announcements,
        })
        .collect()
}

/// An announced AS path that violates the valley-free export rule — the
/// capture footprint of a route leak.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValleyViolation {
    pub time: SimTime,
    pub peer: Asn,
    pub prefix: Ipv4Net,
    /// The violating path (prepending collapsed).
    pub as_path: Vec<Asn>,
    /// The AS at which the path first turns back up/sideways after going
    /// down — the leaker candidate — when the violation is a genuine
    /// valley (`None` when the path crosses a non-adjacency instead).
    pub pivot: Option<Asn>,
}

/// Detects announcements whose AS path is not valley-free against
/// `graph` (a reference topology — typically the scenario's quiet-start
/// graph, whose adjacency set is a superset of every later instant's).
/// Consecutive duplicate ASNs (path prepending, e.g. the simulator's
/// exploration transients) are collapsed before checking, since
/// prepending is legitimate. Results are in stream order.
pub fn detect_valley_violations(
    updates: &[BgpUpdate],
    graph: &AsGraph,
) -> Vec<ValleyViolation> {
    let mut out = Vec::new();
    for u in updates {
        let UpdateKind::Announce { as_path } = &u.kind else { continue };
        let mut path: Vec<Asn> = Vec::with_capacity(as_path.len());
        for &a in as_path {
            if path.last() != Some(&a) {
                path.push(a);
            }
        }
        if let Some(pivot) = valley_pivot(graph, &path) {
            out.push(ValleyViolation {
                time: u.time,
                peer: u.peer,
                prefix: u.prefix,
                as_path: path,
                pivot,
            });
        }
    }
    out
}

/// Where a path first violates the valley-free rule, walking from the
/// holder towards the origin: `Some(Some(asn))` names the AS after which
/// the path illegally turns up/sideways again (the leaker candidate),
/// `Some(None)` flags a non-adjacency step, `None` means the path is
/// clean. Mirrors [`crate::routing::is_valley_free`]'s phase machine.
fn valley_pivot(graph: &AsGraph, path: &[Asn]) -> Option<Option<Asn>> {
    #[derive(PartialEq)]
    enum Phase {
        Up,
        Side,
        Down,
    }
    let mut phase = Phase::Up;
    for w in path.windows(2) {
        let (u, v) = (w[0], w[1]);
        let kind = match graph.kind_between(u, v) {
            Some(k) => k,
            None => return Some(None),
        };
        match kind {
            NeighborKind::Provider => {
                if phase != Phase::Up {
                    return Some(Some(u));
                }
            }
            NeighborKind::Peer => {
                if phase != Phase::Up {
                    return Some(Some(u));
                }
                phase = Phase::Side;
            }
            NeighborKind::Customer => {
                phase = Phase::Down;
            }
        }
    }
    None
}

/// The index of the bucket of `TimeWindow::buckets(n)` containing `t`,
/// computed arithmetically — O(1) per update instead of the former
/// O(buckets) linear scan. Mirrors the bucket geometry exactly: buckets
/// are `total / n` seconds wide (integer division) and the last bucket
/// absorbs the remainder; a zero-width bucket (window shorter than `n`
/// seconds) can contain nothing, so everything lands in the final
/// remainder bucket.
fn bucket_index(window: &TimeWindow, n: usize, t: SimTime) -> Option<usize> {
    if !window.contains(t) {
        return None;
    }
    let step = window.duration().as_seconds() / n as i64;
    if step == 0 {
        return Some(n - 1);
    }
    let idx = ((t.0 - window.start.0) / step) as usize;
    Some(idx.min(n - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::{Asn, SimDuration};
    use world::{generate, EventKind, Scenario, WorldConfig};

    fn cut_scenario_updates() -> (SimTime, TimeWindow, Vec<BgpUpdate>) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut);
        let peers: Vec<Asn> = s.world.ases.iter().take(40).map(|a| a.asn).collect();
        let ups = crate::updates::derive_updates(&s, &peers);
        (cut, s.horizon, ups)
    }

    #[test]
    fn burst_detected_at_cut_time() {
        let (cut, horizon, ups) = cut_scenario_updates();
        let bursts = detect_update_bursts(&ups, horizon, 240, 3.0);
        assert!(!bursts.is_empty(), "cable cut must produce a burst");
        let hit = bursts.iter().any(|b| b.window.contains(cut) || b.window.start >= cut);
        assert!(hit, "burst should align with the cut");
    }

    #[test]
    fn no_burst_in_quiet_stream() {
        let horizon = TimeWindow::new(SimTime(0), SimTime(86_400));
        let bursts = detect_update_bursts(&[], horizon, 24, 2.5);
        assert!(bursts.is_empty());
    }

    #[test]
    fn bucket_index_matches_linear_scan() {
        // Awkward divisions: remainders, windows shorter than the bucket
        // count, single buckets.
        for (start, end, n) in [
            (0i64, 100i64, 7usize),
            (13, 113, 9),
            (0, 5, 24),
            (-50, 77, 3),
            (0, 86_400, 240),
            (10, 11, 4),
            (0, 60, 1),
        ] {
            let w = TimeWindow::new(SimTime(start), SimTime(end));
            let bins = w.buckets(n);
            for t in (start - 2)..(end + 2) {
                let linear = bins.iter().position(|b| b.contains(SimTime(t)));
                assert_eq!(
                    bucket_index(&w, n, SimTime(t)),
                    linear,
                    "window [{start},{end}) n={n} t={t}"
                );
            }
        }
    }

    fn ann(t: i64, peer: u32, prefix: Ipv4Net, path: &[u32]) -> BgpUpdate {
        BgpUpdate {
            time: SimTime(t),
            peer: Asn(peer),
            prefix,
            kind: UpdateKind::Announce { as_path: path.iter().map(|&a| Asn(a)).collect() },
        }
    }

    #[test]
    fn moas_conflict_needs_baseline_awareness() {
        use crate::rib::{RibEntry, RibSnapshot};
        let pfx = Ipv4Net::parse("10.0.0.0/20").unwrap();
        let other = Ipv4Net::parse("10.16.0.0/20").unwrap();
        // Baseline: two peers hold the prefix from legitimate origin 30.
        let baseline = RibSnapshot {
            at: SimTime(0),
            entries: vec![
                RibEntry { peer: Asn(1), prefix: pfx, as_path: vec![Asn(1), Asn(30)] },
                RibEntry { peer: Asn(2), prefix: pfx, as_path: vec![Asn(2), Asn(30)] },
                RibEntry { peer: Asn(1), prefix: other, as_path: vec![Asn(1), Asn(40)] },
            ],
        };
        // Stream: only peer 1 moves to the hijacker (origin 99) — the
        // stream alone never shows origin 30.
        let stream = vec![ann(500, 1, pfx, &[1, 99])];
        let conflicts = detect_moas_conflicts(&stream, &baseline);
        assert_eq!(conflicts.len(), 1);
        let c = &conflicts[0];
        assert_eq!(c.prefix, pfx);
        assert_eq!(c.origins, vec![Asn(30), Asn(99)]);
        assert_eq!(c.first_conflict, Some(SimTime(500)));
        assert_eq!(c.announcements, 1);

        // Without the hijack announcement: no conflict anywhere.
        assert!(detect_moas_conflicts(&[], &baseline).is_empty());
    }

    #[test]
    fn moas_ignores_withdrawals_and_single_origin_churn() {
        use crate::rib::RibSnapshot;
        let pfx = Ipv4Net::parse("10.0.0.0/20").unwrap();
        let empty = RibSnapshot { at: SimTime(0), entries: vec![] };
        let stream = vec![
            ann(10, 1, pfx, &[1, 30]),
            BgpUpdate {
                time: SimTime(20),
                peer: Asn(1),
                prefix: pfx,
                kind: UpdateKind::Withdraw,
            },
            ann(30, 1, pfx, &[1, 5, 30]),
        ];
        assert!(detect_moas_conflicts(&stream, &empty).is_empty());
    }

    #[test]
    fn valley_violation_detected_with_pivot_and_prepending_ignored() {
        use world::RelKind;
        // 10 ── provider of ── 20, 30; 20 ── peer ── 30.
        let g = crate::graph::AsGraph::from_relationships(
            vec![Asn(10), Asn(20), Asn(30)],
            vec![
                (Asn(10), Asn(20), RelKind::ProviderCustomer),
                (Asn(10), Asn(30), RelKind::ProviderCustomer),
                (Asn(20), Asn(30), RelKind::Peer),
            ],
        );
        let pfx = Ipv4Net::parse("10.0.0.0/20").unwrap();
        // 20 → 10 (up) → 30 (down): clean.
        let clean = ann(0, 20, pfx, &[20, 10, 30]);
        // Prepended head (transient texture): still clean.
        let prepended = ann(1, 20, pfx, &[20, 20, 10, 30]);
        // 10 → 20 (down) → 30 (peer, sideways after down): the leak shape —
        // 20 is the pivot (the leaker candidate).
        let leaked = ann(2, 10, pfx, &[10, 20, 30]);
        // A step with no adjacency at all.
        let bogus = ann(3, 20, pfx, &[20, 99, 30]);

        let violations = detect_valley_violations(&[clean, prepended, leaked, bogus], &g);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].as_path, vec![Asn(10), Asn(20), Asn(30)]);
        assert_eq!(violations[0].pivot, Some(Asn(20)));
        assert_eq!(violations[1].pivot, None, "non-adjacency has no pivot");
    }

    #[test]
    fn reachability_loss_requires_no_reannounce() {
        use crate::updates::UpdateKind;
        let pfx = Ipv4Net::parse("10.0.0.0/20").unwrap();
        let peer = Asn(42);
        let w = |t: i64| BgpUpdate { time: SimTime(t), peer, prefix: pfx, kind: UpdateKind::Withdraw };
        let a = |t: i64| BgpUpdate {
            time: SimTime(t),
            peer,
            prefix: pfx,
            kind: UpdateKind::Announce { as_path: vec![peer] },
        };
        // Withdrawn then re-announced: not a loss.
        assert!(reachability_losses(&[w(10), a(20)]).is_empty());
        // Withdrawn last: a loss.
        let losses = reachability_losses(&[a(5), w(30)]);
        assert_eq!(losses, vec![(peer, pfx, SimTime(30))]);
    }
}
