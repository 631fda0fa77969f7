//! Analytical utilities the generated workflows compose: latency anomaly
//! detection, suspect-cable scoring, evidence correlation and synthesis,
//! control-plane incident attribution, and unified timeline construction.
//!
//! All functions are pure over the [`crate::data`] schemas (plus the BGP
//! substrate's serializable detector outputs), so they can be unit-tested
//! without a world and invoked by the runtime with serialized inputs.

use std::collections::BTreeMap;

use bgp_sim::{MoasConflict, ValleyViolation};

use crate::data::*;

/// Buckets campaign RTTs into a mean series.
pub fn rtt_series(campaign: &CampaignData, bucket_seconds: i64) -> SeriesData {
    assert!(bucket_seconds > 0);
    let mut buckets: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
    for m in &campaign.measurements {
        if let Some(rtt) = m.rtt_ms {
            let b = (m.time - campaign.window_start) / bucket_seconds * bucket_seconds
                + campaign.window_start;
            let e = buckets.entry(b).or_insert((0.0, 0));
            e.0 += rtt;
            e.1 += 1;
        }
    }
    SeriesData {
        bucket_seconds,
        points: buckets.into_iter().map(|(t, (sum, n))| (t, sum / n as f64, n)).collect(),
    }
}

/// Attributes a control-plane incident from the two detector streams.
///
/// MOAS conflicts are hijack evidence: every conflicting origin that is
/// not the prefix's registered owner (per `legit_origins`, prefix in
/// string form) votes for itself as the offender. Valley violations are
/// leak evidence: each violation's pivot AS (where the path illegally
/// turns back up) votes. Hijack evidence takes precedence — a hijack
/// produces MOAS conflicts and no valley violations, a leak the reverse,
/// so genuine incidents separate cleanly.
pub fn attribute_control_plane(
    moas: &[MoasConflict],
    valleys: &[ValleyViolation],
    legit_origins: &BTreeMap<String, u32>,
) -> ControlPlaneReportData {
    // Hijack votes: bogus origins across conflicts.
    let mut bogus_votes: BTreeMap<u32, usize> = BTreeMap::new();
    let mut victim_prefixes: Vec<String> = Vec::new();
    for c in moas {
        let prefix = c.prefix.to_string();
        let owner = legit_origins.get(&prefix).copied();
        for o in &c.origins {
            if owner != Some(o.0) {
                *bogus_votes.entry(o.0).or_default() += 1;
            }
        }
        victim_prefixes.push(prefix);
    }
    victim_prefixes.sort();
    victim_prefixes.dedup();

    // Leak votes: pivot ASes across violations.
    let mut pivot_votes: BTreeMap<u32, usize> = BTreeMap::new();
    for v in valleys {
        if let Some(p) = v.pivot {
            *pivot_votes.entry(p.0).or_default() += 1;
        }
    }

    let top = |votes: &BTreeMap<u32, usize>| -> Option<(u32, usize)> {
        votes.iter().map(|(&a, &n)| (a, n)).max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
    };

    if let Some((offender, votes)) = top(&bogus_votes) {
        let confidence = (0.55 + 0.1 * (votes.min(4) as f64)).min(0.95);
        return ControlPlaneReportData {
            kind: "prefix-hijack".into(),
            offender: Some(offender),
            moas_conflicts: moas.len(),
            valley_violations: valleys.len(),
            confidence,
            narrative: format!(
                "{} MOAS conflict(s) observed; AS{offender} originates {} prefix(es) it \
                 does not own",
                moas.len(),
                victim_prefixes.len()
            ),
            victim_prefixes,
        };
    }
    if let Some((offender, votes)) = top(&pivot_votes) {
        let confidence = (0.55 + 0.05 * (votes.min(8) as f64)).min(0.95);
        return ControlPlaneReportData {
            kind: "route-leak".into(),
            offender: Some(offender),
            victim_prefixes: Vec::new(),
            moas_conflicts: moas.len(),
            valley_violations: valleys.len(),
            confidence,
            narrative: format!(
                "{} announced path(s) violate the valley-free export rule, pivoting at \
                 AS{offender}",
                valleys.len()
            ),
        };
    }
    ControlPlaneReportData {
        kind: "none".into(),
        offender: None,
        victim_prefixes: Vec::new(),
        moas_conflicts: moas.len(),
        valley_violations: valleys.len(),
        confidence: 0.9,
        narrative: "no MOAS conflicts and no export-rule violations: control-plane causes \
                    ruled out"
            .into(),
    }
}

/// Statistical latency anomaly detection with per-pair attribution.
///
/// Method (the one the paper's forensic case study describes): establish a
/// quantitative baseline over the early window, flag the first sustained
/// shift exceeding `max(3σ, 5 ms)`, and assess significance as a z-score.
/// Each probe/destination pair is then classified by its before/after
/// means, and its pre-onset link set is recorded for cross-layer joins.
pub fn detect_anomaly(campaign: &CampaignData) -> AnomalyData {
    let bucket_s = 6 * 3600;
    let series = rtt_series(campaign, bucket_s);
    if series.points.len() < 4 {
        return AnomalyData {
            detected: false,
            onset: None,
            baseline_ms: 0.0,
            anomalous_ms: 0.0,
            z_score: 0.0,
            affected_pairs: vec![],
            pre_observed_links: vec![],
            post_observed_links: vec![],
        };
    }

    // Baseline over the first 40% of buckets (at least two).
    let n_base = (series.points.len() * 2 / 5).max(2);
    let base: Vec<f64> = series.points.iter().take(n_base).map(|p| p.1).collect();
    let mean = base.iter().sum::<f64>() / base.len() as f64;
    let var = base.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / base.len() as f64;
    let sd = var.sqrt().max(0.5); // floor avoids zero-variance explosions

    let threshold = mean + (3.0 * sd).max(5.0);

    // First sustained excursion: two consecutive buckets above threshold.
    let mut onset: Option<i64> = None;
    for w in series.points.windows(2) {
        if w[0].1 > threshold && w[1].1 > threshold {
            onset = Some(w[0].0);
            break;
        }
    }

    let (detected, onset_t) = match onset {
        Some(t) => (true, t),
        None => {
            return AnomalyData {
                detected: false,
                onset: None,
                baseline_ms: mean,
                anomalous_ms: mean,
                z_score: 0.0,
                affected_pairs: vec![],
                pre_observed_links: vec![],
                post_observed_links: vec![],
            }
        }
    };

    let after: Vec<f64> =
        series.points.iter().filter(|p| p.0 >= onset_t).map(|p| p.1).collect();
    let anomalous = after.iter().sum::<f64>() / after.len().max(1) as f64;
    let z = (anomalous - mean) / sd;

    // Per-pair attribution.
    #[derive(Default)]
    struct PairAcc<'a> {
        before: Vec<f64>,
        after: Vec<f64>,
        pre_links: Vec<&'a Vec<u32>>,
        post_links: Vec<&'a Vec<u32>>,
    }
    let mut per_pair: BTreeMap<(u32, &str), PairAcc<'_>> = BTreeMap::new();
    for m in &campaign.measurements {
        let entry = per_pair.entry((m.probe, m.dst.as_str())).or_default();
        if let Some(rtt) = m.rtt_ms {
            if m.time < onset_t {
                entry.before.push(rtt);
                entry.pre_links.push(&m.links);
            } else {
                entry.after.push(rtt);
                entry.post_links.push(&m.links);
            }
        }
    }
    let union = |sets: &[&Vec<u32>]| -> Vec<u32> {
        let mut out: Vec<u32> = sets.iter().flat_map(|l| l.iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    let mut affected = Vec::new();
    let mut pre_observed: std::collections::BTreeSet<u32> = Default::default();
    let mut post_observed: std::collections::BTreeSet<u32> = Default::default();
    for ((probe, dst), acc) in per_pair {
        pre_observed.extend(acc.pre_links.iter().flat_map(|l| l.iter().copied()));
        post_observed.extend(acc.post_links.iter().flat_map(|l| l.iter().copied()));
        if acc.before.is_empty() || acc.after.is_empty() {
            continue;
        }
        let b = acc.before.iter().sum::<f64>() / acc.before.len() as f64;
        let a = acc.after.iter().sum::<f64>() / acc.after.len() as f64;
        let delta = a - b;
        // A pair counts as affected on a shift of 5 ms or 5% of its own
        // baseline, whichever is larger (long-haul baselines are noisy in
        // absolute terms but stable in relative ones).
        if delta > (0.05 * b).max(5.0) {
            affected.push(AffectedPair {
                probe,
                dst: dst.to_string(),
                before_ms: b,
                after_ms: a,
                delta_ms: delta,
                pre_links: union(&acc.pre_links),
                post_links: union(&acc.post_links),
            });
        }
    }

    AnomalyData {
        detected,
        onset: Some(onset_t),
        baseline_ms: mean,
        anomalous_ms: anomalous,
        z_score: z,
        affected_pairs: affected,
        pre_observed_links: pre_observed.into_iter().collect(),
        post_observed_links: post_observed.into_iter().collect(),
    }
}

/// Scores candidate cables by their presence in affected pairs' *vanished*
/// links — pre-onset links that disappeared from post-onset paths —
/// weighted by each pair's latency delta. Corridor-wide congestion slows
/// every pair equally but vanishes no links, so only genuine
/// infrastructure loss accumulates score.
///
/// Parallel systems sharing the vanished segments are then *exonerated by
/// survivors*: each candidate's score is scaled by the fraction of its
/// *observed* links that died. A cable whose attributed links mostly still
/// appear in post-onset paths is demonstrably carrying traffic and cannot
/// be the failed system; the cut cable's attributed links are mostly gone.
pub fn score_suspects(
    anomaly: &AnomalyData,
    cable_links: &BTreeMap<u32, Vec<u32>>,
    cable_names: &BTreeMap<u32, String>,
) -> SuspectData {
    let mut scores: BTreeMap<u32, (f64, std::collections::BTreeSet<u32>)> = BTreeMap::new();
    for pair in &anomaly.affected_pairs {
        let vanished = pair.vanished_links();
        for (cable, links) in cable_links {
            let hits: Vec<u32> =
                vanished.iter().copied().filter(|l| links.contains(l)).collect();
            if !hits.is_empty() {
                let e = scores.entry(*cable).or_default();
                e.0 += pair.delta_ms * hits.len() as f64;
                e.1.extend(hits);
            }
        }
    }

    // Survivor exoneration: scale by the fraction of each cable's observed
    // links that died.
    let pre: std::collections::BTreeSet<u32> =
        anomaly.pre_observed_links.iter().copied().collect();
    let post: std::collections::BTreeSet<u32> =
        anomaly.post_observed_links.iter().copied().collect();
    for (cable, entry) in scores.iter_mut() {
        let links = match cable_links.get(cable) {
            Some(l) => l,
            None => continue,
        };
        let observed =
            links.iter().filter(|l| pre.contains(l) || post.contains(l)).count();
        if observed == 0 {
            continue;
        }
        let live = links.iter().filter(|l| post.contains(l)).count();
        let dead_fraction = 1.0 - live as f64 / observed as f64;
        entry.0 *= dead_fraction.max(0.02);
    }

    let total: f64 = scores.values().map(|(s, _)| s).sum();
    let mut ranked: Vec<SuspectEntry> = scores
        .into_iter()
        .map(|(cable, (score, links))| SuspectEntry {
            cable,
            name: cable_names.get(&cable).cloned().unwrap_or_else(|| format!("cable-{cable}")),
            score: if total > 0.0 { score / total } else { 0.0 },
            evidence_links: links.len(),
        })
        .collect();
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.cable.cmp(&b.cable)));
    SuspectData { ranked }
}

/// Correlates BGP burst timing with the anomaly onset. `bursts` are burst
/// window start times.
pub fn correlate(bursts: &[i64], burst_count: usize, anomaly: &AnomalyData) -> CorrelationData {
    let onset = anomaly.onset;
    let (aligned, lag) = match (onset, bursts.iter().min_by_key(|b| (**b - onset.unwrap_or(0)).abs())) {
        (Some(o), Some(&closest)) => {
            let lag = closest - o;
            // A routing burst within ±12 h of the latency onset counts as
            // temporally aligned (the onset is bucket-quantized).
            (lag.abs() <= 12 * 3600, Some(lag))
        }
        _ => (false, None),
    };
    let confidence = if aligned {
        0.9
    } else if bursts.is_empty() {
        // No routing churn at all: evidence *against* a cable failure.
        0.1
    } else {
        0.25
    };
    CorrelationData { aligned, lag_seconds: lag, burst_count, onset, confidence }
}

/// Synthesizes the final forensic verdict from the evidence streams.
pub fn synthesize_verdict(
    suspects: &SuspectData,
    correlation: &CorrelationData,
    anomaly: &AnomalyData,
) -> VerdictData {
    if !anomaly.detected {
        return VerdictData {
            cable_caused: false,
            cable: None,
            cable_id: None,
            confidence: 0.9,
            narrative: "no statistically significant latency anomaly was detected; \
                        no cable investigation is warranted"
                .into(),
        };
    }
    let top = suspects.ranked.first();
    let top_score = top.map(|t| t.score).unwrap_or(0.0);
    // Causation requires both evidence streams: a dominant suspect and
    // aligned routing churn.
    let cable_caused = top_score >= 0.35 && correlation.aligned;
    let confidence = (0.5 * top_score + 0.5 * correlation.confidence).clamp(0.0, 1.0);
    let narrative = match (cable_caused, top) {
        (true, Some(t)) => format!(
            "latency rose {:.1} ms (z={:.1}) at t={}; {} of the affected paths' pre-onset \
             links map to {}; BGP churn {} the onset (lag {} s). Verdict: {} failure caused \
             the anomaly.",
            anomaly.anomalous_ms - anomaly.baseline_ms,
            anomaly.z_score,
            anomaly.onset.unwrap_or(0),
            t.evidence_links,
            t.name,
            if correlation.aligned { "aligns with" } else { "does not align with" },
            correlation.lag_seconds.unwrap_or(0),
            t.name,
        ),
        _ => format!(
            "a latency anomaly was detected (z={:.1}) but the evidence does not support a \
             cable failure: top suspect score {:.2}, routing churn aligned: {}. Likely \
             congestion or a non-infrastructure cause.",
            anomaly.z_score, top_score, correlation.aligned,
        ),
    };
    VerdictData {
        cable_caused,
        cable: cable_caused.then(|| top.map(|t| t.name.clone()).unwrap_or_default()),
        cable_id: if cable_caused { top.map(|t| t.cable) } else { None },
        confidence,
        narrative,
    }
}

/// Builds the unified multi-layer timeline from cascade rounds, BGP bursts
/// and the latency anomaly.
pub fn build_timeline(
    cascade_events: &[(i64, String, String)], // (t, layer, description)
    burst_times: &[i64],
    anomaly: &AnomalyData,
) -> TimelineData {
    let mut events: Vec<TimelineEvent> = cascade_events
        .iter()
        .map(|(t, layer, d)| TimelineEvent { t: *t, layer: layer.clone(), description: d.clone() })
        .collect();
    for &b in burst_times {
        events.push(TimelineEvent {
            t: b,
            layer: "routing".into(),
            description: "BGP update burst".into(),
        });
    }
    if let Some(onset) = anomaly.onset {
        events.push(TimelineEvent {
            t: onset,
            layer: "latency".into(),
            description: format!(
                "mean RTT shifted {:.1} ms above baseline",
                anomaly.anomalous_ms - anomaly.baseline_ms
            ),
        });
    }
    events.sort_by(|a, b| a.t.cmp(&b.t).then(a.layer.cmp(&b.layer)));
    let mut layers: Vec<String> = events.iter().map(|e| e.layer.clone()).collect();
    layers.sort();
    layers.dedup();
    TimelineData { events, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a campaign with a latency step at `onset` for half the pairs.
    fn synthetic_campaign(onset: i64) -> CampaignData {
        let mut measurements = Vec::new();
        for probe in 0..4u32 {
            for (di, dst) in ["10.0.0.1", "10.0.16.1"].iter().enumerate() {
                for k in 0..40 {
                    let t = k * 6 * 3600;
                    let shifted = probe % 2 == 0 && t >= onset;
                    let base = 120.0 + probe as f64 + di as f64 * 3.0;
                    let rtt = if shifted { base + 45.0 } else { base };
                    let links = if shifted { vec![9, 10] } else { vec![1, 2] };
                    measurements.push(MeasurementData {
                        probe,
                        dst: dst.to_string(),
                        time: t,
                        rtt_ms: Some(rtt),
                        links,
                    });
                }
            }
        }
        CampaignData {
            src_region: "Europe".into(),
            dst_region: "Asia".into(),
            window_start: 0,
            window_end: 40 * 6 * 3600,
            interval_s: 6 * 3600,
            measurements,
        }
    }

    #[test]
    fn series_buckets_and_averages() {
        let c = synthetic_campaign(i64::MAX);
        let s = rtt_series(&c, 6 * 3600);
        assert_eq!(s.points.len(), 40);
        for (_, mean, n) in &s.points {
            assert_eq!(*n, 8);
            assert!((119.0..130.0).contains(mean));
        }
    }

    #[test]
    fn anomaly_detected_at_step() {
        let onset = 24 * 6 * 3600; // bucket 24 of 40
        let a = detect_anomaly(&synthetic_campaign(onset));
        assert!(a.detected);
        assert_eq!(a.onset, Some(onset));
        assert!(a.z_score > 3.0);
        // Only the even probes shifted: 2 probes × 2 dsts = 4 pairs.
        assert_eq!(a.affected_pairs.len(), 4);
        for p in &a.affected_pairs {
            assert_eq!(p.pre_links, vec![1, 2]);
            assert!(p.delta_ms > 20.0);
        }
    }

    #[test]
    fn quiet_campaign_has_no_anomaly() {
        let a = detect_anomaly(&synthetic_campaign(i64::MAX));
        assert!(!a.detected);
        assert!(a.affected_pairs.is_empty());
    }

    #[test]
    fn suspect_scoring_prefers_the_guilty_cable() {
        let onset = 24 * 6 * 3600;
        let a = detect_anomaly(&synthetic_campaign(onset));
        let cable_links = BTreeMap::from([
            (100u32, vec![1u32, 2]), // guilty: carries the pre-onset links
            (200u32, vec![50, 51]),  // innocent
        ]);
        let names = BTreeMap::from([
            (100u32, "GuiltyCable".to_string()),
            (200u32, "InnocentCable".to_string()),
        ]);
        let s = score_suspects(&a, &cable_links, &names);
        assert_eq!(s.ranked[0].name, "GuiltyCable");
        assert!(s.ranked[0].score > 0.99, "{:?}", s.ranked);
    }

    #[test]
    fn correlation_alignment_window() {
        let a = AnomalyData {
            detected: true,
            onset: Some(100_000),
            baseline_ms: 100.0,
            anomalous_ms: 150.0,
            z_score: 8.0,
            affected_pairs: vec![],
            pre_observed_links: vec![],
            post_observed_links: vec![],
        };
        let aligned = correlate(&[100_000 + 3_600], 40, &a);
        assert!(aligned.aligned);
        assert!(aligned.confidence > 0.8);
        let misaligned = correlate(&[100_000 + 100 * 3_600], 40, &a);
        assert!(!misaligned.aligned);
        let silent = correlate(&[], 0, &a);
        assert!(!silent.aligned);
        assert!(silent.confidence < 0.2);
    }

    #[test]
    fn verdict_requires_both_evidence_streams() {
        let onset = 24 * 6 * 3600;
        let a = detect_anomaly(&synthetic_campaign(onset));
        let suspects = SuspectData {
            ranked: vec![SuspectEntry {
                cable: 1,
                name: "SeaMeWe-5".into(),
                score: 0.9,
                evidence_links: 2,
            }],
        };
        let good_corr = correlate(&[onset + 1800], 30, &a);
        let v = synthesize_verdict(&suspects, &good_corr, &a);
        assert!(v.cable_caused);
        assert_eq!(v.cable.as_deref(), Some("SeaMeWe-5"));
        assert!(v.confidence > 0.7);

        let bad_corr = correlate(&[], 0, &a);
        let v2 = synthesize_verdict(&suspects, &bad_corr, &a);
        assert!(!v2.cable_caused, "without routing corroboration, no causation");
    }

    #[test]
    fn verdict_on_quiet_data_declines_to_blame() {
        let a = detect_anomaly(&synthetic_campaign(i64::MAX));
        let v = synthesize_verdict(&SuspectData::default(), &correlate(&[], 0, &a), &a);
        assert!(!v.cable_caused);
        assert!(v.narrative.contains("no statistically significant"));
    }

    #[test]
    fn timeline_merges_and_sorts_layers() {
        let a = AnomalyData {
            detected: true,
            onset: Some(500),
            baseline_ms: 100.0,
            anomalous_ms: 130.0,
            z_score: 5.0,
            affected_pairs: vec![],
            pre_observed_links: vec![],
            post_observed_links: vec![],
        };
        let t = build_timeline(
            &[(100, "cable".into(), "cut".into()), (300, "ip".into(), "links down".into())],
            &[450],
            &a,
        );
        assert_eq!(t.events.len(), 4);
        assert!(t.events.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(t.layers, vec!["cable", "ip", "latency", "routing"]);
    }
}
