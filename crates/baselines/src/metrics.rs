//! Similarity metrics for expert-vs-generated comparison.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use toolkit::data::{CountryTableData, TimelineData};
use workflow::Workflow;

/// Similarity between two country impact tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountrySimilarity {
    /// Jaccard overlap of affected-country sets.
    pub jaccard: f64,
    /// Spearman rank correlation of impact scores over common countries
    /// (`None` with fewer than 3 common countries).
    pub spearman: Option<f64>,
    /// Overlap of the top-5 most impacted countries.
    pub top5_overlap: f64,
    pub common_countries: usize,
}

/// Compares two country tables.
pub fn country_table_similarity(a: &CountryTableData, b: &CountryTableData) -> CountrySimilarity {
    let set_a: Vec<&str> = a.rows.iter().map(|r| r.country.as_str()).collect();
    let set_b: Vec<&str> = b.rows.iter().map(|r| r.country.as_str()).collect();

    let inter: Vec<&&str> = set_a.iter().filter(|c| set_b.contains(*c)).collect();
    let union = set_a.len() + set_b.len() - inter.len();
    let jaccard = if union == 0 { 1.0 } else { inter.len() as f64 / union as f64 };

    // Spearman over common countries.
    let scores_a: BTreeMap<&str, f64> =
        a.rows.iter().map(|r| (r.country.as_str(), r.impact_score)).collect();
    let scores_b: BTreeMap<&str, f64> =
        b.rows.iter().map(|r| (r.country.as_str(), r.impact_score)).collect();
    let common: Vec<&str> = scores_a.keys().filter(|c| scores_b.contains_key(*c)).copied().collect();
    let spearman_v = if common.len() >= 3 {
        let xs: Vec<f64> = common.iter().map(|c| scores_a[c]).collect();
        let ys: Vec<f64> = common.iter().map(|c| scores_b[c]).collect();
        Some(spearman(&xs, &ys))
    } else {
        None
    };

    let top_a = a.top_countries(5);
    let top_b = b.top_countries(5);
    let top_hits = top_a.iter().filter(|c| top_b.contains(c)).count();
    let top5_overlap = if top_a.is_empty() && top_b.is_empty() {
        1.0
    } else {
        top_hits as f64 / top_a.len().max(top_b.len()).max(1) as f64
    };

    CountrySimilarity {
        jaccard,
        spearman: spearman_v,
        top5_overlap,
        common_countries: common.len(),
    }
}

/// Spearman rank correlation of two equal-length samples.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

/// Average ranks (ties share the mean rank). The sort is total, so a NaN
/// takes a rank of its own instead of panicking; `-0.0` and `0.0` still
/// tie, because the grouping below compares with `==`.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = mean_rank;
        }
        i = j + 1;
    }
    out
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        return if vx == vy { 1.0 } else { 0.0 };
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Jaccard overlap of the function sets of two workflows — the
/// "functional overlap" comparison of the case studies.
pub fn function_overlap(a: &Workflow, b: &Workflow) -> f64 {
    let fa: Vec<String> = a.functions_used().into_iter().map(|f| f.0).collect();
    let fb: Vec<String> = b.functions_used().into_iter().map(|f| f.0).collect();
    let inter = fa.iter().filter(|f| fb.contains(f)).count();
    let union = fa.len() + fb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Timeline alignment: fraction of events in `a` with a counterpart in `b`
/// on the same layer within `tolerance_s`, and vice versa (F1-style).
pub fn timeline_alignment(a: &TimelineData, b: &TimelineData, tolerance_s: i64) -> f64 {
    if a.events.is_empty() && b.events.is_empty() {
        return 1.0;
    }
    let matched = |from: &TimelineData, to: &TimelineData| -> usize {
        from.events
            .iter()
            .filter(|e| {
                to.events
                    .iter()
                    .any(|f| f.layer == e.layer && (f.t - e.t).abs() <= tolerance_s)
            })
            .count()
    };
    let p = matched(a, b) as f64 / a.events.len().max(1) as f64;
    let r = matched(b, a) as f64 / b.events.len().max(1) as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toolkit::data::{CountryRow, TimelineEvent};

    fn row(c: &str, score: f64) -> CountryRow {
        CountryRow {
            country: c.into(),
            ips_affected: 1,
            links_affected: 1,
            ases_affected: 1,
            as_links_affected: 1,
            impact_score: score,
        }
    }

    #[test]
    fn identical_tables_are_perfectly_similar() {
        let t = CountryTableData {
            rows: vec![row("EG", 0.9), row("IN", 0.7), row("SG", 0.5), row("FR", 0.2)],
        };
        let s = country_table_similarity(&t, &t);
        assert_eq!(s.jaccard, 1.0);
        assert!((s.spearman.unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(s.top5_overlap, 1.0);
    }

    #[test]
    fn disjoint_tables_score_zero() {
        let a = CountryTableData { rows: vec![row("EG", 0.9)] };
        let b = CountryTableData { rows: vec![row("BR", 0.9)] };
        let s = country_table_similarity(&a, &b);
        assert_eq!(s.jaccard, 0.0);
        assert_eq!(s.spearman, None);
        assert_eq!(s.top5_overlap, 0.0);
    }

    #[test]
    fn spearman_detects_reversed_ranking() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &xs.clone()) - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = vec![1.0, 1.0, 2.0];
        let ys = vec![1.0, 1.0, 2.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_over_a_nan_sample_returns_a_value() {
        // A NaN takes the top rank of its own; it used to panic the sort.
        let xs = vec![1.0, f64::NAN, 3.0, 2.0];
        let ys = vec![1.0, 4.0, 3.0, 2.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        // Signed zeros still tie.
        assert_eq!(ranks(&[0.0, -0.0, 1.0]), vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn function_overlap_counts_shared_functions() {
        use workflow::Step;
        let a = Workflow::new("a", "q")
            .with_step(Step::new("1", "f.x"))
            .with_step(Step::new("2", "f.y"));
        let b = Workflow::new("b", "q")
            .with_step(Step::new("1", "f.y"))
            .with_step(Step::new("2", "f.z"));
        assert!((function_overlap(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(function_overlap(&a, &a), 1.0);
    }

    #[test]
    fn timeline_alignment_respects_tolerance_and_layer() {
        let a = TimelineData {
            events: vec![
                TimelineEvent { t: 100, layer: "cable".into(), description: "x".into() },
                TimelineEvent { t: 200, layer: "routing".into(), description: "y".into() },
            ],
            layers: vec![],
        };
        let b = TimelineData {
            events: vec![
                TimelineEvent { t: 110, layer: "cable".into(), description: "x'".into() },
                TimelineEvent { t: 900, layer: "routing".into(), description: "y'".into() },
            ],
            layers: vec![],
        };
        let f1 = timeline_alignment(&a, &b, 50);
        assert!(f1 > 0.4 && f1 < 1.0, "partial match expected, got {f1}");
        assert_eq!(timeline_alignment(&a, &a, 0), 1.0);
        // Same time, different layer: no match.
        let c = TimelineData {
            events: vec![TimelineEvent { t: 100, layer: "latency".into(), description: "z".into() }],
            layers: vec![],
        };
        let lonely = TimelineData {
            events: vec![TimelineEvent { t: 100, layer: "cable".into(), description: "x".into() }],
            layers: vec![],
        };
        assert_eq!(timeline_alignment(&lonely, &c, 1000), 0.0);
    }
}
