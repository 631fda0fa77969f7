//! Cross-layer impact metrics: aggregating a concrete failure into
//! normalized per-country and per-AS assessments — Xaminer's embedding
//! metrics (IPs, links, ASes, AS-links per country).

use std::collections::BTreeMap;

use net_model::{Asn, Country};
use serde::{Deserialize, Serialize};
use world::World;

use crate::event::FailureImpact;

/// Impact on one country.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryImpact {
    pub country: Country,
    /// Interface addresses (IPs) on failed links with an endpoint here.
    pub ips_affected: usize,
    /// Failed links with an endpoint here.
    pub links_affected: usize,
    /// Country-registered ASes among the affected set.
    pub ases_affected: usize,
    /// Failed *inter-AS* links (AS-links) with an endpoint here.
    pub as_links_affected: usize,
    /// Fraction of the country's links that failed, `[0, 1]`.
    pub link_fraction: f64,
    /// Composite normalized score, `[0, 1]` — mean of the normalized
    /// per-dimension fractions.
    pub impact_score: f64,
}

/// Impact on one AS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsImpact {
    pub asn: Asn,
    pub links_affected: usize,
    /// Fraction of the AS's links that failed.
    pub link_fraction: f64,
}

/// The aggregated report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ImpactReport {
    /// Per-country impacts, sorted by descending impact score then country.
    pub per_country: Vec<CountryImpact>,
    /// Per-AS impacts, sorted by descending link fraction then ASN.
    pub per_as: Vec<AsImpact>,
    /// Total failed links.
    pub total_links: usize,
    /// Total affected countries.
    pub total_countries: usize,
}

impl ImpactReport {
    /// The `n` most-impacted countries.
    pub fn top_countries(&self, n: usize) -> Vec<Country> {
        self.per_country.iter().take(n).map(|c| c.country).collect()
    }
}

/// Aggregates a failure into the report.
pub fn aggregate(world: &World, failure: &FailureImpact) -> ImpactReport {
    // Denominators: per-country and per-AS link totals.
    let mut country_totals: BTreeMap<Country, usize> = BTreeMap::new();
    let mut as_totals: BTreeMap<Asn, usize> = BTreeMap::new();
    for link in &world.links {
        *country_totals.entry(world.city(link.a.city).country).or_default() += 1;
        if link.a.city != link.b.city || link.a.asn != link.b.asn {
            *country_totals.entry(world.city(link.b.city).country).or_default() += 1;
        }
        *as_totals.entry(link.a.asn).or_default() += 1;
        if link.b.asn != link.a.asn {
            *as_totals.entry(link.b.asn).or_default() += 1;
        }
    }

    #[derive(Default)]
    struct Acc {
        ips: usize,
        links: usize,
        as_links: usize,
    }
    let mut per_country: BTreeMap<Country, Acc> = BTreeMap::new();
    let mut per_as: BTreeMap<Asn, usize> = BTreeMap::new();

    for &lid in &failure.failed_links {
        let link = world.link(lid);
        let ca = world.city(link.a.city).country;
        let cb = world.city(link.b.city).country;
        let inter_as = link.a.asn != link.b.asn;

        let a = per_country.entry(ca).or_default();
        a.ips += 1;
        a.links += 1;
        if inter_as {
            a.as_links += 1;
        }
        if cb != ca {
            let b = per_country.entry(cb).or_default();
            b.ips += 1;
            b.links += 1;
            if inter_as {
                b.as_links += 1;
            }
        } else {
            // Same-country link: second endpoint IP still counts.
            per_country.get_mut(&ca).expect("just inserted").ips += 1;
        }

        *per_as.entry(link.a.asn).or_default() += 1;
        if inter_as {
            *per_as.entry(link.b.asn).or_default() += 1;
        }
    }

    // Affected AS count per country (registered there).
    let mut ases_by_country: BTreeMap<Country, usize> = BTreeMap::new();
    for asn in &failure.affected_ases {
        if let Some(info) = world.as_info(*asn) {
            *ases_by_country.entry(info.country).or_default() += 1;
        }
    }

    let mut country_rows: Vec<CountryImpact> = per_country
        .into_iter()
        .map(|(country, acc)| {
            let total = country_totals.get(&country).copied().unwrap_or(0).max(1);
            let total_ases = world.as_count_in_country(country).max(1);
            let ases_affected = ases_by_country.get(&country).copied().unwrap_or(0);
            let link_fraction = acc.links as f64 / total as f64;
            let as_fraction = ases_affected as f64 / total_ases as f64;
            let as_link_fraction = acc.as_links as f64 / total as f64;
            let impact_score =
                ((link_fraction + as_fraction + as_link_fraction) / 3.0).min(1.0);
            CountryImpact {
                country,
                ips_affected: acc.ips,
                links_affected: acc.links,
                ases_affected,
                as_links_affected: acc.as_links,
                link_fraction,
                impact_score,
            }
        })
        .collect();
    country_rows.sort_by(|a, b| {
        b.impact_score
            .total_cmp(&a.impact_score)
            .then(a.country.cmp(&b.country))
    });

    let mut as_rows: Vec<AsImpact> = per_as
        .into_iter()
        .map(|(asn, links)| {
            let total = as_totals.get(&asn).copied().unwrap_or(0).max(1);
            AsImpact { asn, links_affected: links, link_fraction: links as f64 / total as f64 }
        })
        .collect();
    as_rows.sort_by(|a, b| {
        b.link_fraction.total_cmp(&a.link_fraction).then(a.asn.cmp(&b.asn))
    });

    ImpactReport {
        total_links: failure.failed_links.len(),
        total_countries: country_rows.len(),
        per_country: country_rows,
        per_as: as_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{process_event, FailureEvent};
    use nautilus_sim::DependencyTable;
    use world::{generate, WorldConfig};

    fn report_for(name: &str) -> (World, ImpactReport) {
        let world = generate(&WorldConfig::default());
        let deps = DependencyTable::from_ground_truth(&world);
        let cable = world.cable_by_name(name).unwrap().id;
        let failure = process_event(&world, &deps, &FailureEvent::CableFailure { cable });
        let report = aggregate(&world, &failure);
        (world, report)
    }

    #[test]
    fn report_is_sorted_by_score() {
        let (_, report) = report_for("SeaMeWe-5");
        for w in report.per_country.windows(2) {
            assert!(w[0].impact_score >= w[1].impact_score);
        }
        for w in report.per_as.windows(2) {
            assert!(w[0].link_fraction >= w[1].link_fraction);
        }
    }

    #[test]
    fn scores_are_normalized() {
        let (_, report) = report_for("SeaMeWe-5");
        for c in &report.per_country {
            assert!((0.0..=1.0).contains(&c.impact_score), "{c:?}");
            assert!((0.0..=1.0).contains(&c.link_fraction), "{c:?}");
        }
    }

    #[test]
    fn landing_countries_are_among_the_affected() {
        let (world, report) = report_for("SeaMeWe-5");
        let cable = world.cable_by_name("SeaMeWe-5").unwrap();
        let landing_countries: Vec<Country> = cable
            .landings
            .iter()
            .map(|&l| world.city(l).country)
            .collect();
        let affected: Vec<Country> = report.per_country.iter().map(|c| c.country).collect();
        let overlap = landing_countries.iter().filter(|c| affected.contains(c)).count();
        assert!(
            overlap * 2 >= landing_countries.len(),
            "at least half the landing countries should be affected (got {overlap}/{})",
            landing_countries.len()
        );
    }

    #[test]
    fn empty_failure_empty_report() {
        let world = generate(&WorldConfig::default());
        let report = aggregate(&world, &FailureImpact::default());
        assert_eq!(report.total_links, 0);
        assert!(report.per_country.is_empty());
    }

    #[test]
    fn top_countries_truncates() {
        let (_, report) = report_for("SeaMeWe-5");
        let top3 = report.top_countries(3);
        assert!(top3.len() <= 3);
        assert_eq!(top3.first(), report.per_country.first().map(|c| &c.country).copied().as_ref());
    }
}
