//! The scenario family library.
//!
//! A [`Family`] is a deterministic generator: [`Family::expand`] maps a
//! [`FamilyParams`] to a fleet of [`ScenarioBlueprint`]s with no hidden
//! state — every choice (which region, which corridor, which country)
//! is a pure function of the params via [`net_model::hash::stable_hash`].
//! Equal params produce byte-identical fleets on every run and
//! platform; different seeds rotate every selection.
//!
//! Families deliberately span both scenario dimensions:
//!
//! * **event-script families** perturb the *timeline* of a shared world
//!   (blackouts, cascades, censorship, outages, repair windows,
//!   congestion storms) — their blueprints all name the same
//!   [`WorldConfig`], so a whole fleet pays for one world generation;
//! * **world-structure families** perturb the *world itself*
//!   (de-peering, eyeball growth, festoon buildout) — their blueprints
//!   name distinct configs, which is exactly what the content-addressed
//!   cache is for.

use net_model::Region;
use net_model::hash::stable_hash;
use world::{AsTier, WorldConfig};

use crate::blueprint::ScenarioBlueprint;
use crate::script::{AsTarget, CableTarget, DisasterSite, ScriptStep};

/// The knobs every family expansion is a pure function of.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyParams {
    /// Master seed: drives the world seed and every family-level
    /// selection (regions, corridors, countries, cables).
    pub seed: u64,
    /// Severity in `[0, 1]` (clamped): footprint radii, failure
    /// probabilities, cut counts, congestion magnitudes scale with it.
    pub intensity: f64,
    /// How many scenarios the family expands into (at least 1).
    pub variants: usize,
    /// Scenario horizon length in days.
    pub horizon_days: i64,
}

impl Default for FamilyParams {
    fn default() -> Self {
        FamilyParams { seed: 42, intensity: 0.5, variants: 3, horizon_days: 10 }
    }
}

impl FamilyParams {
    /// The `draw`-th member of a Monte Carlo sweep rooted at these
    /// params: the seed is re-derived through [`stable_hash`] (so
    /// consecutive draws decorrelate fully) while every other knob is
    /// kept. `reseed(0) == self` — draw zero is the root itself, which
    /// keeps single-member ensembles byte-compatible with direct
    /// expansion.
    pub fn reseed(&self, draw: u64) -> FamilyParams {
        if draw == 0 {
            return self.clone();
        }
        FamilyParams {
            seed: stable_hash(&[0x0053_5745_4550_u64, self.seed, draw]), // "SWEEP"
            ..self.clone()
        }
    }

    /// Content identity of the params (floats by bit pattern) — the
    /// `params_hash` a campaign provenance record carries.
    pub fn content_hash(&self) -> u64 {
        stable_hash(&[
            self.seed,
            self.intensity.to_bits(),
            self.variants as u64,
            self.horizon_days as u64,
        ])
    }

    fn intensity(&self) -> f64 {
        self.intensity.clamp(0.0, 1.0)
    }

    fn variants(&self) -> usize {
        self.variants.max(1)
    }

    /// The base world config every event-script family shares.
    fn base_config(&self) -> WorldConfig {
        WorldConfig { seed: self.seed, ..WorldConfig::default() }
    }

    /// Deterministic selector: a pure function of the params' seed, the
    /// family tag and a salt.
    fn pick(&self, tag: u64, salt: u64) -> u64 {
        stable_hash(&[0x0046_4F52_4745_u64, self.seed, tag, salt]) // "FORGE"
    }
}

/// Curated cable systems every world contains (the repair-window family
/// rotates through them).
const REPAIRABLE_CABLES: [&str; 6] =
    ["SeaMeWe-5", "AAE-1", "SeaMeWe-4", "FALCON", "2Africa", "MAREA"];

/// Inter-region corridors with enough parallel systems to cascade over.
const CORRIDORS: [(Region, Region); 6] = [
    (Region::Europe, Region::Asia),
    (Region::Europe, Region::NorthAmerica),
    (Region::Asia, Region::NorthAmerica),
    (Region::Europe, Region::Africa),
    (Region::Asia, Region::Oceania),
    (Region::NorthAmerica, Region::SouthAmerica),
];

fn region_slug(r: Region) -> String {
    r.name().to_ascii_lowercase().replace(' ', "-")
}

/// A parameterized scenario family. `expand` is deterministic in
/// [`FamilyParams`]; see the module docs for the family taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// A disaster footprint over a region's hub takes out its landings.
    RegionalBlackout,
    /// Staggered cuts down a corridor's parallel systems (the 2022
    /// AAE-1/SeaMeWe-5 pattern, generalized).
    CableCutCascade,
    /// A country severs its own submarine connectivity; cross-region
    /// latency degrades as traffic detours.
    NationalCensorship,
    /// A structurally de-peered world: same geography, thinner
    /// transit-to-transit peering mesh.
    TransitDePeering,
    /// A short, total outage at a region's interconnection hub.
    IxpOutage,
    /// An eyeball-growth world (denser probes and access networks) with
    /// recurring peak-hour congestion surges.
    SeasonalEyeballGrowth,
    /// A cable fails and is repaired inside the horizon — the timeline
    /// contains both the failure and the recovery.
    CableRepairWindow,
    /// Rolling congestion surges across several corridors at once.
    CorridorCongestionStorm,
    /// An infrastructure-buildout world: extra regional festoon systems
    /// on the same curated backbone.
    FestoonBuildout,
    /// A transit AS in one region originates an access network's
    /// prefixes in another — the classic (partial) prefix hijack, live
    /// at `now` so forensic queries can observe the MOAS split.
    TargetedPrefixHijack,
    /// A mid-tier transit AS accidentally re-exports its full table to
    /// peers and providers for a bounded window (leaks get noticed and
    /// fixed), so the stream shows both the leak and the recovery churn.
    AccidentalTransitLeak,
}

impl Family {
    /// Every family, in canonical order.
    pub const ALL: [Family; 11] = [
        Family::RegionalBlackout,
        Family::CableCutCascade,
        Family::NationalCensorship,
        Family::TransitDePeering,
        Family::IxpOutage,
        Family::SeasonalEyeballGrowth,
        Family::CableRepairWindow,
        Family::CorridorCongestionStorm,
        Family::FestoonBuildout,
        Family::TargetedPrefixHijack,
        Family::AccidentalTransitLeak,
    ];

    /// Stable kebab-case identifier (the engine's key prefix).
    pub fn id(&self) -> &'static str {
        match self {
            Family::RegionalBlackout => "regional-blackout",
            Family::CableCutCascade => "cable-cut-cascade",
            Family::NationalCensorship => "national-censorship",
            Family::TransitDePeering => "transit-depeering",
            Family::IxpOutage => "ixp-outage",
            Family::SeasonalEyeballGrowth => "seasonal-eyeball-growth",
            Family::CableRepairWindow => "cable-repair-window",
            Family::CorridorCongestionStorm => "corridor-congestion-storm",
            Family::FestoonBuildout => "festoon-buildout",
            Family::TargetedPrefixHijack => "targeted-prefix-hijack",
            Family::AccidentalTransitLeak => "accidental-transit-leak",
        }
    }

    /// One-line description for catalogs and reports.
    pub fn description(&self) -> &'static str {
        match self {
            Family::RegionalBlackout => {
                "disaster footprint over a region hub fails its cable landings"
            }
            Family::CableCutCascade => "staggered multi-cable cuts down one corridor",
            Family::NationalCensorship => {
                "a country cuts its submarine landings; detour congestion follows"
            }
            Family::TransitDePeering => "a world with a thinner transit peering mesh",
            Family::IxpOutage => "a short total outage at a region's interconnection hub",
            Family::SeasonalEyeballGrowth => {
                "denser eyeballs and probes with recurring peak-hour congestion"
            }
            Family::CableRepairWindow => "a cable fails and is repaired inside the horizon",
            Family::CorridorCongestionStorm => "rolling congestion across several corridors",
            Family::FestoonBuildout => "extra regional festoon systems on the same backbone",
            Family::TargetedPrefixHijack => {
                "a transit AS originates an access network's prefixes (MOAS hijack)"
            }
            Family::AccidentalTransitLeak => {
                "a transit AS leaks its full table to peers and providers, then recovers"
            }
        }
    }

    /// Numeric tag mixed into every deterministic selection this family
    /// makes (so two families never make correlated picks).
    #[expect(clippy::expect_used, reason = "Family::ALL lists every family")]
    fn tag(&self) -> u64 {
        Family::ALL.iter().position(|f| f == self).expect("family in ALL") as u64 + 1
    }

    /// Expands the params into this family's scenario fleet.
    pub fn expand(&self, params: &FamilyParams) -> Vec<ScenarioBlueprint> {
        let n = params.variants();
        let intensity = params.intensity();
        let horizon = params.horizon_days.max(2);
        let mid_hour = 24 * horizon / 2;
        let tag = self.tag();
        let offset = params.pick(tag, 0) as usize;

        (0..n)
            .map(|i| {
                let mut config = params.base_config();
                let mut script = Vec::new();
                let name;
                match self {
                    Family::RegionalBlackout => {
                        let region = Region::ALL[(offset + i) % Region::ALL.len()];
                        name = format!("v{i}-{}", region_slug(region));
                        script.push(ScriptStep::Earthquake {
                            site: DisasterSite::RegionHub(region),
                            radius_km: 400.0 + 800.0 * intensity,
                            failure_prob: 0.55 + 0.45 * intensity,
                            at_hour: mid_hour,
                            until_hour: None,
                        });
                    }
                    Family::CableCutCascade => {
                        let (a, b) = CORRIDORS[(offset + i) % CORRIDORS.len()];
                        name = format!("v{i}-{}-{}", region_slug(a), region_slug(b));
                        let cuts = 2 + (intensity * 3.0).trunc() as usize;
                        // Stagger the cuts across the middle third of the
                        // horizon so the whole cascade is live at `now`
                        // even on short horizons.
                        let start = 24 * horizon / 3;
                        let step = (24 * horizon / (3 * cuts as i64)).max(2);
                        for rank in 0..cuts {
                            script.push(ScriptStep::CutCables {
                                target: CableTarget::CorridorRank { a, b, rank },
                                at_hour: start + (rank as i64) * step,
                                until_hour: None,
                            });
                        }
                    }
                    Family::NationalCensorship => {
                        let coastal: Vec<net_model::country::CountryInfo> =
                            net_model::country::all_countries()
                                .into_iter()
                                .filter(|c| c.coastal)
                                .collect();
                        let info = coastal[(offset + i) % coastal.len()];
                        name = format!("v{i}-{}", info.code.code().to_ascii_lowercase());
                        script.push(ScriptStep::CutCables {
                            target: CableTarget::LandingIn(info.code),
                            at_hour: mid_hour,
                            until_hour: None,
                        });
                        let far = if info.region == Region::Europe {
                            Region::Asia
                        } else {
                            Region::Europe
                        };
                        script.push(ScriptStep::Congestion {
                            from: info.region,
                            to: far,
                            extra_ms: 20.0 + 50.0 * intensity,
                            at_hour: mid_hour,
                            until_hour: None,
                        });
                    }
                    Family::TransitDePeering => {
                        let step = intensity * (i + 1) as f64 / n as f64;
                        config.transit_peering_prob = 0.5 * (1.0 - 0.9 * step);
                        name = format!("v{i}-depeering");
                    }
                    Family::IxpOutage => {
                        let region = Region::ALL[(offset + i) % Region::ALL.len()];
                        name = format!("v{i}-{}", region_slug(region));
                        script.push(ScriptStep::Earthquake {
                            site: DisasterSite::RegionHub(region),
                            radius_km: 150.0,
                            failure_prob: 1.0,
                            at_hour: mid_hour,
                            until_hour: Some(mid_hour + 48),
                        });
                    }
                    Family::SeasonalEyeballGrowth => {
                        config.probe_scale = 1.0 + intensity * (i + 1) as f64;
                        config.access_per_country = 2 + (intensity * 2.0).round() as usize;
                        name = format!("v{i}-growth");
                        // One peak-hour surge per evening, capped by the
                        // horizon so every surge falls before `now`.
                        for day in 0..(horizon - 1).min(3) {
                            script.push(ScriptStep::Congestion {
                                from: Region::Europe,
                                to: Region::NorthAmerica,
                                extra_ms: 8.0 + 25.0 * intensity,
                                at_hour: 18 + 24 * day,
                                until_hour: Some(24 + 24 * day),
                            });
                        }
                    }
                    Family::CableRepairWindow => {
                        let cable =
                            REPAIRABLE_CABLES[(offset + i) % REPAIRABLE_CABLES.len()];
                        name = format!(
                            "v{i}-{}",
                            cable.to_ascii_lowercase().replace(' ', "-")
                        );
                        // Fail at one fifth of the horizon and finish the
                        // repair by four fifths, so both the outage and
                        // the recovery are observable before `now`.
                        let cut_at = (24 * horizon / 5).max(12);
                        let latest_end = 24 * horizon * 4 / 5;
                        let repair_hours = (24 * (2 + (6.0 * (1.0 - intensity)).trunc() as i64))
                            .min(latest_end - cut_at)
                            .max(6);
                        script.push(ScriptStep::CutCables {
                            target: CableTarget::Named(cable.to_string()),
                            at_hour: cut_at,
                            until_hour: Some(cut_at + repair_hours),
                        });
                    }
                    Family::CorridorCongestionStorm => {
                        name = format!("v{i}-storm");
                        let surges = 2 + (intensity * 4.0).trunc() as usize;
                        // Roll the surges across the middle half of the
                        // horizon (each lasts up to 8h, clamped to fit).
                        let start = 24 * horizon / 4;
                        let step = (24 * horizon / (2 * surges as i64)).max(2);
                        for j in 0..surges {
                            let (a, b) = CORRIDORS[(offset + i + j) % CORRIDORS.len()];
                            let at_hour = start + (j as i64) * step;
                            script.push(ScriptStep::Congestion {
                                from: a,
                                to: b,
                                extra_ms: 15.0 + 40.0 * intensity,
                                at_hour,
                                until_hour: Some(at_hour + step.min(8)),
                            });
                        }
                    }
                    Family::FestoonBuildout => {
                        config.festoon_cables = 30 + 15 * (i + 1);
                        name = format!("v{i}-buildout");
                    }
                    Family::TargetedPrefixHijack => {
                        // Victim and hijacker rotate through distinct
                        // regions; intensity widens the hijack from one
                        // prefix to the victim's whole announcement set.
                        let vr = Region::ALL[(offset + i) % Region::ALL.len()];
                        // The next region along: always distinct from vr.
                        let hr = Region::ALL[(offset + i + 1) % Region::ALL.len()];
                        name = format!("v{i}-{}-vs-{}", region_slug(hr), region_slug(vr));
                        script.push(ScriptStep::HijackPrefixes {
                            hijacker: AsTarget::TierRank {
                                region: hr,
                                tier: AsTier::Transit,
                                rank: i % 2,
                            },
                            victim: AsTarget::TierRank {
                                region: vr,
                                tier: AsTier::Access,
                                rank: i % 3,
                            },
                            prefixes: 1 + (intensity * 3.0).trunc() as usize,
                            at_hour: mid_hour,
                            until_hour: None,
                        });
                    }
                    Family::AccidentalTransitLeak => {
                        let region = Region::ALL[(offset + i) % Region::ALL.len()];
                        name = format!("v{i}-{}", region_slug(region));
                        // Leaks get noticed: the window closes within a
                        // day, well before `now`, so both the onset and
                        // the withdrawal churn are observable.
                        let duration = 6 + (18.0 * intensity).trunc() as i64;
                        script.push(ScriptStep::LeakRoutes {
                            leaker: AsTarget::TierRank {
                                region,
                                tier: AsTier::Transit,
                                rank: i % 2,
                            },
                            at_hour: mid_hour,
                            until_hour: Some(mid_hour + duration),
                        });
                    }
                }
                ScenarioBlueprint {
                    name,
                    config,
                    horizon_days: horizon,
                    script,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_family_expands_to_the_requested_fleet() {
        let params = FamilyParams::default();
        for family in Family::ALL {
            let fleet = family.expand(&params);
            assert_eq!(fleet.len(), params.variants, "{}", family.id());
            let names: BTreeSet<&str> =
                fleet.iter().map(|b| b.name.as_str()).collect();
            assert_eq!(names.len(), fleet.len(), "{} names unique", family.id());
        }
    }

    #[test]
    fn family_ids_are_unique_and_kebab_case() {
        let ids: BTreeSet<&str> = Family::ALL.iter().map(|f| f.id()).collect();
        assert_eq!(ids.len(), Family::ALL.len());
        for id in ids {
            assert!(id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn event_script_families_share_one_config() {
        let params = FamilyParams::default();
        let shared: BTreeSet<u64> = [
            Family::RegionalBlackout,
            Family::CableCutCascade,
            Family::NationalCensorship,
            Family::IxpOutage,
            Family::CableRepairWindow,
            Family::CorridorCongestionStorm,
            Family::TargetedPrefixHijack,
            Family::AccidentalTransitLeak,
        ]
        .iter()
        .flat_map(|f| f.expand(&params))
        .map(|b| b.world_hash())
        .collect();
        assert_eq!(shared.len(), 1, "one world config across eight families");
    }

    #[test]
    fn control_plane_families_script_the_new_steps() {
        let params = FamilyParams::default();
        for bp in Family::TargetedPrefixHijack.expand(&params) {
            assert_eq!(bp.script.len(), 1, "{}", bp.name);
            assert!(
                matches!(bp.script[0], ScriptStep::HijackPrefixes { until_hour: None, .. }),
                "hijacks persist through the horizon"
            );
        }
        for bp in Family::AccidentalTransitLeak.expand(&params) {
            assert_eq!(bp.script.len(), 1, "{}", bp.name);
            let ScriptStep::LeakRoutes { at_hour, until_hour: Some(until), .. } = bp.script[0]
            else {
                panic!("leaks are bounded");
            };
            assert!(until > at_hour);
            assert!(until <= 24 * params.horizon_days, "recovery inside the horizon");
        }
    }

    #[test]
    fn world_structure_families_vary_the_config() {
        let params = FamilyParams::default();
        for family in
            [Family::TransitDePeering, Family::SeasonalEyeballGrowth, Family::FestoonBuildout]
        {
            let hashes: BTreeSet<u64> =
                family.expand(&params).iter().map(|b| b.world_hash()).collect();
            assert_eq!(hashes.len(), params.variants, "{}", family.id());
        }
    }

    #[test]
    fn expansion_is_deterministic_and_seed_sensitive() {
        let params = FamilyParams::default();
        for family in Family::ALL {
            assert_eq!(family.expand(&params), family.expand(&params));
        }
        let reseeded = FamilyParams { seed: 7, ..FamilyParams::default() };
        let a: Vec<_> = Family::RegionalBlackout.expand(&params);
        let b: Vec<_> = Family::RegionalBlackout.expand(&reseeded);
        assert_ne!(a, b, "seed rotates the selections");
    }

    #[test]
    fn scripted_events_fit_inside_the_horizon() {
        // `now` sits at the end of the horizon, so a step that fires at
        // or after `24 * horizon_days` would be invisible to every
        // query. Check the script hours directly (no world generation
        // needed) across short, minimal and default horizons.
        for horizon_days in [2i64, 3, 10] {
            let params = FamilyParams {
                intensity: 1.0, // widest scripts: most cuts, most surges
                horizon_days,
                ..FamilyParams::default()
            };
            let end_hour = 24 * horizon_days;
            for family in Family::ALL {
                for bp in family.expand(&params) {
                    for step in &bp.script {
                        let (at, until) = match step {
                            ScriptStep::CutCables { at_hour, until_hour, .. }
                            | ScriptStep::Earthquake { at_hour, until_hour, .. }
                            | ScriptStep::Hurricane { at_hour, until_hour, .. }
                            | ScriptStep::Congestion { at_hour, until_hour, .. }
                            | ScriptStep::HijackPrefixes { at_hour, until_hour, .. }
                            | ScriptStep::LeakRoutes { at_hour, until_hour, .. } => {
                                (*at_hour, *until_hour)
                            }
                        };
                        assert!(
                            (0..end_hour).contains(&at),
                            "{}/{}: event at hour {at} outside horizon {horizon_days}d",
                            family.id(),
                            bp.name
                        );
                        if let Some(until) = until {
                            assert!(until > at, "{}/{}: empty window", family.id(), bp.name);
                        }
                    }
                    // The repair family's point is recovery *inside* the
                    // horizon: its bounded windows must close before now.
                    if family == Family::CableRepairWindow {
                        for step in &bp.script {
                            if let ScriptStep::CutCables { until_hour: Some(u), .. } = step {
                                assert!(*u < end_hour, "repair ends after now");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reseed_sweeps_decorrelate_but_draw_zero_is_identity() {
        let root = FamilyParams::default();
        assert_eq!(root.reseed(0), root);
        let seeds: BTreeSet<u64> = (0..32).map(|d| root.reseed(d).seed).collect();
        assert_eq!(seeds.len(), 32, "32 draws give 32 distinct seeds");
        for d in 1..4 {
            let p = root.reseed(d);
            assert_eq!(p.intensity, root.intensity);
            assert_eq!(p.variants, root.variants);
            assert_eq!(p.horizon_days, root.horizon_days);
            assert_eq!(p, root.reseed(d), "reseed is deterministic");
        }
    }

    #[test]
    fn params_hash_tracks_every_knob() {
        let root = FamilyParams::default();
        assert_eq!(root.content_hash(), root.clone().content_hash());
        let variations = [
            FamilyParams { seed: 7, ..root.clone() },
            FamilyParams { intensity: 0.9, ..root.clone() },
            FamilyParams { variants: 5, ..root.clone() },
            FamilyParams { horizon_days: 12, ..root.clone() },
        ];
        let hashes: BTreeSet<u64> = std::iter::once(root.content_hash())
            .chain(variations.iter().map(|p| p.content_hash()))
            .collect();
        assert_eq!(hashes.len(), 5, "every knob moves the hash");
    }

    #[test]
    fn intensity_is_clamped() {
        let wild = FamilyParams { intensity: 42.0, ..FamilyParams::default() };
        let calm = FamilyParams { intensity: 1.0, ..FamilyParams::default() };
        assert_eq!(
            Family::RegionalBlackout.expand(&wild),
            Family::RegionalBlackout.expand(&calm)
        );
    }
}
