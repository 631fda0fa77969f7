//! Forge determinism and cache-sharing, pinned.
//!
//! * Equal [`FamilyParams`] must expand to **byte-identical** blueprints
//!   (compared through their serialized specs) and realize
//!   byte-identical worlds and event scripts across independent runs.
//! * Distinct seeds must produce distinct world content hashes (and
//!   genuinely different worlds).
//! * The [`WorldCache`] must hand every concurrent requester of one
//!   config the *same* `Arc<World>` — one generation — at 1, 2 and 8
//!   worker threads.

use std::sync::Arc;

use proptest::prelude::*;

use scenario_forge::{Family, FamilyParams, WorldCache};
use world::{generate, World, WorldConfig};

/// A stable structural fingerprint of a generated world: every layer's
/// identifying fields folded through `world::events::stable_hash`. Two
/// worlds with equal fingerprints are byte-identical for every field a
/// scenario can observe.
fn world_fingerprint(w: &World) -> u64 {
    let mut parts: Vec<u64> = vec![w.seed];
    parts.push(w.cities.len() as u64);
    for cable in &w.cables {
        parts.push(cable.id.0 as u64);
        parts.push(cable.name.len() as u64);
        parts.extend(cable.name.bytes().map(u64::from));
        parts.extend(cable.landings.iter().map(|c| c.0 as u64));
        for seg in &cable.segments {
            parts.push(seg.a.0 as u64);
            parts.push(seg.b.0 as u64);
            parts.push(seg.length_km.to_bits());
        }
    }
    for a in &w.ases {
        parts.push(a.asn.0 as u64);
        parts.extend(a.presence.iter().map(|c| c.0 as u64));
    }
    for r in &w.relationships {
        parts.push(r.a.0 as u64);
        parts.push(r.b.0 as u64);
    }
    for l in &w.links {
        parts.push(l.a.asn.0 as u64);
        parts.push(l.b.asn.0 as u64);
        parts.push(l.a.city.0 as u64);
        parts.push(l.b.city.0 as u64);
        parts.push(l.latency_ms.to_bits());
    }
    for p in &w.probes {
        parts.push(p.asn.0 as u64);
        parts.push(p.city.0 as u64);
        parts.push(p.addr.0 as u64);
    }
    world::events::stable_hash(&parts)
}

fn params_strategy() -> impl Strategy<Value = FamilyParams> {
    (any::<u64>(), 0u8..=10, 1usize..=3, 3i64..=14).prop_map(
        |(seed, intensity, variants, horizon_days)| FamilyParams {
            seed,
            intensity: f64::from(intensity) / 10.0,
            variants,
            horizon_days,
        },
    )
}

fn family_strategy() -> impl Strategy<Value = Family> {
    (0usize..Family::ALL.len()).prop_map(|i| Family::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expansion is a pure function of the params: two independent
    /// expansions serialize to the same bytes, and re-seeding changes
    /// the world addresses.
    #[test]
    fn equal_params_expand_byte_identically(
        params in params_strategy(),
        family in family_strategy(),
    ) {
        let a = family.expand(&params);
        let b = family.expand(&params);
        prop_assert_eq!(&a, &b);
        let bytes = |fleet: &[scenario_forge::ScenarioBlueprint]| -> String {
            fleet.iter()
                .map(|bp| serde_json::to_string(&bp.spec()).expect("spec serializes"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        prop_assert_eq!(bytes(&a), bytes(&b));

        // Distinct seeds produce distinct world content hashes for every
        // blueprint in the fleet.
        let reseeded = FamilyParams { seed: params.seed.wrapping_add(1), ..params.clone() };
        let c = family.expand(&reseeded);
        for (x, y) in a.iter().zip(&c) {
            prop_assert_ne!(x.world_hash(), y.world_hash());
        }
    }
}

proptest! {
    // World generation is hundreds of milliseconds, so the end-to-end
    // realization property runs fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Realizing the same blueprint twice — through two *independent*
    /// generations, no cache — produces byte-identical worlds and event
    /// scripts.
    #[test]
    fn equal_params_realize_byte_identical_scenarios(
        params in params_strategy(),
        family in family_strategy(),
    ) {
        let fleet = family.expand(&params);
        let blueprint = &fleet[0];
        let s1 = blueprint.realize(Arc::new(generate(&blueprint.config)));
        let s2 = blueprint.realize(Arc::new(generate(&blueprint.config)));
        prop_assert_eq!(world_fingerprint(&s1.world), world_fingerprint(&s2.world));
        prop_assert_eq!(&s1.events, &s2.events);
        prop_assert_eq!(
            serde_json::to_string(&s1.spec()).expect("spec serializes"),
            serde_json::to_string(&s2.spec()).expect("spec serializes")
        );
        prop_assert_eq!(s1.now, s2.now);
        prop_assert_eq!(s1.horizon, s2.horizon);
    }
}

#[test]
fn distinct_seeds_generate_distinct_worlds() {
    let a = generate(&WorldConfig { seed: 1, ..WorldConfig::default() });
    let b = generate(&WorldConfig { seed: 2, ..WorldConfig::default() });
    assert_ne!(world_fingerprint(&a), world_fingerprint(&b));
}

#[test]
fn cache_hands_one_arc_to_every_thread() {
    for threads in [1usize, 2, 8] {
        let cache = WorldCache::new();
        let config = WorldConfig { seed: 1000 + threads as u64, ..WorldConfig::default() };
        let worlds: Vec<Arc<World>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| cache.get_or_generate(&config)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for w in &worlds {
            assert!(Arc::ptr_eq(w, &worlds[0]), "{threads} threads");
        }
        assert_eq!(cache.len(), 1, "{threads} threads, one generation");
    }
}

#[test]
fn control_plane_families_realize_into_control_plane_events() {
    let cache = WorldCache::new();
    let params = FamilyParams::default();

    // Expansion is byte-identical across runs (the two new families ride
    // the same determinism contract as the original nine).
    for family in [Family::TargetedPrefixHijack, Family::AccidentalTransitLeak] {
        let a = family.expand(&params);
        let b = family.expand(&params);
        assert_eq!(a, b);
        let bytes = |fleet: &[scenario_forge::ScenarioBlueprint]| -> String {
            fleet
                .iter()
                .map(|bp| serde_json::to_string(&bp.spec()).expect("spec serializes"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(bytes(&a), bytes(&b));
    }

    // Realized hijack scenarios carry PrefixHijack events that are live
    // at `now` and name prefixes the victim actually announces.
    let hijack_fleet = Family::TargetedPrefixHijack.expand(&params);
    let mut hijack_events = 0usize;
    for bp in &hijack_fleet {
        let scenario = bp.forge(&cache);
        for e in &scenario.events {
            let world::EventKind::PrefixHijack { origin, victim_prefix } = &e.kind else {
                panic!("{}: unexpected event {:?}", bp.name, e.kind);
            };
            hijack_events += 1;
            let legit = scenario
                .world
                .prefixes
                .iter()
                .find(|p| p.net == *victim_prefix)
                .expect("hijacked prefix exists in the world");
            assert_ne!(legit.origin, *origin);
            assert!(e.active_at(scenario.now), "hijack live at now");
        }
        assert!(!scenario.control_plane_at(scenario.now).is_quiet());
    }
    assert!(hijack_events > 0, "the fleet must hijack something");

    // Realized leak scenarios carry bounded RouteLeak events whose
    // windows close inside the horizon.
    for bp in Family::AccidentalTransitLeak.expand(&params) {
        let scenario = bp.forge(&cache);
        assert!(!scenario.events.is_empty(), "{}: leaker must resolve", bp.name);
        for e in &scenario.events {
            assert!(matches!(e.kind, world::EventKind::RouteLeak { .. }));
            let until = e.until.expect("leaks are bounded");
            assert!(scenario.horizon.contains(e.at));
            assert!(until <= scenario.horizon.end);
        }
    }

    // Both families script over the shared base config: one generation.
    assert_eq!(cache.len(), 1);
}

#[test]
fn full_forge_fleet_dedups_worlds_through_the_cache() {
    let cache = WorldCache::new();
    let params = FamilyParams::default();
    let mut scenarios = Vec::new();
    for family in Family::ALL {
        for blueprint in family.expand(&params) {
            scenarios.push((format!("{}/{}", family.id(), blueprint.name), blueprint.forge(&cache)));
        }
    }
    assert_eq!(scenarios.len(), Family::ALL.len() * params.variants);
    // Generations equal the number of *distinct* configs, not scenarios.
    assert!(
        cache.len() < scenarios.len(),
        "{} scenarios must share {} worlds",
        scenarios.len(),
        cache.len()
    );
    // The six event-script families share the base config's Arc.
    let base = &scenarios[0].1;
    let sharing = scenarios.iter().filter(|(_, s)| Arc::ptr_eq(&s.world, &base.world)).count();
    assert!(sharing > params.variants, "cross-family world sharing");
}
