//! Property-based tests on substrate invariants, spanning crates.

use proptest::prelude::*;

use net_model::{GeoPoint, Ipv4Addr, Ipv4Net, SimTime, TimeWindow};

proptest! {
    /// Haversine is a metric-like function: non-negative, symmetric, zero
    /// on identity, and bounded by half the Earth's circumference.
    #[test]
    fn haversine_metric_properties(
        lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
        lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0,
    ) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let d_ab = a.distance_km(&b);
        let d_ba = b.distance_km(&a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-6);
        prop_assert!(a.distance_km(&a) < 1e-6);
        prop_assert!(d_ab <= 20_039.0 + 1.0, "longer than half the circumference: {d_ab}");
        // Fiber latency is monotone in distance and above the physical floor.
        prop_assert!(a.fiber_latency_ms(&b) >= a.min_fiber_latency_ms(&b) - 1e-9);
    }

    /// Prefix containment and overlap are consistent: covering implies
    /// overlapping; containment of an address implies overlap with its /32.
    #[test]
    fn prefix_relations_consistent(addr in any::<u32>(), len1 in 0u8..=32, len2 in 0u8..=32) {
        let p1 = Ipv4Net::new(Ipv4Addr(addr), len1).unwrap();
        let p2 = Ipv4Net::new(Ipv4Addr(addr), len2).unwrap();
        // Same base address: the shorter prefix covers the longer.
        let (wide, narrow) = if len1 <= len2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(wide.covers(&narrow));
        prop_assert!(wide.overlaps(&narrow) && narrow.overlaps(&wide));
        prop_assert!(wide.contains(narrow.network()));
    }

    /// Time-window bucketing partitions the window exactly.
    #[test]
    fn window_buckets_partition(start in -1_000_000i64..1_000_000, len in 1i64..1_000_000, n in 1usize..50) {
        let w = TimeWindow::new(SimTime(start), SimTime(start + len));
        let buckets = w.buckets(n);
        prop_assert_eq!(buckets.len(), n);
        prop_assert_eq!(buckets[0].start, w.start);
        prop_assert_eq!(buckets[n - 1].end, w.end);
        for pair in buckets.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
    }

    /// Deterministic Bernoulli draws are monotone in probability: any asset
    /// failing at probability p also fails at every p' ≥ p... which holds
    /// because the draw compares one fixed hash against the threshold.
    #[test]
    fn failure_draws_monotone_in_probability(
        seed in any::<u64>(), event in any::<u64>(), asset in any::<u64>(),
        p1 in 0.0f64..1.0, p2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        if world::events::fails(seed, event, asset, lo) {
            prop_assert!(world::events::fails(seed, event, asset, hi));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// More failed cables can never shrink the failed-link set (cascade
    /// monotonicity at the scenario level).
    #[test]
    fn more_cuts_never_less_impact(extra in 0usize..3) {
        use net_model::SimDuration;
        use world::{generate, EventKind, Scenario, WorldConfig};
        let world = generate(&WorldConfig::default());
        let at = net_model::SimTime::EPOCH + SimDuration::days(1);
        let mut base = Scenario::quiet(world.clone(), 5);
        base.push_event(EventKind::CableCut { cable: world.cables[0].id }, at, None);
        let mut more = base.clone();
        for k in 0..extra {
            more.push_event(EventKind::CableCut { cable: world.cables[k + 1].id }, at, None);
        }
        let base_down = base.links_down_at(at);
        let more_down = more.links_down_at(at);
        prop_assert!(base_down.is_subset(&more_down));
    }

    /// Xaminer impact reports always carry normalized scores, regardless
    /// of which cable fails.
    #[test]
    fn impact_scores_always_normalized(cable_idx in 0usize..25) {
        use world::{generate, WorldConfig};
        use xaminer_sim::{impact, process_event, FailureEvent};
        let world = generate(&WorldConfig::default());
        let deps = nautilus_sim::DependencyTable::from_ground_truth(&world);
        let cable = world.cables[cable_idx].id;
        let failure = process_event(&world, &deps, &FailureEvent::CableFailure { cable });
        let report = impact::aggregate(&world, &failure);
        for c in &report.per_country {
            prop_assert!((0.0..=1.0).contains(&c.impact_score));
            prop_assert!((0.0..=1.0).contains(&c.link_fraction));
        }
        // Sorted by score, descending.
        for w in report.per_country.windows(2) {
            prop_assert!(w[0].impact_score >= w[1].impact_score);
        }
    }
}
