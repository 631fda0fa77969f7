//! Equivalence suite: the dense-index routing engine must produce
//! **byte-identical** selected routes to the seed algorithm (retained as
//! `routing::reference`), on the default world and on arbitrary small
//! relationship graphs.

use proptest::prelude::*;

use bgp_sim::routing::{is_valley_free, reference, SelectionSweep};
use bgp_sim::{AsGraph, PolicyOverrides, RoutingTable};
use net_model::{Asn, SimDuration, SimTime};
use world::{generate, EventKind, RelKind, Scenario, WorldConfig};

/// Compares the dense table against the reference map for every
/// `(destination, holder)` pair, in both directions.
fn assert_equivalent(graph: &AsGraph, table: &RoutingTable) {
    let nodes: Vec<Asn> = graph.nodes().collect();
    for &dst in &nodes {
        let expected = reference::compute_for_destination(graph, dst);
        assert_eq!(
            table.reachable_from(dst),
            expected.len(),
            "holder count towards {dst} diverges"
        );
        for &src in &nodes {
            let dense = table.route(src, dst);
            let seed = expected.get(&src).cloned();
            assert_eq!(dense, seed, "route {src} -> {dst} diverges from the seed algorithm");
            assert_eq!(table.kind(src, dst), seed.as_ref().map(|r| r.kind));
            assert_eq!(table.hop_count(src, dst), seed.as_ref().map(|r| r.hop_count()));
        }
    }
}

#[test]
fn dense_engine_matches_seed_on_default_world() {
    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let graph = AsGraph::at_time(&scenario, SimTime::EPOCH);
    let table = RoutingTable::compute(&graph, &scenario.world);
    assert_equivalent(&graph, &table);
}

#[test]
fn dense_engine_matches_seed_after_a_cable_cut() {
    let world = generate(&WorldConfig::default());
    let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
    let cut = SimTime::EPOCH + SimDuration::days(5);
    let scenario = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut);
    let graph = AsGraph::at_time(&scenario, cut + SimDuration::hours(1));
    let table = RoutingTable::compute(&graph, &scenario.world);
    assert_equivalent(&graph, &table);
}

/// One reused [`SelectionSweep`] yields, for every destination, the keys
/// [`RoutingTable::selection`] reads from the full table, and its leak
/// pairs are the keys of the clean table and of the leaked one.
fn assert_sweep_matches_table(graph: &AsGraph, overrides: &PolicyOverrides) {
    let table = RoutingTable::compute_for_graph(graph, overrides);
    let clean = RoutingTable::compute_for_graph(graph, &PolicyOverrides::none());
    let mut sweep = SelectionSweep::default();
    for dst in graph.nodes() {
        let keys: Vec<_> = sweep.selections(graph, dst, overrides).collect();
        let expected: Vec<_> = graph.nodes().map(|src| table.selection(src, dst)).collect();
        assert_eq!(keys, expected, "selections towards {dst} diverge from the table");
        let pairs: Vec<_> = sweep.leak_selections(graph, dst, overrides).collect();
        let expected: Vec<_> = graph
            .nodes()
            .map(|src| (clean.selection(src, dst), table.selection(src, dst)))
            .collect();
        assert_eq!(pairs, expected, "leak pairs towards {dst} diverge from the tables");
    }
}

#[test]
fn selection_sweep_matches_the_table_on_default_world() {
    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let graph = AsGraph::at_time(&scenario, SimTime::EPOCH);
    assert_sweep_matches_table(&graph, &PolicyOverrides::none());
    assert_sweep_matches_table(&graph, &default_world_leaker(&scenario, &graph));
    let leakers = multi_homed(&scenario, &graph).into_iter().step_by(7);
    assert_sweep_matches_table(&graph, &PolicyOverrides::leaking(leakers));

    let mut sweep = SelectionSweep::default();
    let absent = sweep.selections(&graph, Asn(1), &PolicyOverrides::none());
    assert_eq!(absent.len(), graph.node_count());
    assert!(absent.into_iter().all(|k| k.is_none()), "nobody routes to an absent AS");
    let leaking = default_world_leaker(&scenario, &graph);
    let absent = sweep.leak_selections(&graph, Asn(1), &leaking);
    assert_eq!(absent.len(), graph.node_count());
    assert!(absent.into_iter().all(|k| k == (None, None)), "nor with a leak");
}

/// A leaker fixture on the default world: a multi-homed access AS (two
/// or more providers), so the leak of one provider-learned route into
/// the other provider is guaranteed to be an illegitimate export.
#[expect(clippy::expect_used, reason = "a fixture lookup on the default world")]
fn default_world_leaker(scenario: &Scenario, graph: &AsGraph) -> PolicyOverrides {
    let leaker = scenario
        .world
        .ases
        .iter()
        .map(|a| a.asn)
        .find(|&a| graph.providers(a).len() >= 2)
        .expect("the default world has multi-homed ASes");
    PolicyOverrides::leaking([leaker])
}

#[test]
fn dense_engine_matches_seed_with_route_leaks() {
    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let graph = AsGraph::at_time(&scenario, SimTime::EPOCH);
    let overrides = default_world_leaker(&scenario, &graph);

    let table = RoutingTable::compute_for_graph(&graph, &overrides);
    let nodes: Vec<Asn> = graph.nodes().collect();
    for &dst in &nodes {
        let expected = reference::compute_for_destination_with(&graph, dst, &overrides);
        assert_eq!(table.reachable_from(dst), expected.len(), "holders towards {dst}");
        for &src in &nodes {
            assert_eq!(
                table.route(src, dst),
                expected.get(&src).cloned(),
                "leaked route {src} -> {dst} diverges from the reference"
            );
        }
    }
}

#[test]
fn route_leak_changes_routes_and_breaks_valley_freeness() {
    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let graph = AsGraph::at_time(&scenario, SimTime::EPOCH);
    let overrides = default_world_leaker(&scenario, &graph);

    let base = RoutingTable::compute_for_graph(&graph, &PolicyOverrides::none());
    let leaked = RoutingTable::compute_for_graph(&graph, &overrides);
    let base_routes: Vec<_> = base.iter().collect();
    let leaked_routes: Vec<_> = leaked.iter().collect();
    assert_ne!(base_routes, leaked_routes, "the leak must move at least one best path");

    // Some selected path now rides the leak — and is no longer
    // valley-free (the defining signature a leak detector keys on).
    let violating = leaked_routes
        .iter()
        .filter(|(_, _, r)| !is_valley_free(&graph, &r.as_path))
        .count();
    assert!(violating > 0, "a leak must produce valley-violating selected paths");
    // The quiet sweep stays entirely valley-free, as always.
    assert!(base_routes.iter().all(|(_, _, r)| is_valley_free(&graph, &r.as_path)));
}

/// The multi-homed ASes of the default world, ascending — candidate
/// leakers whose leaks are guaranteed to be illegitimate exports.
fn multi_homed(scenario: &Scenario, graph: &AsGraph) -> Vec<Asn> {
    scenario
        .world
        .ases
        .iter()
        .map(|a| a.asn)
        .filter(|&a| graph.providers(a).len() >= 2)
        .collect()
}

/// A composed timeline on the default world: a cable cut, a bounded
/// route leak, and a prefix hijack that goes live *inside* the leak
/// window. Mirrors the campaign crate's composed families
/// (hijack-during-cascade), where incidents overlap instead of running
/// one at a time.
#[expect(clippy::unwrap_used, reason = "a fixture lookup on the default world")]
#[expect(clippy::expect_used, reason = "a fixture lookup on the default world")]
fn composed_scenario() -> (Scenario, SimTime) {
    let world = generate(&WorldConfig::default());
    let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
    let victim = world.prefixes[0];
    let hijacker = world
        .ases
        .iter()
        .map(|a| a.asn)
        .find(|&a| a != victim.origin)
        .expect("more than one AS");

    let cut = SimTime::EPOCH + SimDuration::days(2);
    let leak_open = SimTime::EPOCH + SimDuration::days(4);
    let leak_close = SimTime::EPOCH + SimDuration::days(7);
    let hijack_at = SimTime::EPOCH + SimDuration::days(5);

    let mut scenario = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut);
    let graph = AsGraph::at_time(&scenario, SimTime::EPOCH);
    let leaker = multi_homed(&scenario, &graph)[0];
    scenario.push_event(EventKind::RouteLeak { leaker }, leak_open, Some(leak_close));
    scenario.push_event(
        EventKind::PrefixHijack { origin: hijacker, victim_prefix: victim.net },
        hijack_at,
        None,
    );
    // Mid-overlap: the cut is live, the leak window is open, the hijack
    // has started.
    (scenario, hijack_at + SimDuration::hours(1))
}

#[test]
fn dense_engine_matches_seed_on_composed_timelines() {
    let (scenario, mid) = composed_scenario();
    let control = scenario.control_plane_at(mid);
    assert!(!control.hijacks.is_empty(), "hijack live mid-overlap");
    assert_eq!(control.leakers.len(), 1, "leak window open mid-overlap");

    // The cut topology *and* the leak overrides apply at once; the dense
    // engine must still match the seed algorithm byte for byte.
    let graph = AsGraph::at_time(&scenario, mid);
    let overrides = PolicyOverrides::from(&control);
    let table = RoutingTable::compute_for_graph(&graph, &overrides);
    let nodes: Vec<Asn> = graph.nodes().collect();
    for &dst in &nodes {
        let expected = reference::compute_for_destination_with(&graph, dst, &overrides);
        assert_eq!(table.reachable_from(dst), expected.len(), "holders towards {dst}");
        for &src in &nodes {
            assert_eq!(
                table.route(src, dst),
                expected.get(&src).cloned(),
                "composed route {src} -> {dst} diverges from the seed algorithm"
            );
        }
    }
}

#[test]
fn composed_timeline_updates_are_insertion_order_invariant() {
    // merge_scripts canonicalizes composed event order by content; the
    // update stream must not care which member family's events landed
    // first on the timeline.
    let (scenario, _) = composed_scenario();
    let mut reversed = Scenario::quiet(scenario.world_handle(), 10);
    for ev in scenario.events.iter().rev() {
        reversed.push_event(ev.kind.clone(), ev.at, ev.until);
    }
    let peers: Vec<Asn> = scenario.world.ases.iter().take(8).map(|a| a.asn).collect();
    let canonical = bgp_sim::updates::derive_updates(&scenario, &peers);
    assert!(!canonical.is_empty(), "a composed timeline produces churn");
    assert_eq!(bgp_sim::updates::derive_updates(&reversed, &peers), canonical);
    // And the derivation itself is a pure function of the scenario.
    assert_eq!(bgp_sim::updates::derive_updates(&scenario, &peers), canonical);
}

#[test]
fn staggered_overlapping_leaks_open_and_close_independently() {
    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let graph = AsGraph::at_time(&scenario, SimTime::EPOCH);
    let homed = multi_homed(&scenario, &graph);
    assert!(homed.len() >= 2, "the default world has ≥2 multi-homed ASes");
    let (first, second) = (homed[0], homed[1]);

    // first leaks over days [2, 6]; second over days [4, 8]: the windows
    // overlap on [4, 6] and each closes on its own schedule.
    let mut s = scenario;
    let day = |d: i64| SimTime::EPOCH + SimDuration::days(d);
    s.push_event(EventKind::RouteLeak { leaker: first }, day(2), Some(day(6)));
    s.push_event(EventKind::RouteLeak { leaker: second }, day(4), Some(day(8)));

    assert!(s.control_plane_at(day(1)).is_quiet());
    assert_eq!(s.control_plane_at(day(3)).leakers, vec![first]);
    let mut both = vec![first, second];
    both.sort();
    assert_eq!(s.control_plane_at(day(5)).leakers, both, "overlap window");
    assert_eq!(s.control_plane_at(day(7)).leakers, vec![second]);
    assert!(s.control_plane_at(day(9)).is_quiet(), "both windows closed");

    // During the overlap both leakers apply at once: dense == reference.
    let overrides = PolicyOverrides::from(&s.control_plane_at(day(5)));
    assert_eq!(overrides.leakers().len(), 2);
    let table = RoutingTable::compute_for_graph(&graph, &overrides);
    let nodes: Vec<Asn> = graph.nodes().collect();
    for &dst in &nodes {
        let expected = reference::compute_for_destination_with(&graph, dst, &overrides);
        for &src in &nodes {
            assert_eq!(
                table.route(src, dst),
                expected.get(&src).cloned(),
                "double-leak route {src} -> {dst} diverges from the seed algorithm"
            );
        }
    }

    // The update stream walks every boundary: churn at both openings and
    // both closings, and the post-horizon state is the quiet one again.
    let peers: Vec<Asn> = s.world.ases.iter().take(8).map(|a| a.asn).collect();
    let ups = bgp_sim::updates::derive_updates(&s, &peers);
    assert!(!ups.is_empty());
    let times: std::collections::BTreeSet<SimTime> =
        ups.iter().map(|u| SimTime(u.time.0 - u.time.0 % 3600)).collect();
    assert!(times.len() >= 2, "churn at more than one boundary: {times:?}");
}

/// A random small relationship graph: a loose tier structure (every
/// non-top node buys transit from some lower-indexed node, so the graph is
/// connected upwards) plus random extra provider and peer edges.
fn arbitrary_graph() -> impl Strategy<Value = (Vec<Asn>, Vec<(Asn, Asn, RelKind)>)> {
    (4usize..24, proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..64))
        .prop_map(|(n, raw_edges)| {
            let asns: Vec<Asn> = (0..n).map(|i| Asn(100 + i as u32 * 7)).collect();
            let mut edges: Vec<(Asn, Asn, RelKind)> = Vec::new();
            // Backbone: node i (i > 0) is a customer of some j < i.
            for i in 1..n {
                let j = (i * 13 + 5) % i;
                edges.push((asns[j], asns[i], RelKind::ProviderCustomer));
            }
            for (a, b, k) in raw_edges {
                let (a, b) = (a as usize % n, b as usize % n);
                if a == b {
                    continue;
                }
                let kind = if k % 3 == 0 { RelKind::Peer } else { RelKind::ProviderCustomer };
                edges.push((asns[a], asns[b], kind));
            }
            (asns, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary relationship graphs the dense engine and the seed
    /// algorithm select byte-identical routes for every destination.
    #[test]
    fn dense_engine_matches_seed_on_arbitrary_graphs(spec in arbitrary_graph()) {
        let (asns, edges) = spec;
        let graph = AsGraph::from_relationships(asns, edges);
        let table = RoutingTable::compute_for_graph(&graph, &PolicyOverrides::none());
        let nodes: Vec<Asn> = graph.nodes().collect();
        for &dst in &nodes {
            let expected = reference::compute_for_destination(&graph, dst);
            for &src in &nodes {
                let dense = table.route(src, dst);
                let seed = expected.get(&src).cloned();
                prop_assert_eq!(dense, seed);
            }
        }
    }

    /// With arbitrary leaker sets the dense leak stage still matches the
    /// reference byte-for-byte.
    #[test]
    fn leak_overrides_match_seed_on_arbitrary_graphs(
        spec in arbitrary_graph(),
        picks in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        let (asns, edges) = spec;
        let leakers: Vec<Asn> =
            picks.iter().map(|&p| asns[p as usize % asns.len()]).collect();
        let overrides = PolicyOverrides::leaking(leakers);
        let graph = AsGraph::from_relationships(asns, edges);
        let table = RoutingTable::compute_for_graph(&graph, &overrides);
        let nodes: Vec<Asn> = graph.nodes().collect();
        for &dst in &nodes {
            let expected =
                reference::compute_for_destination_with(&graph, dst, &overrides);
            for &src in &nodes {
                prop_assert_eq!(table.route(src, dst), expected.get(&src).cloned());
            }
        }
    }

    /// One sweep reused across arbitrary graphs and leaker sets matches
    /// the full table's selections bit for bit.
    #[test]
    fn selection_sweep_matches_the_table_on_arbitrary_graphs(
        spec in arbitrary_graph(),
        picks in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        let (asns, edges) = spec;
        let leakers: Vec<Asn> =
            picks.iter().map(|&p| asns[p as usize % asns.len()]).collect();
        let graph = AsGraph::from_relationships(asns, edges);
        assert_sweep_matches_table(&graph, &PolicyOverrides::leaking(leakers));
    }

    /// Every dense-selected path is valley-free and simple on arbitrary
    /// graphs, not just on generated worlds.
    #[test]
    fn dense_routes_are_valley_free_and_simple(spec in arbitrary_graph()) {
        let (asns, edges) = spec;
        let graph = AsGraph::from_relationships(asns, edges);
        let table = RoutingTable::compute_for_graph(&graph, &PolicyOverrides::none());
        for (_, _, route) in table.iter() {
            prop_assert!(is_valley_free(&graph, &route.as_path));
            let mut p = route.as_path.clone();
            p.sort();
            p.dedup();
            prop_assert_eq!(p.len(), route.as_path.len());
        }
    }
}
