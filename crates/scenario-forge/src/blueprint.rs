//! Scenario blueprints: the pure-data output of family expansion.
//!
//! A blueprint separates the two halves of a scenario so the expensive
//! half can be shared: the [`WorldConfig`] is the world's content
//! address (any number of blueprints may name the same config), and the
//! event script is cheap to resolve per blueprint. Realization composes
//! them into a [`world::Scenario`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use world::{Scenario, World, WorldConfig};

use crate::cache::WorldCache;
use crate::script::ScriptStep;

/// One fully-specified scenario, before any world is generated.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBlueprint {
    /// Unique within a family expansion; the engine keys the scenario
    /// as `"<family-id>/<name>"`.
    pub name: String,
    /// Content address of the world this scenario plays out in.
    pub config: WorldConfig,
    /// Horizon length in days (`now` sits at the end, as in
    /// [`Scenario::quiet`]).
    pub horizon_days: i64,
    /// The incident script, resolved against the generated world.
    pub script: Vec<ScriptStep>,
}

/// The serializable identity of a blueprint's timeline (the script as
/// data plus the world's content hash) — what the determinism suite
/// compares byte-for-byte across expansions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlueprintSpec {
    pub name: String,
    pub world_hash: u64,
    pub horizon_days: i64,
    pub script: Vec<ScriptStep>,
}

impl ScenarioBlueprint {
    /// The world's content address ([`WorldConfig::content_hash`]).
    pub fn world_hash(&self) -> u64 {
        self.config.content_hash()
    }

    /// The serializable spec (see [`BlueprintSpec`]).
    pub fn spec(&self) -> BlueprintSpec {
        BlueprintSpec {
            name: self.name.clone(),
            world_hash: self.world_hash(),
            horizon_days: self.horizon_days,
            script: self.script.clone(),
        }
    }

    /// Composes the blueprint with an already-generated world. The world
    /// must be the one the config names (debug-asserted against the full
    /// config, not just the seed); script steps resolve against it in
    /// order, so the realized event ids are deterministic.
    pub fn realize(&self, world: Arc<World>) -> Scenario {
        debug_assert_eq!(
            world.config, self.config,
            "blueprint {:?} realized against a world from another config",
            self.name
        );
        let resolved: Vec<_> =
            self.script.iter().flat_map(|step| step.resolve(&world)).collect();
        let mut scenario = Scenario::quiet(world, self.horizon_days);
        for (kind, at, until) in resolved {
            scenario.push_event(kind, at, until);
        }
        scenario
    }

    /// Realizes through a [`WorldCache`]: blueprints sharing a config
    /// share one generation (and one `Arc<World>`).
    pub fn forge(&self, cache: &WorldCache) -> Scenario {
        self.realize(cache.get_or_generate(&self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::CableTarget;

    fn blueprint() -> ScenarioBlueprint {
        ScenarioBlueprint {
            name: "corridor-cut".into(),
            config: WorldConfig { seed: 7, ..WorldConfig::default() },
            horizon_days: 10,
            script: vec![ScriptStep::CutCables {
                target: CableTarget::Named("SeaMeWe-5".into()),
                at_hour: 24 * 4,
                until_hour: None,
            }],
        }
    }

    #[test]
    fn forge_shares_the_world_across_blueprints() {
        let cache = WorldCache::new();
        let a = blueprint().forge(&cache);
        let b = ScenarioBlueprint { name: "other".into(), ..blueprint() }.forge(&cache);
        assert!(Arc::ptr_eq(&a.world, &b.world));
        assert_eq!(cache.generations(), 1);
        assert_eq!(a.events.len(), 1);
        assert!(!a.links_down_at(a.now).is_empty(), "the cut is live at now");
    }

    #[test]
    fn spec_is_stable_across_clones() {
        let b = blueprint();
        assert_eq!(b.spec(), b.clone().spec());
        assert_eq!(b.world_hash(), b.config.content_hash());
    }
}
