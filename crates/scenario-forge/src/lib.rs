//! # scenario-forge — parameterized scenario families over cached worlds
//!
//! The workflow engine is only as useful as the breadth of measurement
//! scenarios it can pose. This crate turns scenario authoring from
//! "hand-seed one world, hand-place one event" into a **library of
//! deterministic, parameterized scenario families**:
//!
//! * a [`Family`] is a named generator (regional blackout, multi-cable
//!   cut cascade, national censorship, transit de-peering, IXP outage,
//!   seasonal eyeball growth, submarine-cable repair window, corridor
//!   congestion storm, festoon buildout, targeted prefix hijack,
//!   accidental transit leak) that expands a [`FamilyParams`] into a
//!   fleet of [`ScenarioBlueprint`]s;
//! * a [`ScenarioBlueprint`] is pure data: a [`world::WorldConfig`]
//!   naming the world, plus an **event script** ([`ScriptStep`]) whose
//!   targets ("the top-2 Europe–Asia corridor cables", "every cable
//!   landing in Egypt", "the Asian region hub") resolve against the
//!   generated world deterministically;
//! * the [`WorldCache`] is a **content-addressed** `Arc<World>` cache
//!   keyed by the config's bit-exact identity: N blueprints that share a
//!   config pay for one generation, and every realized scenario holds
//!   the *same* `Arc<World>` (witnessed by `Arc::ptr_eq`). It is a
//!   [`OnceMap`], the workspace's one build-once cache shape (also under
//!   `toolkit::ArtifactStore`): concurrent requesters for one config
//!   block on the single builder instead of duplicating the (hundreds of
//!   milliseconds) generation.
//!
//! Everything is a pure function of [`FamilyParams`]: equal params
//! expand to byte-identical blueprints and realize byte-identical
//! scenarios, across runs and platforms — the property the
//! `forge_determinism` suite pins.

pub mod blueprint;
pub mod cache;
pub mod compose;
pub mod families;
pub mod script;

pub use blueprint::ScenarioBlueprint;
pub use cache::{global_cache, OnceMap, SharedWorldCache, WorldCache};
pub use compose::{compose, merge_scripts, ComposeError};
pub use families::{Family, FamilyParams};
pub use script::{AsTarget, CableTarget, DisasterSite, ScriptStep};
