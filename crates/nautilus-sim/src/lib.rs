//! # nautilus-sim — cross-layer cartography
//!
//! A from-scratch implementation of the role Nautilus (\[22\] in the paper)
//! plays in the ArachNet case studies: mapping IP-layer links to the
//! submarine cable systems they ride, with confidence scores.
//!
//! The mapper never looks at the world's ground-truth physical paths. It
//! infers candidates the way the real system does:
//!
//! 1. **geolocate** both link endpoints (city-level),
//! 2. **enumerate** cable systems whose landing geometry can plausibly
//!    connect the endpoints, scoring each by detour ratio (cable route
//!    length vs. great-circle distance) and landing proximity,
//! 3. **validate** against the speed-of-light bound implied by the link's
//!    measured latency — a cable longer than the latency allows is
//!    physically impossible and is discarded,
//! 4. **normalize** surviving scores into per-link confidence values.
//!
//! A cable's fit depends only on a link's endpoint cities, so
//! [`NautilusMapper::map_world`] computes one fit per city pair: it builds
//! the city-to-city distance table and each cable's landing prefix sums
//! once per run, and hundreds of suspected links share a few dozen city
//! pairs. Per link only the latency and detour filters and the score run.
//!
//! Because the world generator *does* know the truth, the crate also ships
//! an evaluation harness ([`evaluate`]) reporting precision/recall of the
//! inferred mapping; `end_to_end_mapping_quality` below pins its floor.
//!
//! Workflows reach the crate through [`NautilusMapper::map_world`] and
//! [`DependencyTable::from_mapping`] (or
//! [`DependencyTable::from_ground_truth`] in oracle mode).

pub mod dependency;
pub mod mapping;
pub mod validation;

pub use dependency::{CableDependencies, DependencyTable};
pub use mapping::{CableMapping, MappingConfig, MappingTable, NautilusMapper};
pub use validation::{evaluate, MappingAccuracy};

#[cfg(test)]
mod tests {
    use super::*;
    use world::{generate, WorldConfig};

    #[test]
    fn end_to_end_mapping_quality() {
        let world = generate(&WorldConfig::default());
        let table = NautilusMapper::new(MappingConfig::default()).map_world(&world);
        let acc = evaluate(&table, &world);
        // The mapper must be substantially better than chance: the world
        // has ~55 cables, random top-1 would be ~2%.
        assert!(
            acc.top1_accuracy > 0.35,
            "top-1 accuracy {:.2} too low",
            acc.top1_accuracy
        );
        assert!(
            acc.top3_recall > 0.5,
            "top-3 recall {:.2} too low",
            acc.top3_recall
        );
    }
}
