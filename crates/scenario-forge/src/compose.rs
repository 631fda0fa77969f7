//! Blueprint composition: merging several event scripts into one
//! scenario with interacting incidents.
//!
//! A composed blueprint is how a campaign asks "what does a prefix
//! hijack look like *while* a cable cascade is reconverging?" — the
//! component blueprints must name the same world (composition never
//! invents a third world), their scripts are merged into one timeline,
//! and the merge order is canonical: steps sort by onset hour, then by
//! the [`stable_hash`] of their serialized form, then by the serialized
//! form itself. The result is a total, content-determined order —
//! `compose([a, b])` and `compose([b, a])` are byte-identical, and no
//! ordering decision ever depends on map iteration or pointer identity.
//! That matters beyond aesthetics: realized event ids follow script
//! order, and probabilistic disaster draws are keyed by event id, so an
//! unstable merge would change which segments fail.

use net_model::hash::stable_hash;

use crate::blueprint::ScenarioBlueprint;
use crate::script::ScriptStep;

/// Why a composition was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// No component blueprints were supplied.
    Empty,
    /// Two components name different worlds; composition requires one
    /// shared [`world::WorldConfig`] (the hashes are the components'
    /// content addresses).
    ConfigMismatch { left: u64, right: u64 },
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::Empty => write!(f, "composition needs at least one blueprint"),
            ComposeError::ConfigMismatch { left, right } => write!(
                f,
                "composed blueprints must share a world config \
                 (found {left:#018x} and {right:#018x})"
            ),
        }
    }
}

/// The onset hour a script step fires at (its primary sort key).
fn onset_hour(step: &ScriptStep) -> i64 {
    match step {
        ScriptStep::CutCables { at_hour, .. }
        | ScriptStep::Earthquake { at_hour, .. }
        | ScriptStep::Hurricane { at_hour, .. }
        | ScriptStep::Congestion { at_hour, .. }
        | ScriptStep::HijackPrefixes { at_hour, .. }
        | ScriptStep::LeakRoutes { at_hour, .. } => *at_hour,
    }
}

/// Merges several scripts into one canonically ordered timeline. The
/// order is a pure function of step *content*: onset hour first, then
/// the stable hash of the serialized step, then the serialization
/// itself as the final total-order tiebreaker.
pub fn merge_scripts(parts: &[&[ScriptStep]]) -> Vec<ScriptStep> {
    let mut keyed: Vec<(i64, u64, String, ScriptStep)> = parts
        .iter()
        .flat_map(|script| script.iter())
        .map(|step| {
            let json = serde_json::to_string(step).unwrap_or_default();
            let words: Vec<u64> = json.as_bytes().iter().map(|&b| b as u64).collect();
            (onset_hour(step), stable_hash(&words), json, step.clone())
        })
        .collect();
    keyed.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    keyed.into_iter().map(|(_, _, _, step)| step).collect()
}

/// Composes several blueprints over one shared world into a single
/// blueprint whose script is the canonical merge of the components'
/// scripts and whose horizon is the longest component horizon.
pub fn compose(
    name: impl Into<String>,
    parts: &[&ScenarioBlueprint],
) -> Result<ScenarioBlueprint, ComposeError> {
    let first = parts.first().ok_or(ComposeError::Empty)?;
    for part in &parts[1..] {
        if part.config != first.config {
            return Err(ComposeError::ConfigMismatch {
                left: first.world_hash(),
                right: part.world_hash(),
            });
        }
    }
    let scripts: Vec<&[ScriptStep]> = parts.iter().map(|p| p.script.as_slice()).collect();
    Ok(ScenarioBlueprint {
        name: name.into(),
        config: first.config.clone(),
        horizon_days: parts.iter().map(|p| p.horizon_days).max().unwrap_or(2),
        script: merge_scripts(&scripts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{Family, FamilyParams};

    fn parts() -> (ScenarioBlueprint, ScenarioBlueprint) {
        let params = FamilyParams::default();
        let cascade = Family::CableCutCascade.expand(&params).remove(0);
        let hijack = Family::TargetedPrefixHijack.expand(&params).remove(0);
        (cascade, hijack)
    }

    #[test]
    fn compose_is_order_insensitive() {
        let (a, b) = parts();
        let ab = compose("x", &[&a, &b]).unwrap();
        let ba = compose("x", &[&b, &a]).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.script.len(), a.script.len() + b.script.len());
    }

    #[test]
    fn compose_keeps_the_shared_config_and_longest_horizon() {
        let (a, b) = parts();
        let mut long = b.clone();
        long.horizon_days = a.horizon_days + 5;
        let c = compose("x", &[&a, &long]).unwrap();
        assert_eq!(c.config, a.config);
        assert_eq!(c.horizon_days, a.horizon_days + 5);
    }

    #[test]
    fn compose_rejects_mismatched_worlds() {
        let (a, _) = parts();
        let other_params = FamilyParams { seed: 7, ..FamilyParams::default() };
        let other = Family::CableCutCascade.expand(&other_params).remove(0);
        let err = compose("x", &[&a, &other]).unwrap_err();
        assert!(matches!(err, ComposeError::ConfigMismatch { .. }));
        assert_eq!(compose("x", &[]).unwrap_err(), ComposeError::Empty);
    }

    #[test]
    fn merged_script_is_onset_ordered() {
        let (a, b) = parts();
        let c = compose("x", &[&a, &b]).unwrap();
        let hours: Vec<i64> = c.script.iter().map(onset_hour).collect();
        let mut sorted = hours.clone();
        sorted.sort();
        assert_eq!(hours, sorted);
    }
}
