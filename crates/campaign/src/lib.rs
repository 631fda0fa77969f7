//! # campaign — fleet-scale measurement studies with provenance
//!
//! The paper's end state is an agent that runs *broad automated
//! measurement studies*, not single incidents. This crate is that
//! breadth layer over the serving engine, in three pieces:
//!
//! * **Composition** ([`compose`]) — a [`ComposedFamily`] merges several
//!   [`scenario_forge::Family`] expansions into one scenario carrying
//!   *interacting* incidents (a targeted prefix hijack live while a
//!   cable-cut cascade reconverges; a censorship cut joined by an
//!   accidental transit leak). Scripts merge through
//!   [`scenario_forge::compose()`] in a canonical content-determined
//!   order — no map iteration, no insertion-order dependence.
//! * **Ensembles** ([`ensemble`]) — an [`EnsembleSpec`] sweeps a family
//!   over Monte Carlo seed draws ([`FamilyParams::reseed`]) and
//!   aggregates per-query numbers into [`Distribution`]s (percentiles
//!   via `total_cmp`, never `partial_cmp().unwrap()`).
//! * **Runner** ([`runner`]) — a [`CampaignRunner`] expands, registers
//!   and serves thousands of scenario-queries through the engine's
//!   concurrent session pool (worlds deduplicated through the shared
//!   content-addressed cache), reduces every [`arachnet::SessionRun`]
//!   into a [`ResilienceScorecard`], and stamps each result with a
//!   [`ProvenanceRecord`] — scenario content hash, registry epoch,
//!   family id + params hash, fault-plan seed — so a campaign output is
//!   a reproducible artifact, not a number of unknown pedigree.
//!
//! Everything here is deterministic in the campaign spec: byte-identical
//! outcomes, scorecards and provenance at any worker count, with or
//! without a [`chaos::FaultPlan`] installed (the campaign determinism
//! suite pins exactly that at 1/2/8 workers).

pub mod compose;
pub mod ensemble;
pub mod provenance;
pub mod runner;
pub mod scorecard;

pub use compose::ComposedFamily;
pub use ensemble::{CampaignFamily, Distribution, EnsembleDraw, EnsembleSpec};
pub use provenance::ProvenanceRecord;
pub use runner::{CampaignReport, CampaignRunner, CampaignSpec, QueryOutcome};
pub use scorecard::ResilienceScorecard;

// The forge surface campaigns parameterize over, re-exported so a
// campaign definition needs one import.
pub use scenario_forge::{Family, FamilyParams};
