//! The two checks: the manifest-graph closure and the line scan.

pub mod closure;
pub mod lines;
