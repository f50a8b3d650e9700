//! The repository benchmark: end-to-end and per-layer metrics of the
//! token-dropping workspace.
//!
//! One command runs one named workload for a fixed time and prints every
//! metric by name with its unit, then a one-line JSON result. Outputs are
//! checked on every run (final verification, traced-replay fingerprints,
//! the sequential reference); a failed check or operation shows in the
//! result's `failed` count and `correct` flag, never as a crash. See
//! `README.md` in this directory for the workloads and the metric map.

pub mod report;
pub mod spans;
pub mod workloads;

pub use report::{Mode, Report, METRICS};
pub use spans::Tracer;
pub use workloads::{run, Outcome, Plan, RunConfig, Workload};
