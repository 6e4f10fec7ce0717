//! The repository benchmark: five workloads that drive the program through
//! its public API, the metrics they report, bench-side tracing, and the
//! statistics `compare` judges run sets by. The `dbpc-benchmark` binary is
//! the command line over these; see README.md.

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

/// A run's measured window when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`, which `tests/spec_sync.rs` keeps equal to this.
pub const RUN_SECONDS: f64 = 18.0;
