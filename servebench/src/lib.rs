//! `servebench` — the repository's end-to-end serving benchmark.
//!
//! The `servebench` binary starts the real `drec_sched::MultiServeRuntime`
//! and drives it open-loop with one of three seeded workloads; `compare`
//! judges two sets of its results. This library holds what both share and
//! what the unit tests check: the workloads, the statistics, the run
//! header and a small JSON reader and writer.

pub mod compare;
pub mod header;
pub mod json;
pub mod stats;
pub mod workload;
