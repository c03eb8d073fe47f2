//! The McCuckoo benchmark: four closed-loop workloads driven through
//! the public table API, and a per-layer ledger for the traced run.

pub mod clock;
pub mod cpus;
pub mod hist;
pub mod keys;
pub mod ledger;
pub mod machine;
pub mod record;
pub mod report;
pub mod trace;
pub mod workload;
