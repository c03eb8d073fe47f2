//! The four closed-loop workloads. Each client thread issues its next
//! call only after the previous one returned, checks every answer
//! against the generator's model, and records each call's latency.

pub mod churn;
pub mod dram;
pub mod embedded;
pub mod grow;

use mem_model::MemStats;

use crate::record::Slice;

/// Everything one measured run produced.
#[derive(Default)]
pub struct RunResult {
    /// Each set-up repetition's length.
    pub setup_s: Vec<f64>,
    pub slices: Vec<Slice>,
    /// Calls issued in the timed phase (a batch call is one call).
    pub attempted: u64,
    /// Refused inserts in the timed phase.
    pub failed: u64,
    /// Inserts attempted in the timed phase (denominator of the refusal
    /// ratio).
    pub inserts: u64,
    /// Keys served in the timed phase (`ops_per_s` numerator).
    pub keys: u64,
    /// `mem_stats()` delta over the timed phase.
    pub mem: MemStats,
    /// RSS growth from before the first table was built to after its
    /// prefill, per live key.
    pub rss_bytes_per_key: f64,
    /// Restart times (`grow_logged` only).
    pub recover_s: Vec<f64>,
    /// Sizes and settings worth printing beside the metrics.
    pub facts: Vec<(&'static str, String)>,
}

/// Set-up repetitions made before the timed phase. The rest of `reps`
/// are made after it, so that `setup_s` samples the machine at both ends
/// of the run.
pub fn reps_before(reps: usize) -> usize {
    (reps / 2).max(1)
}

/// Abort message for a wrong answer: names the seed and op index so the
/// run can be replayed.
pub fn wrong(seed: u64, client: usize, op: u64, what: String) -> String {
    format!("wrong answer: seed {seed}, client {client}, op {op}: {what}")
}

/// The run-level check that a metered phase really metered: a phase
/// that ran lookups must read off-chip memory.
pub fn check_metered(mem: &MemStats, lookups: u64) -> Result<(), String> {
    if lookups > 0 && mem.offchip_reads == 0 {
        return Err(format!(
            "metering check: {lookups} lookups metered zero off-chip reads"
        ));
    }
    Ok(())
}
