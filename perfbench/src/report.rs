//! Turning a run into named metrics, and printing them.

use std::fmt::Write as _;

use crate::machine::Machine;
use crate::record::{median, summarize, Lat};
use crate::workload::RunResult;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The end-to-end metrics of one run.
pub struct EndToEnd {
    /// The metrics the result line carries, as `BENCHMARK.json` lists them.
    pub gated: Vec<Metric>,
    /// Shown to the reader but not gated: zero by design on every
    /// workload (refusals), or measured on one workload only (restart).
    pub shown: Vec<Metric>,
    /// Latency summaries, for sample counts and the percentile reported.
    pub read: Lat,
    pub write: Lat,
}

pub fn end_to_end(r: &RunResult) -> EndToEnd {
    let s = summarize(&r.slices);
    let per_key = |n: u64| n as f64 / r.keys.max(1) as f64;
    let gated = vec![
        metric("setup_s", median(&r.setup_s), "s"),
        metric("ops_per_s", s.ops_per_s, "keys/s"),
        metric("read_p50_ns", s.read.p50, "ns"),
        metric("read_p99_ns", s.read.tail, "ns"),
        metric("write_p50_ns", s.write.p50, "ns"),
        metric("write_p99_ns", s.write.tail, "ns"),
        metric(
            "offchip_reads_per_op",
            per_key(r.mem.offchip_reads),
            "count",
        ),
        metric(
            "offchip_writes_per_op",
            per_key(r.mem.offchip_writes),
            "count",
        ),
        metric("rss_bytes_per_key", r.rss_bytes_per_key, "B"),
    ];
    let mut shown = vec![metric(
        "failed_op_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    )];
    if !r.recover_s.is_empty() {
        shown.push(metric("recover_s", median(&r.recover_s), "s"));
    }
    EndToEnd {
        gated,
        shown,
        read: s.read,
        write: s.write,
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The run record: machine, revision, seed and every sample count.
#[allow(clippy::too_many_arguments)]
pub fn record_line(
    machine: &Machine,
    git_sha: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts: &[(String, u64)],
    facts: &[(&'static str, String)],
) -> String {
    let counts: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"git_sha\": {}, \"nproc\": {}, \"cpu_model\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \
         \"samples\": {{{}}}, \"facts\": {{{}}}}}}}",
        json_str(workload),
        json_str(git_sha),
        machine.nproc,
        json_str(&machine.cpu_model),
        machine.l2_bytes,
        machine.l3_bytes,
        counts.join(", "),
        facts.join(", ")
    )
}

/// Human-readable table of every metric.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("#   {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}
