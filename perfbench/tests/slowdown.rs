//! An injected slowdown is caught by the gate's own rule: a metric
//! regressed when the median of the change's runs is worse than the
//! median of the base's runs by more than the metric's bound in
//! `BENCHMARK.json`, in the direction the file gives.
//!
//! A wrapper table delays one call type by a busy loop nominally four
//! times that call's latency (the processor overlaps much of it with the
//! call), and the runs go through `embedded::measure`, the code the
//! benchmark runs. The bounds are 0.25, so a 20% slowdown of one layer
//! is below what the gate resolves; this test checks that a slowdown
//! past the bound is flagged on the metrics of the delayed call type and
//! on none of the other's, and that two unchanged tables flag nothing.

use std::collections::BTreeMap;
use std::hint::black_box;

use mccuckoo_core::{McCuckoo, McTable, TableStats};
use mem_model::{InsertReport, MemStats};
use perfbench::clock::Stamp;
use perfbench::record::median;
use perfbench::report::end_to_end;
use perfbench::workload::embedded::{self, Cfg};

const CFG: Cfg = Cfg {
    buckets: 8_192,
    live: 12_288,
    warm_passes: 4,
    setup_reps: 2,
};
/// Timed seconds of one run, and runs per side, base and change
/// alternating. On a shared 2-vCPU host, single runs of identical code
/// differ by up to a third, so the medians need many long runs: with five
/// runs of 0.5 s, or nine of 0.3 s, untouched latencies sometimes read
/// 25–31% worse, past the bound.
const RUN_S: f64 = 1.0;
const RUNS: usize = 9;
/// Nominal delay, in multiples of the delayed call's p50.
const DELAY_FACTOR: f64 = 4.0;

/// Busy work whose result the delayed call's key depends on, so the
/// processor cannot overlap the delay with the call itself.
#[inline(never)]
fn spin(iters: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..iters {
        x = black_box(x.wrapping_add(i));
    }
    x
}

/// `key`, made data-dependent on `iters` of busy work.
fn delayed(key: u64, iters: u64) -> u64 {
    let x = spin(iters);
    key.wrapping_add(x.wrapping_sub(black_box(x)))
}

/// Spin iterations per nanosecond, timed through `delayed` itself.
fn iters_per_ns() -> f64 {
    const ITERS: u64 = 256;
    let t0 = Stamp::now();
    let mut acc = 0u64;
    for k in 0..100_000u64 {
        acc = delayed(acc ^ k, ITERS);
    }
    black_box(acc);
    (100_000 * ITERS) as f64 / t0.elapsed().as_nanos() as f64
}

/// The paper's table with a fixed busy delay in front of one call type.
struct Slow {
    inner: McCuckoo<u64, u64>,
    read_iters: u64,
    write_iters: u64,
}

impl McTable<u64, u64> for Slow {
    fn insert(&mut self, key: u64, value: u64) -> InsertReport {
        McTable::insert(&mut self.inner, delayed(key, self.write_iters), value)
    }
    fn insert_new(&mut self, key: u64, value: u64) -> InsertReport {
        McTable::insert_new(&mut self.inner, delayed(key, self.write_iters), value)
    }
    fn lookup(&self, key: &u64) -> Option<u64> {
        McTable::lookup(&self.inner, &delayed(*key, self.read_iters))
    }
    fn remove(&mut self, key: &u64) -> Option<u64> {
        McTable::remove(&mut self.inner, &delayed(*key, self.write_iters))
    }
    fn clear(&mut self) {
        McTable::clear(&mut self.inner)
    }
    fn len(&self) -> usize {
        McTable::len(&self.inner)
    }
    fn capacity(&self) -> usize {
        McTable::capacity(&self.inner)
    }
    fn stash_len(&self) -> usize {
        McTable::stash_len(&self.inner)
    }
    fn mem_stats(&self) -> MemStats {
        McTable::mem_stats(&self.inner)
    }
    fn stats(&self) -> TableStats {
        McTable::stats(&self.inner)
    }
}

/// Metric → (bound, lower is better), from `BENCHMARK.json`'s
/// `end_to_end` entries (one per line).
fn gate() -> BTreeMap<String, (f64, bool)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let field = |line: &str, name: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{name}\": "))? + name.len() + 4..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_owned())
    };
    let gate: BTreeMap<String, (f64, bool)> = text
        .lines()
        .filter_map(|line| {
            let bound = field(line, "bound")?.parse().expect("bound");
            Some((
                field(line, "name")?,
                (bound, field(line, "better")? == "lower"),
            ))
        })
        .collect();
    assert!(gate.contains_key("read_p50_ns") && gate.contains_key("write_p50_ns"));
    gate
}

/// Gated metrics of one measured run. Set-up time and memory are left
/// out: set-up here is a few milliseconds, and later tables in one
/// process reuse the memory earlier ones freed.
fn one_run(seed: u64, read_iters: u64, write_iters: u64) -> BTreeMap<String, f64> {
    let make = |buckets, seed| Slow {
        inner: embedded::paper_table(buckets, seed),
        read_iters,
        write_iters,
    };
    let r = embedded::measure(&CFG, seed, RUN_S, &make).expect("measure");
    end_to_end(&r)
        .gated
        .into_iter()
        .filter(|m| m.name != "setup_s" && m.name != "rss_bytes_per_key")
        .map(|m| (m.name, m.value))
        .collect()
}

/// Alternate base and changed runs; `delay` is the changed side's (read,
/// write) spin count. Returns the flagged metrics and each metric's
/// relative change of medians.
fn compare(delay: (u64, u64)) -> (Vec<String>, BTreeMap<String, f64>) {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    for run in 0..RUNS {
        let seed = 20 + run as u64;
        if run % 2 == 0 {
            base.push(one_run(seed, 0, 0));
            change.push(one_run(seed, delay.0, delay.1));
        } else {
            change.push(one_run(seed, delay.0, delay.1));
            base.push(one_run(seed, 0, 0));
        }
    }
    let gate = gate();
    let mut flags = Vec::new();
    let mut moved = BTreeMap::new();
    for name in base[0].keys() {
        let (bound, lower_is_better) = gate[name];
        let b = median(&base.iter().map(|m| m[name]).collect::<Vec<_>>());
        let c = median(&change.iter().map(|m| m[name]).collect::<Vec<_>>());
        let worse = if lower_is_better {
            (c - b) / b
        } else {
            (b - c) / b
        };
        if worse > bound {
            flags.push(name.clone());
        }
        moved.insert(name.clone(), worse);
    }
    (flags, moved)
}

#[test]
fn a_slowdown_past_the_bound_is_flagged_on_its_call_type_only() {
    let rate = iters_per_ns();
    let probe = one_run(4, 0, 0);
    let read_delay = (DELAY_FACTOR * probe["read_p50_ns"] * rate) as u64;
    let write_delay = (DELAY_FACTOR * probe["write_p50_ns"] * rate) as u64;
    let has = |flags: &[String], m: &str| flags.iter().any(|f| f == m);

    let (flags, moved) = compare((read_delay, 0));
    for m in ["read_p50_ns", "ops_per_s"] {
        assert!(has(&flags, m), "slow lookups: {m} not flagged ({moved:?})");
    }
    for m in [
        "write_p50_ns",
        "offchip_reads_per_op",
        "offchip_writes_per_op",
    ] {
        assert!(!has(&flags, m), "slow lookups: {m} flagged ({moved:?})");
    }

    let (flags, moved) = compare((0, write_delay));
    assert!(
        has(&flags, "write_p50_ns"),
        "slow writes: write_p50_ns not flagged ({moved:?})"
    );
    for m in [
        "read_p50_ns",
        "read_p99_ns",
        "offchip_reads_per_op",
        "offchip_writes_per_op",
    ] {
        assert!(!has(&flags, m), "slow writes: {m} flagged ({moved:?})");
    }

    let (flags, moved) = compare((0, 0));
    assert!(
        flags.is_empty(),
        "unchanged tables flagged {flags:?} ({moved:?})"
    );
}
