//! The traced run: per-layer metrics.
//!
//! A sample of the workload's keys is replayed through progressively
//! fuller public entry points, each call batch wrapped in a span under
//! one root span per round: `BucketFamily::buckets_into` (hashing), then
//! `copy_count` (counter screen and probe, no meter, no obs), then the
//! full `get`; `shard(i).get`, then `ShardedMcCuckoo::get`; single-key
//! `get`, then `lookup_batch`. A layer's self time is the difference
//! between adjacent entry points, taken per round; each figure is the
//! median over rounds. The read the workload itself issues
//! (`McTable::lookup`) is timed on its own, as the whole that the engine
//! layers' self times must add up to.
//!
//! Every workload has both an engine and a sharded fixture: its own
//! table for the one it drives, and a companion holding the same keys
//! (at the same load, at most 2^20 of them) for the other. The growth
//! layers (op log, maintenance, split, recovery) come from one traced
//! `grow_logged` epoch. Metrics of a layer a workload does not run are
//! therefore measured on the companion; read them on the workload the
//! benchmark's documentation names for them.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use hash_kit::{BucketFamily, SplitMix64};
use mccuckoo_core::{McConfig, McCuckoo, McTable, ShardedMcCuckoo, TableStats};
use mem_model::MemStats;

use crate::clock::Stamp;
use crate::hist::tail_quantile;
use crate::keys::{key, sub_seed, MISS};
use crate::record::{median, Budget, Recorder};
use crate::report::{metric, Metric};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{churn, dram, embedded, grow};

/// Keys per sampled batch and per write batch.
const SAMPLE: usize = 2_048;
const WRITES: usize = 512;
/// Keys per `lookup_batch` / `insert_batch` call in the ledger.
const BATCH: usize = 128;
/// Largest engine companion.
const COMPANION_MAX: usize = 1 << 20;
/// Rounds the ledger runs at least and at most.
const MIN_ROUNDS: usize = 7;
const MAX_ROUNDS: usize = 5_000;
/// Pool chunks each round consumes (one per entry point).
const CHUNKS_PER_ROUND: usize = 11;
/// How far the engine layers' summed self times may be from the whole
/// read before the `embedded_read` ledger fails.
const SELF_SUM_TOLERANCE: f64 = 0.10;
/// A pool at least this large is used once, never cycled.
const LARGE_POOL: usize = 1 << 19;

pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub counts: Vec<(String, u64)>,
    pub facts: Vec<(&'static str, String)>,
}

type Sharded = ShardedMcCuckoo<u64, u64>;

/// Stats of a workload's own table over its untraced and traced phases.
#[derive(Default)]
struct PhaseDelta {
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    calls: u64,
    failed: u64,
    kicks: u64,
    insert_calls: u64,
    insert_ok: u64,
}

impl PhaseDelta {
    /// Fold in one phase (untraced or traced) of the workload's own
    /// table: its throughput, its calls and its insert counters.
    fn add(
        &mut self,
        trace: bool,
        rate: f64,
        calls: u64,
        failed: u64,
        before: &TableStats,
        after: &TableStats,
    ) {
        if trace {
            self.traced_ops_per_s = rate;
        } else {
            self.untraced_ops_per_s = rate;
        }
        self.calls += calls;
        self.failed += failed;
        let (b, a) = (&before.ops, &after.ops);
        self.kicks += a.kicks - b.kicks;
        let ok = (a.inserts + a.updates) - (b.inserts + b.updates);
        self.insert_ok += ok;
        self.insert_calls += ok + (a.failed_inserts - b.failed_inserts);
    }
}

fn ops_rate(recs: &[Recorder]) -> f64 {
    let keys: u64 = recs.iter().flat_map(|r| &r.slices).map(|s| s.keys).sum();
    let dur = recs
        .iter()
        .flat_map(|r| &r.slices)
        .map(|s| s.dur_s)
        .fold(0.0, f64::max);
    keys as f64 / dur.max(1e-9)
}

fn absorb_all(tracer: &mut Tracer, recs: &mut [Recorder]) {
    for r in recs {
        if let Some(t) = r.tracer.take() {
            tracer.absorb(t);
        }
    }
}

/// Build an engine companion holding `pairs` at `load`.
fn engine_companion(
    pairs: &[(u64, u64)],
    load: f64,
    seed: u64,
) -> Result<McCuckoo<u64, u64>, String> {
    let buckets = ((pairs.len() as f64 / (3.0 * load)).ceil() as usize).max(64);
    let mut e = embedded::paper_table(buckets, sub_seed(seed, 50));
    for &(k, v) in pairs {
        if !McTable::insert_new(&mut e, k, v).stored() {
            return Err("ledger: engine companion refused a key".into());
        }
    }
    Ok(e)
}

/// Build a 4-shard companion with the engine's total capacity.
fn sharded_companion(pairs: &[(u64, u64)], buckets: usize, seed: u64) -> Result<Sharded, String> {
    let t = Sharded::new(
        4,
        McConfig::paper_with_deletion((buckets / 4).max(16), sub_seed(seed, 51)),
    );
    for &(k, v) in pairs {
        t.insert_new(k, v)
            .map_err(|_| "ledger: sharded companion refused a key".to_string())?;
    }
    Ok(t)
}

/// Median of `f(round)` over rounds.
fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Per-key nanoseconds of each entry point in one round.
#[derive(Clone, Copy)]
struct Round {
    hash: f64,
    find: f64,
    get: f64,
    /// The workload's own read call on the engine (`McTable::lookup`).
    whole: f64,
    route: f64,
    conc_get: f64,
    sharded_get: f64,
    batch_get: f64,
    batch_insert: f64,
    engine_remove: f64,
    engine_insert: f64,
    conc_insert: f64,
}

/// Metered access counts on one table, by op type.
#[derive(Default)]
struct Meter {
    hit: MemStats,
    hits: u64,
    miss: MemStats,
    misses: u64,
    insert: MemStats,
    inserts: u64,
    delete: MemStats,
    deletes: u64,
}

struct Span<'a> {
    tracer: &'a mut Tracer,
    root: u32,
    round: u64,
}

impl Span<'_> {
    /// Time `f` as a child span; returns ns per key.
    fn time(&mut self, name: &'static str, keys: usize, f: impl FnOnce()) -> f64 {
        let t0 = Stamp::now();
        f();
        let t1 = Stamp::now();
        self.tracer.record(name, t0, t1, self.root, self.round);
        (t1 - t0).as_nanos() as f64 / keys.max(1) as f64
    }
}

/// A read call on the engine fixture. The workload's own read (the
/// whole) and the layers timed against it all take this shape.
type EngineRead<'a> = &'a dyn Fn(&McCuckoo<u64, u64>, &u64) -> Option<u64>;

/// Run the ledger rounds over the two fixtures.
#[allow(clippy::too_many_arguments)]
fn rounds(
    engine: &mut McCuckoo<u64, u64>,
    whole: EngineRead,
    sharded: &Sharded,
    pool: &[(u64, u64)],
    seed: u64,
    primary_is_engine: bool,
    budget: Duration,
    tracer: &mut Tracer,
    meter: &mut Meter,
    engine_lookups: &mut u64,
) -> Result<Vec<Round>, String> {
    let cfg = engine.config_snapshot();
    let family = BucketFamily::new(cfg.family, cfg.d, cfg.buckets_per_table, cfg.seed);
    let chunks: Vec<&[(u64, u64)]> = pool.chunks(SAMPLE).filter(|c| c.len() > WRITES).collect();
    // Each entry point reads its own fresh chunk of the pool, so none of
    // them runs on keys a previous one just pulled into the caches. A
    // pool beyond the caches is used once; a small one is cycled, so
    // some entry points would run on keys the one before just read.
    // There the engine reads (find, get and the whole read) share one
    // chunk, each right after a full pass over it, so they all see the
    // same cache state and their differences are the layers' own.
    let large = pool.len() >= LARGE_POOL;
    let max_rounds = if large {
        (chunks.len() / CHUNKS_PER_ROUND).max(MIN_ROUNDS)
    } else {
        MAX_ROUNDS
    };
    let deadline = Stamp::now() + budget;
    let mut out = Vec::new();
    let mut buf = [0usize; 4];
    let xor = |c: &[(u64, u64)]| c.iter().fold(0u64, |a, &(_, v)| a ^ v);
    while out.len() < MIN_ROUNDS || (Stamp::now() < deadline && out.len() < max_rounds) {
        let r = out.len() as u64;
        let chunk = |i: usize| chunks[(out.len() * CHUNKS_PER_ROUND + i) % chunks.len()];
        let misses: Vec<u64> = (0..SAMPLE as u64)
            .map(|j| key(seed, MISS, (1 << 40) + r * SAMPLE as u64 + j))
            .collect();
        let (c_hash, c_find, c_get, c_route, c_conc, c_shard, c_batch, c_ins, c_ew, c_cw) = (
            chunk(0),
            chunk(1),
            chunk(2),
            chunk(3),
            chunk(4),
            chunk(5),
            chunk(6),
            chunk(7),
            &chunk(8)[..WRITES],
            &chunk(9)[..WRITES],
        );
        let (c_get, c_whole) = if large {
            (c_get, chunk(10))
        } else {
            (c_find, c_find)
        };
        let conc_ids: Vec<usize> = c_conc.iter().map(|(k, _)| sharded.shard_of(k)).collect();
        let write_ids: Vec<usize> = c_cw.iter().map(|(k, _)| sharded.shard_of(k)).collect();
        let root = tracer.open("ledger.round", NO_PARENT, r);
        let mut sp = Span {
            tracer,
            root,
            round: r,
        };
        let hash = sp.time("BucketFamily::buckets_into", c_hash.len(), || {
            for (k, _) in c_hash {
                family.buckets_into(k, &mut buf[..cfg.d]);
                black_box(&buf);
            }
        });
        let find_read: EngineRead = &|e, k| Some(u64::from(e.copy_count(k)));
        if !large {
            for (k, _) in c_find {
                black_box(find_read(engine, k));
            }
        }
        let find = sp.time("McCuckoo::copy_count", c_find.len(), || {
            for (k, _) in c_find {
                black_box(find_read(engine, k));
            }
        });
        let e0 = McTable::mem_stats(engine);
        // `get` and the whole read go through the same call shape and
        // swap order every round, so the self-sum check compares the
        // layers, not loop codegen or which loop ran first.
        let get_read: EngineRead = &|e, k| e.get(k).copied();
        let reads = [
            ("McCuckoo::get", c_get, get_read),
            ("McTable::lookup", c_whole, whole),
        ];
        let mut ns = [0.0; 2];
        let mut accs = [0u64; 2];
        for i in 0..2 {
            let j = (i + out.len()) % 2;
            let (name, keys, read) = reads[j];
            let acc = &mut accs[j];
            ns[j] = sp.time(name, keys.len(), || {
                for (k, _) in keys {
                    *acc ^= read(engine, k).unwrap_or(0);
                }
            });
        }
        let ([get, whole_ns], [acc, acc_w]) = (ns, accs);
        let e1 = McTable::mem_stats(engine);
        let mut miss_acc = 0u64;
        sp.time("McCuckoo::get (miss)", misses.len(), || {
            for k in &misses {
                miss_acc |= engine.get(k).copied().unwrap_or(0);
            }
        });
        let e2 = McTable::mem_stats(engine);
        if acc != xor(c_get) || acc_w != xor(c_whole) || miss_acc != 0 {
            return Err(format!(
                "ledger round {r}: an engine read returned a wrong value"
            ));
        }
        *engine_lookups += (c_get.len() + c_whole.len() + misses.len()) as u64;
        let route = sp.time("ShardedMcCuckoo::shard_of", c_route.len(), || {
            for (k, _) in c_route {
                black_box(sharded.shard_of(k));
            }
        });
        let mut acc = 0u64;
        let conc_get = sp.time("ConcurrentMcCuckoo::get", c_conc.len(), || {
            for ((k, _), &id) in c_conc.iter().zip(&conc_ids) {
                acc ^= sharded.shard(id).get(k).unwrap_or(0);
            }
        });
        let s0 = sharded.mem_stats();
        let mut acc2 = 0u64;
        let sharded_get = sp.time("ShardedMcCuckoo::get", c_shard.len(), || {
            for (k, _) in c_shard {
                acc2 ^= sharded.get(k).unwrap_or(0);
            }
        });
        let s1 = sharded.mem_stats();
        let mut miss_acc = 0u64;
        sp.time("ShardedMcCuckoo::get (miss)", misses.len(), || {
            for k in &misses {
                miss_acc |= sharded.get(k).unwrap_or(0);
            }
        });
        let s2 = sharded.mem_stats();
        let mut acc3 = 0u64;
        let batch_get = sp.time("ShardedMcCuckoo::lookup_batch", c_batch.len(), || {
            for part in c_batch.chunks(BATCH) {
                let keys: Vec<u64> = part.iter().map(|p| p.0).collect();
                for v in sharded.lookup_batch(&keys) {
                    acc3 ^= v.unwrap_or(0);
                }
            }
        });
        if acc != xor(c_conc) || acc2 != xor(c_shard) || acc3 != xor(c_batch) || miss_acc != 0 {
            return Err(format!(
                "ledger round {r}: a sharded read returned a wrong value"
            ));
        }
        // Re-writing each key's current value leaves every answer as it was.
        let mut bad = 0usize;
        let batch_insert = sp.time("ShardedMcCuckoo::insert_batch", c_ins.len(), || {
            for part in c_ins.chunks(BATCH) {
                bad += sharded
                    .insert_batch(part)
                    .iter()
                    .filter(|r| **r != Ok(true))
                    .count();
            }
        });
        let e3 = McTable::mem_stats(engine);
        let mut wrong_rm = 0usize;
        let engine_remove = sp.time("McCuckoo::remove", WRITES, || {
            for &(k, v) in c_ew {
                wrong_rm += usize::from(McTable::remove(engine, &k) != Some(v));
            }
        });
        let e4 = McTable::mem_stats(engine);
        let engine_insert = sp.time("McCuckoo::insert_new", WRITES, || {
            for &(k, v) in c_ew {
                bad += usize::from(!McTable::insert_new(engine, k, v).stored());
            }
        });
        let e5 = McTable::mem_stats(engine);
        let s3 = sharded.mem_stats();
        sp.time("ConcurrentMcCuckoo::remove", WRITES, || {
            for (&(k, v), &id) in c_cw.iter().zip(&write_ids) {
                wrong_rm += usize::from(sharded.shard(id).remove(&k) != Some(v));
            }
        });
        let s4 = sharded.mem_stats();
        let conc_insert = sp.time("ConcurrentMcCuckoo::insert_new", WRITES, || {
            for (&(k, v), &id) in c_cw.iter().zip(&write_ids) {
                bad += usize::from(sharded.shard(id).insert_new(k, v).is_err());
            }
        });
        let s5 = sharded.mem_stats();
        if bad > 0 || wrong_rm > 0 {
            return Err(format!(
                "ledger round {r}: {bad} refused write(s), {wrong_rm} wrong remove result(s)"
            ));
        }
        tracer.close(root);
        let (hit, miss, ins, del, hits) = if primary_is_engine {
            (
                e1 - e0,
                e2 - e1,
                e5 - e4,
                e4 - e3,
                c_get.len() + c_whole.len(),
            )
        } else {
            (s1 - s0, s2 - s1, s5 - s4, s4 - s3, c_shard.len())
        };
        meter.hit += hit;
        meter.miss += miss;
        meter.insert += ins;
        meter.delete += del;
        meter.hits += hits as u64;
        meter.misses += misses.len() as u64;
        meter.inserts += WRITES as u64;
        meter.deletes += WRITES as u64;
        out.push(Round {
            hash,
            find,
            get,
            whole: whole_ns,
            route,
            conc_get,
            sharded_get,
            batch_get,
            batch_insert,
            engine_remove,
            engine_insert,
            conc_insert,
        });
    }
    Ok(out)
}

/// The engine read path's layers, each a median over rounds.
struct ReadPath {
    hash: f64,
    find: f64,
    get: f64,
    /// Self times: counter screen and probe, and bookkeeping.
    screen: f64,
    bookkeeping: f64,
    whole: f64,
    /// (hash + screen + bookkeeping) over the separately timed whole.
    self_sum_ratio: f64,
}

fn read_path(rows: &[Round]) -> ReadPath {
    let hash = med(rows, |r| r.hash);
    let find = med(rows, |r| r.find);
    let screen = (find - hash).max(0.0);
    let bookkeeping = med(rows, |r| r.get - r.find).max(0.0);
    let whole = med(rows, |r| r.whole);
    ReadPath {
        hash,
        find,
        get: med(rows, |r| r.get),
        screen,
        bookkeeping,
        whole,
        self_sum_ratio: (hash + screen + bookkeeping) / whole,
    }
}

fn check_self_sum(rp: &ReadPath) -> Result<(), String> {
    if (rp.self_sum_ratio - 1.0).abs() > SELF_SUM_TOLERANCE {
        return Err(format!(
            "ledger check: layer self times sum to {:.3}x the whole read \
             (hash {:.1} + screen {:.1} + bookkeeping {:.1} vs McTable::lookup {:.1} ns)",
            rp.self_sum_ratio, rp.hash, rp.screen, rp.bookkeeping, rp.whole
        ));
    }
    Ok(())
}

/// Cost of one pair of clock reads, in ns (median of five tries).
fn clock_ns() -> f64 {
    const N: u32 = 200_000;
    let tries: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Stamp::now();
            for _ in 0..N {
                let a = Stamp::now();
                black_box(Stamp::now() - a);
            }
            t0.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    median(&tries)
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    out_dir: Option<&Path>,
) -> Result<Ledger, String> {
    let phase_budget = Duration::from_secs_f64(seconds * 0.5);
    let mut tracer = Tracer::new(Stamp::now());
    let mut d = PhaseDelta::default();
    let mut facts: Vec<(&'static str, String)> = vec![("workload", workload.to_string())];

    // The workload's own table, its traced/untraced phases, and the
    // pairs both fixtures will hold.
    let mut engine_own: Option<McCuckoo<u64, u64>> = None;
    let mut sharded_own: Option<Sharded> = None;
    let mut grow_arc = None;
    let pairs: Vec<(u64, u64)>;
    let load: f64;
    let mut traced_epoch = None;
    match workload {
        embedded::NAME => {
            let cfg = embedded::STANDARD;
            let (mut st, _, _) = embedded::setup(&cfg, seed, &embedded::paper_table)?;
            let n = 100_000;
            for trace in [false, true] {
                let s0 = st.table.stats();
                let start = Stamp::now();
                let mut rec = Recorder::new(start, None, trace);
                let c = embedded::run(&mut st, seed, Budget::calls(n), &mut rec)?;
                rec.finish(Stamp::now());
                let rate = ops_rate(std::slice::from_ref(&rec));
                d.add(trace, rate, c.calls, c.failed, &s0, &st.table.stats());
                absorb_all(&mut tracer, std::slice::from_mut(&mut rec));
            }
            pairs = st
                .model
                .iter()
                .filter_map(|&(k, v)| Some((k, v?)))
                .collect();
            load = 0.5;
            engine_own = Some(st.table);
        }
        churn::NAME => {
            let cfg = churn::STANDARD;
            let (mut st, _, _, _) = churn::setup(&cfg, seed)?;
            for trace in [false, true] {
                let s0 = st.table.stats();
                let (mut recs, c) =
                    churn::run_clients(&mut st, &cfg, seed, Budget::calls(50_000), None, trace)?;
                d.add(
                    trace,
                    ops_rate(&recs),
                    c.calls,
                    c.failed,
                    &s0,
                    &st.table.stats(),
                );
                absorb_all(&mut tracer, &mut recs);
            }
            pairs = st
                .parts
                .iter()
                .flat_map(|p| p.model.iter().filter_map(|&(k, v)| Some((k, v?))))
                .take(COMPANION_MAX)
                .collect();
            load = cfg.load;
            sharded_own = Some(st.table);
        }
        dram::NAME => {
            let cfg = dram::STANDARD;
            let (mut st, _, _) = dram::setup(&cfg, seed)?;
            for trace in [false, true] {
                let s0 = st.table.stats();
                let (mut recs, c) =
                    dram::run_clients(&mut st, &cfg, Budget::calls(1_500), None, trace)?;
                d.add(
                    trace,
                    ops_rate(&recs),
                    c.calls,
                    c.failed,
                    &s0,
                    &st.table.stats(),
                );
                absorb_all(&mut tracer, &mut recs);
            }
            let per = COMPANION_MAX / cfg.clients;
            pairs = (0..cfg.clients)
                .flat_map(|t| {
                    let st = &st;
                    (0..per).map(move |j| {
                        let k = st.key_of(t, j);
                        (k, crate::keys::value(k, u64::from(st.versions[t][j])))
                    })
                })
                .collect();
            load = cfg.load;
            facts.push(("engine_companion_keys", pairs.len().to_string()));
            sharded_own = Some(st.table);
        }
        grow::NAME => {
            let cfg = grow::standard();
            let plain = grow::epoch(&cfg, seed, 1, false)?;
            let traced = grow::epoch(&cfg, seed, 2, true)?;
            for (e, trace) in [(&plain, false), (&traced, true)] {
                let rate = e.slice.keys as f64 / e.slice.dur_s;
                let fresh = TableStats::default();
                d.add(
                    trace,
                    rate,
                    e.writes + e.reads,
                    e.failed,
                    &fresh,
                    &e.table.stats(),
                );
            }
            pairs = (0..cfg.keys.min(COMPANION_MAX as u64))
                .map(|i| {
                    let k = key(seed, crate::keys::LIVE, i);
                    (k, crate::keys::value(k, 0))
                })
                .collect();
            load = 0.5;
            grow_arc = Some(traced.table.clone());
            traced_epoch = Some(traced);
        }
        other => return Err(format!("unknown workload {other}")),
    }

    // The other fixture.
    let primary_is_engine = engine_own.is_some();
    let mut engine = match engine_own {
        Some(e) => e,
        None => engine_companion(&pairs, load, seed)?,
    };
    let companion_sharded;
    let sharded: &Sharded = match (&sharded_own, &grow_arc) {
        (Some(s), _) => s,
        (None, Some(g)) => g,
        (None, None) => {
            companion_sharded = sharded_companion(&pairs, engine.buckets_per_table(), seed)?;
            &companion_sharded
        }
    };

    // The key pool, shuffled so consecutive probes are unrelated.
    let mut pool = pairs;
    let mut rng = SplitMix64::new(sub_seed(seed, 60));
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.next_below(i as u64 + 1) as usize);
    }

    let mut meter = Meter::default();
    let mut engine_lookups = 0u64;
    let st0 = engine.stats();
    let m0 = McTable::mem_stats(&engine);
    let pm0 = if primary_is_engine {
        m0
    } else {
        sharded.mem_stats()
    };
    let rows = rounds(
        &mut engine,
        &|e, k| McTable::lookup(e, k),
        sharded,
        &pool,
        seed,
        primary_is_engine,
        phase_budget,
        &mut tracer,
        &mut meter,
        &mut engine_lookups,
    )?;
    let st1 = engine.stats();
    let m1 = McTable::mem_stats(&engine);
    let pm1 = if primary_is_engine {
        m1
    } else {
        sharded.mem_stats()
    };
    let metered_ops = meter.hits + meter.misses + meter.inserts + meter.deletes;

    // Growth layers from a traced epoch.
    let epoch = match traced_epoch {
        Some(e) => e,
        None => grow::epoch(&grow::standard(), seed, 3, true)?,
    };
    let snap_ns = median(
        &(0..3)
            .map(|_| {
                let t0 = Stamp::now();
                black_box(epoch.table.snapshot_live());
                t0.elapsed().as_nanos() as f64
            })
            .collect::<Vec<_>>(),
    );
    let record_ns: Vec<f64> = epoch
        .tracer
        .as_ref()
        .map(|t| {
            t.spans()
                .iter()
                .filter(|s| s.name == "OpLog::record")
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect()
        })
        .unwrap_or_default();
    let mut ticks: Vec<f64> = epoch.tick_ns.iter().map(|&t| t as f64).collect();
    ticks.sort_by(f64::total_cmp);
    let split_q = tail_quantile(epoch.reader_during_split.count()).unwrap_or(0.5);

    // Occupancy and hot-shard share of the sharded fixture.
    let ss = sharded.stats();
    let loads: Vec<f64> = ss
        .shards
        .iter()
        .map(|s| s.len as f64 / s.capacity.max(1) as f64)
        .collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let shard_ops: Vec<u64> = ss
        .shards
        .iter()
        .map(|s| {
            let o = s.ops;
            o.inserts
                + o.updates
                + o.failed_inserts
                + o.lookup_hits
                + o.lookup_misses
                + o.removes
                + o.remove_misses
        })
        .collect();
    let total_ops: u64 = shard_ops.iter().sum();

    let rp = read_path(&rows);
    let conc_get = med(&rows, |r| r.conc_get);
    let sharded_get = med(&rows, |r| r.sharded_get);
    let batch_get = med(&rows, |r| r.batch_get);
    let per = |m: &MemStats, f: fn(&MemStats) -> u64, n: u64| f(m) as f64 / n.max(1) as f64;
    let onchip = pm1 - pm0;
    let clock = clock_ns();

    let metrics = vec![
        metric("hash.ns_per_key", rp.hash, "ns"),
        metric("engine.find_ns", rp.find, "ns"),
        metric("engine.get_ns", rp.get, "ns"),
        metric("engine.bookkeeping_ns", rp.bookkeeping, "ns"),
        metric("engine.lookup_ns", rp.whole, "ns"),
        metric("engine.self_sum_ratio", rp.self_sum_ratio, "ratio"),
        metric(
            "engine.probes_per_lookup",
            (st1.probe_hist.sum - st0.probe_hist.sum) as f64
                / (st1.probe_hist.count - st0.probe_hist.count).max(1) as f64,
            "count",
        ),
        metric("engine.insert_ns", med(&rows, |r| r.engine_insert), "ns"),
        metric("engine.remove_ns", med(&rows, |r| r.engine_remove), "ns"),
        metric(
            "mem.offchip_reads_per_hit",
            per(&meter.hit, |m| m.offchip_reads, meter.hits),
            "count",
        ),
        metric(
            "mem.offchip_reads_per_miss",
            per(&meter.miss, |m| m.offchip_reads, meter.misses),
            "count",
        ),
        metric(
            "mem.offchip_reads_per_insert",
            per(&meter.insert, |m| m.offchip_reads, meter.inserts),
            "count",
        ),
        metric(
            "mem.offchip_writes_per_insert",
            per(&meter.insert, |m| m.offchip_writes, meter.inserts),
            "count",
        ),
        metric(
            "mem.offchip_writes_per_delete",
            per(&meter.delete, |m| m.offchip_writes, meter.deletes),
            "count",
        ),
        metric(
            "mem.onchip_reads_per_op",
            per(&onchip, |m| m.onchip_reads, metered_ops),
            "count",
        ),
        metric("stash.len", engine.stash_len() as f64, "count"),
        metric(
            "stash.visits_per_lookup",
            per(&(m1 - m0), |m| m.stash_visits, engine_lookups),
            "count",
        ),
        metric(
            "kick.kicks_per_insert",
            d.kicks as f64 / d.insert_calls.max(1) as f64,
            "count",
        ),
        metric(
            "kick.insert_success_ratio",
            if d.insert_calls == 0 {
                1.0
            } else {
                d.insert_ok as f64 / d.insert_calls as f64
            },
            "ratio",
        ),
        metric("concurrent.get_ns", conc_get, "ns"),
        metric("concurrent.insert_ns", med(&rows, |r| r.conc_insert), "ns"),
        metric("shard.route_ns", med(&rows, |r| r.route), "ns"),
        metric("shard.overhead_ns", sharded_get - conc_get, "ns"),
        metric(
            "shard.occupancy_skew",
            loads.iter().copied().fold(0.0, f64::max) / mean_load.max(1e-12),
            "ratio",
        ),
        metric(
            "shard.hottest_share",
            shard_ops.iter().copied().max().unwrap_or(0) as f64 / total_ops.max(1) as f64,
            "ratio",
        ),
        metric("batch.lookup_ns_per_key", batch_get, "ns"),
        metric("batch.single_get_ns", sharded_get, "ns"),
        metric("batch.speedup", sharded_get / batch_get, "ratio"),
        metric(
            "batch.insert_ns_per_key",
            med(&rows, |r| r.batch_insert),
            "ns",
        ),
        metric("oplog.record_ns", median(&record_ns), "ns"),
        metric(
            "oplog.bytes_per_record",
            epoch.log_bytes as f64 / epoch.log_records.max(1) as f64,
            "B",
        ),
        metric("maint.tick_ns_p50", median(&ticks), "ns"),
        metric(
            "maint.tick_ns_max",
            ticks.last().copied().unwrap_or(0.0),
            "ns",
        ),
        metric("maint.compactions", epoch.compactions as f64, "count"),
        metric("maint.snapshot_ns", snap_ns, "ns"),
        metric(
            "split.begin_split_ms",
            epoch.split_ns.iter().sum::<u64>() as f64 / 1e6 / epoch.split_ns.len().max(1) as f64,
            "ms",
        ),
        metric(
            "split.keys_moved",
            epoch.split_moved.iter().sum::<u64>() as f64 / epoch.split_moved.len().max(1) as f64,
            "count",
        ),
        metric(
            "split.forwarding_hits_per_lookup",
            epoch.forwarding_hits as f64 / epoch.reads.max(1) as f64,
            "count",
        ),
        metric(
            "split.reader_p99_during_split_ns",
            epoch.reader_during_split.quantile(split_q).unwrap_or(0.0),
            "ns",
        ),
        metric("recover.parse_s", epoch.recovery.parse_s, "s"),
        metric("recover.replay_s", epoch.recovery.replay_s, "s"),
        metric(
            "recover.records_replayed",
            epoch.recovery.records as f64,
            "count",
        ),
        metric("bench.clock_ns", clock, "ns"),
        metric(
            "bench.trace_overhead",
            d.untraced_ops_per_s / d.traced_ops_per_s,
            "ratio",
        ),
    ];

    // ROADMAP item 1's acceptance check: on the workload that runs the
    // full engine, the layer self times must add up to the read the
    // workload issues, timed on its own.
    if workload == embedded::NAME {
        check_self_sum(&rp)?;
    }

    if let Some(t) = epoch.tracer {
        tracer.absorb(t);
    }
    if let Some(dir) = out_dir {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.csv"));
        fs::write(&path, tracer.to_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        facts.push(("spans_file", path.display().to_string()));
    }
    facts.push(("ledger_rounds", rows.len().to_string()));
    facts.push(("pool_keys", pool.len().to_string()));
    facts.push(("split_tail_quantile", format!("{split_q}")));
    let counts = vec![
        ("spans".to_owned(), tracer.spans().len() as u64),
        ("ledger_rounds".to_owned(), rows.len() as u64),
        ("ledger_keys_per_round".to_owned(), SAMPLE as u64),
        ("phase_calls".to_owned(), d.calls),
        (
            "reader_during_split".to_owned(),
            epoch.reader_during_split.count(),
        ),
        ("ticks".to_owned(), epoch.tick_ns.len() as u64),
        ("splits".to_owned(), epoch.split_ns.len() as u64),
        ("oplog_records".to_owned(), record_ns.len() as u64),
    ];
    Ok(Ledger {
        attempted: d.calls,
        failed: d.failed,
        metrics,
        counts,
        facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{value, LIVE};

    /// The ledger rounds on a small engine fixture, with `whole` as the
    /// workload's read call; returns the engine read path.
    fn read_path_with(whole: EngineRead) -> ReadPath {
        let seed = 3;
        let pairs: Vec<(u64, u64)> = (0..24_576)
            .map(|i| {
                let k = key(seed, LIVE, i);
                (k, value(k, 0))
            })
            .collect();
        let mut engine = engine_companion(&pairs, 0.5, seed).expect("engine");
        let sharded = sharded_companion(&pairs, engine.buckets_per_table(), seed).expect("sharded");
        let mut tracer = Tracer::new(Stamp::now());
        let rows = rounds(
            &mut engine,
            whole,
            &sharded,
            &pairs,
            seed,
            true,
            Duration::from_millis(500),
            &mut tracer,
            &mut Meter::default(),
            &mut 0,
        )
        .expect("rounds");
        read_path(&rows)
    }

    #[test]
    fn the_engine_layers_add_up_to_the_whole_read() {
        let rp = read_path_with(&|e, k| McTable::lookup(e, k));
        check_self_sum(&rp).expect("plain McTable::lookup");
    }

    #[test]
    fn an_unmeasured_layer_in_the_whole_read_fails_the_check() {
        // A wrapper that does about a lookup's worth of work of its own
        // before each read: a layer none of the engine spans covers.
        let rp = read_path_with(&|e, k| {
            let mut x = *k;
            for _ in 0..64 {
                x = black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
            }
            McTable::lookup(e, &k.wrapping_add(x.wrapping_sub(black_box(x))))
        });
        assert!(
            check_self_sum(&rp).is_err(),
            "sum {:.3}x of the whole read passed",
            rp.self_sum_ratio
        );
    }
}
