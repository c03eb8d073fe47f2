//! `grow_logged`: a logged, growing `ShardedMcCuckoo` with inline
//! maintenance and a concurrent reader.
//!
//! The run is a sequence of identical epochs, so its figures do not
//! depend on how long it lasts. An epoch starts a 2-shard table and one
//! writer thread inserts a fixed key set into it, recording every
//! mutation through an in-memory `OpLog<VecSink>` (never flushed). The
//! writer calls `begin_split` when a shard crosses a fixed load, and
//! `Maintainer::tick` on a fixed insert cadence, which compacts the log
//! and takes managed snapshots. One reader thread runs lookups of
//! published keys (and absent ones) the whole time, paced to eight per
//! published insert so that every epoch has the same op mix. After each
//! epoch the table is recovered from its latest managed snapshot plus the
//! log tail and compared with the live table key by key. Writer and
//! reader swap CPUs every quarter second (`cpus::Rotor`), so the writer,
//! which sets the pace, samples every CPU.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hash_kit::SplitMix64;
use mccuckoo_core::oplog::{parse_log, LogSink, OpLog, OpRecord, VecSink};
use mccuckoo_core::{MaintConfig, Maintainer, McConfig, ShardedMcCuckoo};
use mem_model::MemStats;

use super::{check_metered, reps_before, wrong, RunResult};
use crate::clock::Stamp;
use crate::cpus::Rotor;
use crate::hist::LatHist;
use crate::keys::{key, sub_seed, value, LIVE, MISS};
use crate::machine::rss_bytes;
use crate::record::{Recorder, Slice};
use crate::trace::{Tracer, NO_PARENT};

pub const NAME: &str = "grow_logged";

type Table = ShardedMcCuckoo<u64, u64>;

/// A traced epoch records the spans of every this-many-th insert (and
/// none of the reader's), which keeps its span file to a few MiB.
const TRACE_EVERY: u64 = 8;

#[derive(Clone, Debug)]
pub struct Cfg {
    pub start_shards: usize,
    /// Buckets per hash function of every shard (3 functions).
    pub buckets: usize,
    /// A shard is split once its load reaches this.
    pub split_at: f64,
    /// Keys inserted per epoch.
    pub keys: u64,
    /// Inserts between two `Maintainer::tick` calls.
    pub tick_every: u64,
    pub maint: MaintConfig,
    /// Reader lookups per writer insert.
    pub reads_per_write: u64,
    pub miss_permille: u64,
    pub setup_reps: usize,
}

/// Shards of 3 × 4096 slots (about 400 KiB each) split at 75% load; an
/// epoch inserts 100k keys and ends with 16 tables (about 6 MiB: beyond
/// L2, inside L3).
pub fn standard() -> Cfg {
    Cfg {
        start_shards: 2,
        buckets: 4_096,
        split_at: 0.75,
        keys: 100_000,
        tick_every: 1_024,
        maint: MaintConfig {
            snapshot_every: 16,
            retain: 2,
            compact_watermark: 32_768,
            ..MaintConfig::default()
        },
        reads_per_write: 8,
        miss_permille: 100,
        setup_reps: 10,
    }
}

/// Recovery timings of one epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Recovery {
    pub parse_s: f64,
    pub replay_s: f64,
    pub records: usize,
}

/// Everything one epoch produced.
pub struct Epoch {
    pub slice: Slice,
    pub writes: u64,
    pub reads: u64,
    pub failed: u64,
    pub mem: MemStats,
    pub tick_ns: Vec<u64>,
    pub split_ns: Vec<u64>,
    pub split_moved: Vec<u64>,
    /// Reader latencies while a split was in flight.
    pub reader_during_split: LatHist,
    pub forwarding_hits: u64,
    pub compactions: u64,
    pub log_records: u64,
    pub log_bytes: u64,
    pub recovery: Recovery,
    /// RSS growth over the epoch's build and writes.
    pub rss_growth: u64,
    /// Spans of sampled writer inserts (traced epochs only).
    pub tracer: Option<Tracer>,
    pub table: Arc<Table>,
}

#[derive(Default)]
struct WriterOut {
    failed: u64,
    tick_ns: Vec<u64>,
    split_ns: Vec<u64>,
    split_moved: Vec<u64>,
}

fn split(
    table: &Table,
    log: &OpLog<VecSink>,
    shard: usize,
    splitting: &AtomicBool,
    out: &mut WriterOut,
) -> Result<(), String> {
    splitting.store(true, Ordering::Relaxed);
    let t0 = Stamp::now();
    let rep = table.begin_split(shard);
    let ns = t0.elapsed().as_nanos() as u64;
    splitting.store(false, Ordering::Relaxed);
    let rep = rep.map_err(|e| format!("begin_split({shard}) failed: {e:?}"))?;
    log.record(&OpRecord::<u64, u64>::Split { shard });
    out.split_ns.push(ns);
    out.split_moved.push(rep.moved);
    Ok(())
}

/// One epoch; `id` picks the reader's random stream.
pub fn epoch(cfg: &Cfg, seed: u64, id: u64, trace: bool) -> Result<Epoch, String> {
    let rss0 = rss_bytes();
    let table = Arc::new(Table::new(
        cfg.start_shards,
        McConfig::paper_with_deletion(cfg.buckets, sub_seed(seed, 40)),
    ));
    let sink = VecSink::new();
    let log = OpLog::new(sink.clone());
    let mut maint = Maintainer::new(table.clone(), sink.clone(), cfg.maint.clone());
    let published = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let splitting = AtomicBool::new(false);
    let start = Stamp::now();

    let (writer, reader, end) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut rec = Recorder::new(start, None, false);
            let mut during = LatHist::new();
            let mut rng = SplitMix64::new(sub_seed(seed, 400 + id));
            let mut op = 0u64;
            let mut rotor = Rotor::new(start, 1);
            // Paced to the writer: at most `reads_per_write` lookups per
            // published insert, so every epoch runs the same op mix.
            while op < cfg.keys * cfg.reads_per_write {
                let n = published.load(Ordering::Acquire);
                if op >= n * cfg.reads_per_write && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                    rotor.tick(Stamp::now());
                    continue;
                }
                let (k, want) = if n == 0 || rng.next_below(1000) < cfg.miss_permille {
                    (key(seed, MISS, rng.next_u64() >> 9), None)
                } else {
                    let k = key(seed, LIVE, rng.next_below(n));
                    (k, Some(value(k, 0)))
                };
                let in_split = splitting.load(Ordering::Relaxed);
                let t0 = Stamp::now();
                let got = table.get(&k);
                let t1 = Stamp::now();
                rec.read("ShardedMcCuckoo::get", t0, t1, 1, op);
                rotor.tick(t1);
                if in_split {
                    during.record((t1 - t0).as_nanos() as u64);
                }
                if got != want {
                    return Err(wrong(
                        seed,
                        1,
                        op,
                        format!("get({k:#x}) = {got:?}, expected {want:?}"),
                    ));
                }
                op += 1;
            }
            rec.finish(Stamp::now());
            Ok((rec, during, op))
        });
        let writer = (|| -> Result<(Recorder, WriterOut), String> {
            let mut rec = Recorder::new(start, None, false);
            let mut tracer = trace.then(|| Tracer::new(start));
            let mut out = WriterOut::default();
            let mut rotor = Rotor::new(start, 0);
            for i in 0..cfg.keys {
                let k = key(seed, LIVE, i);
                let v = value(k, 0);
                let t0 = Stamp::now();
                let root = tracer
                    .as_mut()
                    .filter(|_| i % TRACE_EVERY == 0)
                    .map(|t| t.record("grow.logged_insert", t0, t0, NO_PARENT, i));
                let mut refusals = 0;
                loop {
                    let a = Stamp::now();
                    let res = table.insert_new(k, v);
                    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                        t.record("ShardedMcCuckoo::insert_new", a, Stamp::now(), r, i);
                    }
                    if res.is_ok() {
                        break;
                    }
                    out.failed += 1;
                    refusals += 1;
                    if refusals > 3 {
                        return Err(format!(
                            "insert of {k:#x} refused {refusals} times despite splits"
                        ));
                    }
                    split(&table, &log, table.shard_of(&k), &splitting, &mut out)?;
                }
                let a = Stamp::now();
                log.record(&OpRecord::Insert { key: k, value: v });
                if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                    t.record("OpLog::record", a, Stamp::now(), r, i);
                }
                published.store(i + 1, Ordering::Release);
                let sid = table.shard_of(&k);
                let shard = table.shard(sid);
                if shard.len() as f64 >= cfg.split_at * shard.capacity() as f64 {
                    let a = Stamp::now();
                    split(&table, &log, sid, &splitting, &mut out)?;
                    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                        t.record("ShardedMcCuckoo::begin_split", a, Stamp::now(), r, i);
                    }
                }
                if (i + 1) % cfg.tick_every == 0 {
                    let a = Stamp::now();
                    maint.tick();
                    let b = Stamp::now();
                    out.tick_ns.push((b - a).as_nanos() as u64);
                    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                        t.record("Maintainer::tick", a, b, r, i);
                    }
                }
                let t1 = Stamp::now();
                rec.write("grow.logged_insert", t0, t1, 1, i);
                rotor.tick(t1);
                if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                    t.set_end(r, t1);
                }
            }
            rec.finish(Stamp::now());
            if let Some(t) = tracer {
                rec.tracer = Some(t);
            }
            Ok((rec, out))
        })();
        stop.store(true, Ordering::Relaxed);
        let reader = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (writer, reader, Stamp::now())
    });
    // Table, log and snapshot ring, before recovery allocates anything.
    let rss_growth = rss_bytes().saturating_sub(rss0);
    let (mut wrec, wout) = writer?;
    let (rrec, during, reads) = reader?;

    let mut slice = wrec.slices.pop().expect("one slice");
    let rslice = &rrec.slices[0];
    slice.read.merge(&rslice.read);
    slice.keys += rslice.keys;
    slice.dur_s = (end - start).as_secs_f64();

    let stats = table.stats();
    let mem = table.mem_stats();
    let log_records = stats.maint.records_truncated + sink.record_count() as u64;
    let log_bytes = stats.maint.bytes_truncated + sink.byte_len();

    // Durability: the latest managed snapshot plus the log tail must
    // rebuild the live table exactly.
    let ms = maint
        .latest_snapshot()
        .ok_or("durability check: no managed snapshot was taken")?;
    let offset = ms
        .tail_offset(sink.first_record_index())
        .ok_or("durability check: the log was truncated past the latest snapshot")?;
    let snapshot = ms.snapshot.clone();
    let t0 = Stamp::now();
    let lines = sink.lines();
    let tail =
        parse_log::<u64, u64>(&lines[offset..]).map_err(|e| format!("durability check: {e:?}"))?;
    let t1 = Stamp::now();
    let recovered =
        Table::recover(snapshot, &tail).map_err(|e| format!("durability check: {e:?}"))?;
    let t2 = Stamp::now();
    let mut live = table.to_snapshot().items;
    let mut back = recovered.to_snapshot().items;
    live.sort_unstable();
    back.sort_unstable();
    if live.len() as u64 != cfg.keys
        || live != back
        || recovered.shard_count() != table.shard_count()
    {
        return Err(format!(
            "durability check failed (seed {seed}, epoch {id}): live {} keys in {} tables, recovered {} keys in {} tables, first difference at item {:?}",
            live.len(),
            table.shard_count(),
            back.len(),
            recovered.shard_count(),
            live.iter().zip(&back).position(|(a, b)| a != b)
        ));
    }

    let tracer = wrec.tracer.take();
    Ok(Epoch {
        slice,
        writes: cfg.keys,
        reads,
        failed: wout.failed,
        mem,
        tick_ns: wout.tick_ns,
        split_ns: wout.split_ns,
        split_moved: wout.split_moved,
        reader_during_split: during,
        forwarding_hits: stats.migration.forwarding_hits,
        compactions: stats.maint.compactions,
        log_records,
        log_bytes,
        rss_growth,
        recovery: Recovery {
            parse_s: (t1 - t0).as_secs_f64(),
            replay_s: (t2 - t1).as_secs_f64(),
            records: tail.len(),
        },
        tracer,
        table,
    })
}

/// One measured run: `cfg.setup_reps` untimed epochs around the timed
/// ones.
pub fn measure(cfg: &Cfg, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let setup_epoch = |rep: usize| -> Result<(f64, Epoch), String> {
        let t0 = Stamp::now();
        let e = epoch(cfg, seed, rep as u64, false)?;
        Ok((t0.elapsed().as_secs_f64(), e))
    };
    for rep in 0..reps_before(cfg.setup_reps) {
        let (secs, e) = setup_epoch(rep)?;
        res.setup_s.push(secs);
        if rep == 0 {
            res.rss_bytes_per_key = e.rss_growth as f64 / cfg.keys as f64;
        }
    }
    let mut timed = 0.0;
    let mut lookups = 0;
    let mut last = None;
    let mut id = 1_000;
    while timed < seconds {
        let e = epoch(cfg, seed, id, false)?;
        id += 1;
        timed += e.slice.dur_s;
        res.attempted += e.writes + e.reads;
        res.keys += e.writes + e.reads;
        res.inserts += e.writes + e.failed;
        res.failed += e.failed;
        lookups += e.reads;
        res.mem += e.mem;
        res.recover_s.push(e.recovery.parse_s + e.recovery.replay_s);
        res.slices.push(e.slice.clone());
        last = Some(e);
    }
    check_metered(&res.mem, lookups)?;
    let last = last.ok_or("no epoch ran")?;
    res.facts = vec![
        ("clients", "2 (1 writer, 1 reader)".into()),
        ("epochs", res.slices.len().to_string()),
        ("keys_per_epoch", cfg.keys.to_string()),
        ("tables_at_epoch_end", last.table.shard_count().to_string()),
        ("splits_per_epoch", last.split_ns.len().to_string()),
        ("compactions_per_epoch", last.compactions.to_string()),
    ];
    drop(last);
    for rep in reps_before(cfg.setup_reps)..cfg.setup_reps {
        res.setup_s.push(setup_epoch(rep)?.0);
    }
    Ok(res)
}
