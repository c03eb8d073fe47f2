//! `serve_dram`: a 4-shard `ShardedMcCuckoo` whose table is well beyond
//! the 300 MiB L3, at 50% load, with 2 client threads.
//!
//! Read-mostly: 90% of calls are `lookup_batch` calls of a fixed size
//! (10% of their keys absent), 10% are `insert_batch` calls that write
//! back new values for keys the client's last lookup batch found (a
//! read-modify-write, so updates find their buckets recently read). Keys are uniform. Each client thread prefills its own keys
//! through `insert_batch`, so `setup_s` measures bulk-load speed. Each client owns every other key
//! index and tracks each key's version, so every answer is checked.

use std::time::Duration;

use hash_kit::SplitMix64;
use mccuckoo_core::{McConfig, ShardedMcCuckoo};

use super::{check_metered, reps_before, wrong, RunResult};
use crate::clock::Stamp;
use crate::keys::{key, sub_seed, value, LIVE, MISS};
use crate::machine::rss_bytes;
use crate::record::{merge_threads, Budget, Recorder};

pub const NAME: &str = "serve_dram";

#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub shards: usize,
    pub buckets: usize,
    pub load: f64,
    pub clients: usize,
    pub batch: usize,
    pub update_batch: usize,
    /// Calls per thousand that are update batches.
    pub update_permille: u64,
    /// Lookup keys per thousand that are absent.
    pub miss_permille: u64,
    /// Lookup batches after prefill, before timing.
    pub warm_batches: usize,
    pub prefill_chunk: usize,
    pub setup_reps: usize,
}

/// 4 shards × 3 × 1.25 M buckets = 15 M slots. Each slot is a 24-byte
/// cell, a counter byte and an 8-byte seqlock word: about 470 MiB of
/// table, 1.6× the L3, holding 7.5 M keys.
pub const STANDARD: Cfg = Cfg {
    shards: 4,
    buckets: 1_250_000,
    load: 0.5,
    clients: 2,
    batch: 128,
    update_batch: 16,
    update_permille: 100,
    miss_permille: 100,
    warm_batches: 2_000,
    prefill_chunk: 4_096,
    setup_reps: 4,
};

impl Cfg {
    pub fn live(&self) -> usize {
        (self.shards as f64 * 3.0 * self.buckets as f64 * self.load) as usize
    }
}

pub struct State {
    pub table: ShardedMcCuckoo<u64, u64>,
    /// Per client: version of each owned key (index `j` is key index
    /// `j × clients + t`).
    pub versions: Vec<Vec<u16>>,
    pub clients: usize,
    pub seed: u64,
}

impl State {
    #[inline]
    pub fn key_of(&self, t: usize, j: usize) -> u64 {
        key(self.seed, LIVE, (j * self.clients + t) as u64)
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub calls: u64,
    pub keys: u64,
    pub lookups: u64,
    pub inserts: u64,
    pub failed: u64,
}

pub fn setup(cfg: &Cfg, seed: u64) -> Result<(State, f64, u64), String> {
    let live = cfg.live();
    let versions: Vec<Vec<u16>> = (0..cfg.clients)
        .map(|t| vec![0u16; (live - t).div_ceil(cfg.clients)])
        .collect();
    let rss0 = rss_bytes();
    let t0 = Stamp::now();
    let table = ShardedMcCuckoo::new(
        cfg.shards,
        McConfig::paper_with_deletion(cfg.buckets, sub_seed(seed, 30)),
    );
    // Each client thread bulk-loads its own keys.
    let loaded: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|t| {
                let table = &table;
                s.spawn(move || {
                    let mut chunk = Vec::with_capacity(cfg.prefill_chunk);
                    let mut i = t;
                    while i < live {
                        chunk.clear();
                        while chunk.len() < cfg.prefill_chunk && i < live {
                            let k = key(seed, LIVE, i as u64);
                            chunk.push((k, value(k, 0)));
                            i += cfg.clients;
                        }
                        let res = table.insert_batch(&chunk);
                        if let Some((r, (k, _))) =
                            res.iter().zip(&chunk).find(|(r, _)| **r != Ok(false))
                        {
                            return Err(format!("prefill insert_batch of {k:#x} returned {r:?}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("prefill thread panicked".into()))
            })
            .collect()
    });
    loaded.into_iter().collect::<Result<Vec<()>, String>>()?;
    let rss = rss_bytes().saturating_sub(rss0);
    let st = State {
        table,
        versions,
        clients: cfg.clients,
        seed,
    };
    let mut rng = SplitMix64::new(sub_seed(seed, 31));
    let mut keys = Vec::with_capacity(cfg.batch);
    for b in 0..cfg.warm_batches {
        keys.clear();
        keys.extend((0..cfg.batch).map(|_| key(seed, LIVE, rng.next_below(live as u64))));
        for (got, k) in st.table.lookup_batch(&keys).into_iter().zip(&keys) {
            if got != Some(value(*k, 0)) {
                return Err(wrong(
                    seed,
                    0,
                    b as u64,
                    format!("warm-up lookup of {k:#x} = {got:?}"),
                ));
            }
        }
    }
    Ok((st, t0.elapsed().as_secs_f64(), rss))
}

pub fn client(
    st: &State,
    versions: &mut [u16],
    cfg: &Cfg,
    t: usize,
    budget: Budget,
    rec: &mut Recorder,
) -> Result<Counts, String> {
    let seed = st.seed;
    let n = versions.len() as u64;
    let mut rng = SplitMix64::new(sub_seed(seed, 300 + t as u64));
    let mut keys = Vec::with_capacity(cfg.batch);
    let mut want = Vec::with_capacity(cfg.batch);
    let mut items = Vec::with_capacity(cfg.update_batch);
    // Live keys the last lookup batch read: the next update's targets.
    let mut read: Vec<usize> = Vec::with_capacity(cfg.batch);
    let mut c = Counts::default();
    let mut op = 0u64;
    loop {
        let t1 = if read.is_empty() || rng.next_below(1000) >= cfg.update_permille {
            keys.clear();
            want.clear();
            read.clear();
            for _ in 0..cfg.batch {
                if rng.next_below(1000) < cfg.miss_permille {
                    keys.push(key(seed, MISS, rng.next_u64() >> 9));
                    want.push(None);
                } else {
                    let j = rng.next_below(n) as usize;
                    let k = st.key_of(t, j);
                    keys.push(k);
                    want.push(Some(value(k, u64::from(versions[j]))));
                    // Distinct keys only: one batch never updates a key twice.
                    if !read.contains(&j) {
                        read.push(j);
                    }
                }
            }
            let t0 = Stamp::now();
            let got = st.table.lookup_batch(&keys);
            let t1 = Stamp::now();
            rec.read(
                "ShardedMcCuckoo::lookup_batch",
                t0,
                t1,
                keys.len() as u64,
                op,
            );
            if got != want {
                let i = (0..keys.len())
                    .find(|&i| got.get(i) != want.get(i))
                    .unwrap_or(0);
                return Err(wrong(
                    seed,
                    t,
                    op,
                    format!(
                        "lookup_batch key {i} ({:#x}) = {:?}, expected {:?}",
                        keys[i],
                        got.get(i),
                        want[i]
                    ),
                ));
            }
            c.lookups += keys.len() as u64;
            c.keys += keys.len() as u64;
            t1
        } else {
            items.clear();
            for &j in read.iter().take(cfg.update_batch) {
                versions[j] = versions[j].wrapping_add(1);
                let k = st.key_of(t, j);
                items.push((k, value(k, u64::from(versions[j]))));
            }
            let t0 = Stamp::now();
            let res = st.table.insert_batch(&items);
            let t1 = Stamp::now();
            rec.write(
                "ShardedMcCuckoo::insert_batch",
                t0,
                t1,
                items.len() as u64,
                op,
            );
            if let Some((r, (k, _))) = res.iter().zip(&items).find(|(r, _)| **r != Ok(true)) {
                return Err(wrong(
                    seed,
                    t,
                    op,
                    format!("update of live key {k:#x} returned {r:?}"),
                ));
            }
            c.inserts += items.len() as u64;
            c.keys += items.len() as u64;
            t1
        };
        op += 1;
        c.calls += 1;
        if budget.done(c.calls, t1) {
            return Ok(c);
        }
    }
}

pub fn run_clients(
    st: &mut State,
    cfg: &Cfg,
    budget: Budget,
    phase: Option<Duration>,
    trace: bool,
) -> Result<(Vec<Recorder>, Counts), String> {
    let start = Stamp::now();
    let budget = Budget {
        until: phase.map(|p| start + p).or(budget.until),
        ..budget
    };
    let mut versions = std::mem::take(&mut st.versions);
    let shared: &State = st;
    let results: Vec<Result<(Recorder, Counts), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = versions
            .iter_mut()
            .enumerate()
            .map(|(t, v)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(start, phase, trace);
                    let c = client(shared, v, cfg, t, budget, &mut rec)?;
                    rec.finish(Stamp::now());
                    Ok((rec, c))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    st.versions = versions;
    let mut recs = Vec::new();
    let mut total = Counts::default();
    for r in results {
        let (rec, c) = r?;
        total.calls += c.calls;
        total.keys += c.keys;
        total.lookups += c.lookups;
        total.inserts += c.inserts;
        total.failed += c.failed;
        recs.push(rec);
    }
    Ok((recs, total))
}

/// One measured run: `cfg.setup_reps` set-ups around the timed phase.
pub fn measure(cfg: &Cfg, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut state = None;
    let mut table_bytes = 0;
    for rep in 0..reps_before(cfg.setup_reps) {
        drop(state.take());
        let (s, secs, rss) = setup(cfg, seed)?;
        if rep == 0 {
            res.rss_bytes_per_key = rss as f64 / cfg.live() as f64;
            table_bytes = rss;
        }
        res.setup_s.push(secs);
        state = Some(s);
    }
    let mut st = state.expect("at least one set-up");
    let m0 = st.table.mem_stats();
    let phase = Duration::from_secs_f64(seconds);
    let (recs, c) = run_clients(&mut st, cfg, Budget::calls(u64::MAX), Some(phase), false)?;
    res.mem = st.table.mem_stats() - m0;
    check_metered(&res.mem, c.lookups)?;
    res.slices = merge_threads(recs.into_iter().map(|r| r.slices).collect());
    res.attempted = c.calls;
    res.keys = c.keys;
    res.failed = c.failed;
    res.inserts = c.inserts;
    res.facts = vec![
        ("clients", cfg.clients.to_string()),
        ("shards", cfg.shards.to_string()),
        ("slots", st.table.capacity().to_string()),
        ("live_keys", st.table.len().to_string()),
        (
            "live_set_mib",
            format!("{:.0}", table_bytes as f64 / (1 << 20) as f64),
        ),
        ("batch", cfg.batch.to_string()),
    ];
    drop(st);
    for _ in reps_before(cfg.setup_reps)..cfg.setup_reps {
        res.setup_s.push(setup(cfg, seed)?.1);
    }
    Ok(res)
}
