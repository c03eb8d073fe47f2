//! `serve_churn`: a 4-shard `ShardedMcCuckoo` that fits in L2, held at
//! 80% load, with 2 client threads making single-key calls.
//!
//! Half the calls are writes. Lookups and updates pick live keys by Zipf
//! θ = 0.99; fresh uniform inserts are paired with removes, so the load
//! stays fixed however long the run lasts. The table uses the bubbling
//! kick policy (arXiv 2501.02312). At 80% no insert was refused over
//! 20 s runs of ten seeds; at 85% a shard drifting above the mean
//! refused up to 36 per run, even with bubbling. Each client owns half
//! of the keys, so every answer it gets is checked exactly.

use std::time::Duration;

use hash_kit::SplitMix64;
use mccuckoo_core::{KickPolicyKind, McConfig, ShardedMcCuckoo};
use workloads::Zipf;

use super::{check_metered, reps_before, wrong, RunResult};
use crate::clock::Stamp;
use crate::keys::{key, sub_seed, value, LIVE, MISS};
use crate::machine::rss_bytes;
use crate::record::{merge_threads, Budget, Recorder};

pub const NAME: &str = "serve_churn";

#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub shards: usize,
    pub buckets: usize,
    pub load: f64,
    pub clients: usize,
    pub theta: f64,
    pub warm_passes: usize,
    pub setup_reps: usize,
}

/// 4 shards × 3 × 1024 buckets = 12288 slots (about 0.4 MiB of cells,
/// counters and seqlock words, 0.6 MiB with the models: well inside a
/// 2 MiB per-core L2, which a neighbour on the other hyperthread may
/// share; see `embedded::STANDARD`), 80% full.
pub const STANDARD: Cfg = Cfg {
    shards: 4,
    buckets: 1_024,
    load: 0.80,
    clients: 2,
    theta: 0.99,
    warm_passes: 16,
    setup_reps: 10,
};

impl Cfg {
    pub fn live(&self) -> usize {
        (self.shards as f64 * 3.0 * self.buckets as f64 * self.load) as usize
    }
}

/// One client's share of the keys: slot → (key, value it must read).
pub struct Part {
    pub model: Vec<(u64, Option<u64>)>,
    pub next_fresh: u64,
}

pub struct State {
    pub table: ShardedMcCuckoo<u64, u64>,
    pub parts: Vec<Part>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub calls: u64,
    pub lookups: u64,
    pub inserts: u64,
    pub failed: u64,
}

pub fn setup(cfg: &Cfg, seed: u64) -> Result<(State, f64, u64, u64), String> {
    let per = cfg.live() / cfg.clients;
    let mut parts: Vec<Part> = (0..cfg.clients)
        .map(|t| Part {
            model: (0..per as u64)
                .map(|i| {
                    let k = key(seed, LIVE + t as u64, i);
                    (k, Some(value(k, 0)))
                })
                .collect(),
            next_fresh: per as u64,
        })
        .collect();
    let rss0 = rss_bytes();
    let t0 = Stamp::now();
    let table = ShardedMcCuckoo::new(
        cfg.shards,
        McConfig::paper_with_deletion(cfg.buckets, sub_seed(seed, 20))
            .with_kick_policy(KickPolicyKind::Bubble),
    );
    let mut refused = 0u64;
    for p in &mut parts {
        for entry in &mut p.model {
            let v = entry.1.expect("prefill values are set");
            if table.insert_new(entry.0, v).is_err() {
                refused += 1;
                entry.1 = None;
            }
        }
    }
    let rss = rss_bytes().saturating_sub(rss0);
    for pass in 0..cfg.warm_passes {
        for (t, p) in parts.iter().enumerate() {
            for (slot, &(k, want)) in p.model.iter().enumerate() {
                let got = table.get(&k);
                if got != want {
                    return Err(wrong(
                        seed,
                        t,
                        (pass * per + slot) as u64,
                        format!("warm-up get({k:#x}) = {got:?}, expected {want:?}"),
                    ));
                }
            }
        }
    }
    Ok((
        State { table, parts },
        t0.elapsed().as_secs_f64(),
        rss,
        refused,
    ))
}

/// One client's closed loop.
pub fn client(
    table: &ShardedMcCuckoo<u64, u64>,
    part: &mut Part,
    cfg: &Cfg,
    seed: u64,
    t: usize,
    budget: Budget,
    rec: &mut Recorder,
) -> Result<Counts, String> {
    let n = part.model.len() as u64;
    let mut rng = SplitMix64::new(sub_seed(seed, 100 + t as u64));
    let mut zipf = Zipf::new(n, cfg.theta, sub_seed(seed, 200 + t as u64));
    let mut c = Counts::default();
    let mut op = 0u64;
    loop {
        let r = rng.next_below(1000);
        let t1 = if r < 500 {
            let (k, want) = if r < 450 {
                part.model[(zipf.sample() - 1) as usize]
            } else {
                (key(seed, MISS, rng.next_u64() >> 9), None)
            };
            let t0 = Stamp::now();
            let got = table.get(&k);
            let t1 = Stamp::now();
            rec.read("ShardedMcCuckoo::get", t0, t1, 1, op);
            if got != want {
                return Err(wrong(
                    seed,
                    t,
                    op,
                    format!("get({k:#x}) = {got:?}, expected {want:?}"),
                ));
            }
            c.lookups += 1;
            t1
        } else if r < 750 {
            let slot = (zipf.sample() - 1) as usize;
            let (k, was) = part.model[slot];
            let v = value(k, op + 1);
            let t0 = Stamp::now();
            let res = table.insert(k, v);
            let t1 = Stamp::now();
            rec.write("ShardedMcCuckoo::insert", t0, t1, 1, op);
            c.inserts += 1;
            match res {
                Ok(existed) if existed == was.is_some() => part.model[slot].1 = Some(v),
                Ok(existed) => {
                    return Err(wrong(
                        seed,
                        t,
                        op,
                        format!(
                            "insert({k:#x}) reported existed={existed}, expected {}",
                            was.is_some()
                        ),
                    ))
                }
                Err(_) => c.failed += 1,
            }
            t1
        } else {
            let slot = rng.next_below(n) as usize;
            let (k, want) = part.model[slot];
            let t0 = Stamp::now();
            let got = table.remove(&k);
            let t1 = Stamp::now();
            rec.write("ShardedMcCuckoo::remove", t0, t1, 1, op);
            if got != want {
                return Err(wrong(
                    seed,
                    t,
                    op,
                    format!("remove({k:#x}) = {got:?}, expected {want:?}"),
                ));
            }
            op += 1;
            c.calls += 1;
            let nk = key(seed, LIVE + t as u64, part.next_fresh);
            part.next_fresh += 1;
            let v = value(nk, 0);
            let t0 = Stamp::now();
            let res = table.insert_new(nk, v);
            let t1 = Stamp::now();
            rec.write("ShardedMcCuckoo::insert_new", t0, t1, 1, op);
            c.inserts += 1;
            c.failed += u64::from(res.is_err());
            part.model[slot] = (nk, res.is_ok().then_some(v));
            t1
        };
        op += 1;
        c.calls += 1;
        if budget.done(c.calls, t1) {
            return Ok(c);
        }
    }
}

/// Run every client on its own thread until the budget runs out.
pub fn run_clients(
    st: &mut State,
    cfg: &Cfg,
    seed: u64,
    budget: Budget,
    phase: Option<Duration>,
    trace: bool,
) -> Result<(Vec<Recorder>, Counts), String> {
    let start = Stamp::now();
    let budget = Budget {
        until: phase.map(|p| start + p).or(budget.until),
        ..budget
    };
    let table = &st.table;
    let results: Vec<Result<(Recorder, Counts), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = st
            .parts
            .iter_mut()
            .enumerate()
            .map(|(t, part)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(start, phase, trace);
                    let c = client(table, part, cfg, seed, t, budget, &mut rec)?;
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
    let mut recs = Vec::new();
    let mut total = Counts::default();
    for r in results {
        let (rec, c) = r?;
        total.calls += c.calls;
        total.lookups += c.lookups;
        total.inserts += c.inserts;
        total.failed += c.failed;
        recs.push(rec);
    }
    Ok((recs, total))
}

/// One measured run: `cfg.setup_reps` set-ups around the timed phase.
/// Every set-up's table stays alive until the run ends, so each set-up
/// builds into fresh memory and pays the same page faults, and the RSS
/// growth is summed over the set-ups before the phase (one small table's
/// growth moves with the allocator's page rounding).
pub fn measure(cfg: &Cfg, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut kept = Vec::new();
    let (mut rss, mut live, mut refused) = (0, 0, 0);
    for _ in 0..reps_before(cfg.setup_reps) {
        let (s, secs, grew, r) = setup(cfg, seed)?;
        rss += grew;
        live += s.table.len();
        refused = r;
        res.setup_s.push(secs);
        kept.push(s);
    }
    res.rss_bytes_per_key = rss as f64 / live.max(1) as f64;
    let mut st = kept.pop().expect("at least one set-up");
    let m0 = st.table.mem_stats();
    let phase = Duration::from_secs_f64(seconds);
    let (recs, c) = run_clients(
        &mut st,
        cfg,
        seed,
        Budget::calls(u64::MAX),
        Some(phase),
        false,
    )?;
    res.mem = st.table.mem_stats() - m0;
    check_metered(&res.mem, c.lookups)?;
    res.slices = merge_threads(recs.into_iter().map(|r| r.slices).collect());
    res.attempted = c.calls;
    res.keys = c.calls;
    res.failed = c.failed;
    res.inserts = c.inserts;
    res.facts = vec![
        ("clients", cfg.clients.to_string()),
        ("shards", cfg.shards.to_string()),
        ("slots", st.table.capacity().to_string()),
        ("live_keys", st.table.len().to_string()),
        (
            "load",
            format!("{:.3}", st.table.len() as f64 / st.table.capacity() as f64),
        ),
        ("prefill_refused", refused.to_string()),
    ];
    kept.push(st);
    for _ in reps_before(cfg.setup_reps)..cfg.setup_reps {
        let (s, secs, _, _) = setup(cfg, seed)?;
        res.setup_s.push(secs);
        kept.push(s);
    }
    Ok(res)
}
