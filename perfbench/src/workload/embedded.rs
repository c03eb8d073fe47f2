//! `embedded_read`: the paper's table on one thread, as an embedded
//! flow table uses it.
//!
//! A `McCuckoo<u64, u64>` with d = 3, the stash on and `Reset` deletion,
//! driven through `McTable` with single-key calls. The live set is half
//! of a table that fits in L2. About 95% of calls are lookups (75% hit,
//! 20% miss); the rest are updates and remove/insert pairs that keep the
//! live set fixed. The one client thread moves between the CPUs every
//! quarter second (`cpus::Rotor`), so a run samples all of them.

use std::time::Duration;

use hash_kit::SplitMix64;
use mccuckoo_core::{McConfig, McCuckoo, McTable};

use super::{check_metered, reps_before, wrong, RunResult};
use crate::clock::Stamp;
use crate::cpus::Rotor;
use crate::keys::{key, sub_seed, value, LIVE, MISS};
use crate::machine::rss_bytes;
use crate::record::{Budget, Recorder};

pub const NAME: &str = "embedded_read";

#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Buckets per hash function (3 functions).
    pub buckets: usize,
    pub live: usize,
    /// Lookup passes over the live set after prefill.
    pub warm_passes: usize,
    pub setup_reps: usize,
}

/// 3 × 4096 single-slot buckets (about 0.3 MiB with the tag plane and
/// counters, 0.4 MiB with the model: a fifth of the 2 MiB per-core L2)
/// holding 6144 keys, 50% load. Working sets near 1 MiB were not steady
/// on a shared host, whose L2 may be shared with a neighbour on the
/// core's other hyperthread: a 1 MiB random walk there varied by 30%
/// from one 50 ms window to the next, against 5–18% at 0.5 MiB.
pub const STANDARD: Cfg = Cfg {
    buckets: 4_096,
    live: 6_144,
    warm_passes: 1_000,
    setup_reps: 12,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Hit(usize),
    Miss(u64),
    Update(usize),
    /// Remove the slot's key, then insert a fresh key into the slot.
    Churn(usize),
}

/// The op stream: a pure function of the seed and the live-set size.
pub struct Gen {
    rng: SplitMix64,
    live: u64,
}

impl Gen {
    pub fn new(seed: u64, live: usize) -> Self {
        Self {
            rng: SplitMix64::new(sub_seed(seed, 1)),
            live: live as u64,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_below(1000);
        let slot = self.rng.next_below(self.live) as usize;
        if r < 750 {
            Op::Hit(slot)
        } else if r < 950 {
            Op::Miss(self.rng.next_u64() >> 9)
        } else if r < 980 {
            Op::Update(slot)
        } else {
            Op::Churn(slot)
        }
    }
}

/// The paper-configured table this workload measures.
pub fn paper_table(buckets: usize, seed: u64) -> McCuckoo<u64, u64> {
    McCuckoo::new(McConfig::paper_with_deletion(buckets, sub_seed(seed, 10)))
}

pub struct State<T> {
    pub table: T,
    /// Slot → (key, value the table must hold for it).
    pub model: Vec<(u64, Option<u64>)>,
    pub next_fresh: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub lookups: u64,
    pub hits: u64,
    pub inserts: u64,
    pub failed: u64,
}

/// Build and prefill the table, then warm it with lookup passes.
/// Returns the state, the set-up seconds and the RSS growth in bytes.
pub fn setup<T: McTable<u64, u64>>(
    cfg: &Cfg,
    seed: u64,
    make: &impl Fn(usize, u64) -> T,
) -> Result<(State<T>, f64, u64), String> {
    let model: Vec<(u64, Option<u64>)> = (0..cfg.live as u64)
        .map(|i| {
            let k = key(seed, LIVE, i);
            (k, Some(value(k, 0)))
        })
        .collect();
    let rss0 = rss_bytes();
    let t0 = Stamp::now();
    let mut table = make(cfg.buckets, seed);
    for &(k, v) in &model {
        let v = v.expect("prefill values are set");
        if !table.insert_new(k, v).stored() {
            return Err(format!(
                "prefill refused key {k:#x}: the table is too small"
            ));
        }
    }
    let rss = rss_bytes().saturating_sub(rss0);
    let mut rotor = Rotor::new(t0, 0);
    for pass in 0..cfg.warm_passes {
        rotor.tick(Stamp::now());
        for (slot, &(k, want)) in model.iter().enumerate() {
            let got = table.lookup(&k);
            if got != want {
                return Err(wrong(
                    seed,
                    0,
                    (pass * model.len() + slot) as u64,
                    format!("warm-up lookup of {k:#x} returned {got:?}, expected {want:?}"),
                ));
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        State {
            table,
            model,
            next_fresh: cfg.live as u64,
        },
        secs,
        rss,
    ))
}

/// The closed loop: one call at a time until the budget runs out.
pub fn run<T: McTable<u64, u64>>(
    st: &mut State<T>,
    seed: u64,
    budget: Budget,
    rec: &mut Recorder,
) -> Result<Counts, String> {
    let mut gen = Gen::new(seed, st.model.len());
    let mut c = Counts::default();
    let mut op = 0u64;
    let mut rotor = Rotor::new(Stamp::now(), 0);
    loop {
        let t1 = match gen.next_op() {
            Op::Hit(slot) => {
                let (k, want) = st.model[slot];
                let t0 = Stamp::now();
                let got = st.table.lookup(&k);
                let t1 = Stamp::now();
                rec.read("McTable::lookup", t0, t1, 1, op);
                if got != want {
                    return Err(wrong(
                        seed,
                        0,
                        op,
                        format!("lookup({k:#x}) = {got:?}, expected {want:?}"),
                    ));
                }
                c.lookups += 1;
                c.hits += u64::from(got.is_some());
                t1
            }
            Op::Miss(j) => {
                let k = key(seed, MISS, j);
                let t0 = Stamp::now();
                let got = st.table.lookup(&k);
                let t1 = Stamp::now();
                rec.read("McTable::lookup", t0, t1, 1, op);
                if got.is_some() {
                    return Err(wrong(
                        seed,
                        0,
                        op,
                        format!("lookup of absent {k:#x} = {got:?}"),
                    ));
                }
                c.lookups += 1;
                t1
            }
            Op::Update(slot) => {
                let k = st.model[slot].0;
                let v = value(k, op + 1);
                let t0 = Stamp::now();
                let r = st.table.insert(k, v);
                let t1 = Stamp::now();
                rec.write("McTable::insert", t0, t1, 1, op);
                c.inserts += 1;
                if r.stored() {
                    st.model[slot].1 = Some(v);
                } else {
                    c.failed += 1;
                }
                t1
            }
            Op::Churn(slot) => {
                let (k, want) = st.model[slot];
                let t0 = Stamp::now();
                let got = st.table.remove(&k);
                let t1 = Stamp::now();
                rec.write("McTable::remove", t0, t1, 1, op);
                if got != want {
                    return Err(wrong(
                        seed,
                        0,
                        op,
                        format!("remove({k:#x}) = {got:?}, expected {want:?}"),
                    ));
                }
                op += 1;
                c.calls += 1;
                let nk = key(seed, LIVE, st.next_fresh);
                st.next_fresh += 1;
                let v = value(nk, 0);
                let t0 = Stamp::now();
                let r = st.table.insert_new(nk, v);
                let t1 = Stamp::now();
                rec.write("McTable::insert_new", t0, t1, 1, op);
                c.inserts += 1;
                let stored = r.stored();
                c.failed += u64::from(!stored);
                st.model[slot] = (nk, stored.then_some(v));
                t1
            }
        };
        op += 1;
        c.calls += 1;
        rotor.tick(t1);
        if budget.done(c.calls, t1) {
            return Ok(c);
        }
    }
}

/// One measured run: `cfg.setup_reps` set-ups around the timed phase.
/// As in `churn::measure`, every set-up's table stays alive until the
/// run ends and the RSS growth is summed over the set-ups before the
/// phase.
pub fn measure<T: McTable<u64, u64>>(
    cfg: &Cfg,
    seed: u64,
    seconds: f64,
    make: &impl Fn(usize, u64) -> T,
) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut kept = Vec::new();
    let mut rss = 0;
    for _ in 0..reps_before(cfg.setup_reps) {
        let (s, secs, grew) = setup(cfg, seed, make)?;
        rss += grew;
        res.setup_s.push(secs);
        kept.push(s);
    }
    res.rss_bytes_per_key = rss as f64 / (kept.len() * cfg.live) as f64;
    let mut st = kept.pop().expect("at least one set-up");
    let m0 = st.table.mem_stats();
    let phase = Duration::from_secs_f64(seconds);
    let start = Stamp::now();
    let mut rec = Recorder::new(start, Some(phase), false);
    let c = run(
        &mut st,
        seed,
        Budget {
            until: Some(start + phase),
            max_calls: u64::MAX,
        },
        &mut rec,
    )?;
    rec.finish(Stamp::now());
    res.mem = st.table.mem_stats() - m0;
    check_metered(&res.mem, c.lookups)?;
    res.slices = rec.slices;
    res.attempted = c.calls;
    res.keys = c.calls;
    res.failed = c.failed;
    res.inserts = c.inserts;
    res.facts = vec![
        ("clients", "1".into()),
        ("slots", (3 * cfg.buckets).to_string()),
        ("live_keys", cfg.live.to_string()),
        ("load", format!("{:.3}", st.table.load())),
        ("stash_len", st.table.stash_len().to_string()),
    ];
    kept.push(st);
    for _ in reps_before(cfg.setup_reps)..cfg.setup_reps {
        let (s, secs, _) = setup(cfg, seed, make)?;
        res.setup_s.push(secs);
        kept.push(s);
    }
    Ok(res)
}
