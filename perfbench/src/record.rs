//! Per-call latency recording in time slices, and the summary a run
//! reports.
//!
//! The timed phase is cut into fixed time slices, so that a run can show
//! how its speed moved; the figures it reports are those of the whole
//! phase. Reading only the fastest slices was tried and was less steady
//! from run to run on a shared host: how often a fast window comes varies
//! more than the phase's overall speed does.

use std::time::Duration;

use crate::clock::Stamp;
use crate::hist::{tail_quantile, LatHist};
use crate::trace::{Tracer, NO_PARENT};

/// Slices of one timed phase.
pub const SLICES: usize = 80;

/// When a closed loop stops: at a deadline, after a number of calls, or
/// at whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub until: Option<Stamp>,
    pub max_calls: u64,
}

impl Budget {
    pub fn calls(n: u64) -> Self {
        Self {
            until: None,
            max_calls: n,
        }
    }

    #[inline]
    pub fn done(&self, calls: u64, now: Stamp) -> bool {
        calls >= self.max_calls || self.until.is_some_and(|u| now >= u)
    }
}

#[derive(Clone, Default)]
pub struct Slice {
    /// Keys served (a batch call counts its keys).
    pub keys: u64,
    pub dur_s: f64,
    pub read: LatHist,
    pub write: LatHist,
}

impl Slice {
    pub fn merge(&mut self, o: &Slice) {
        self.keys += o.keys;
        self.dur_s = self.dur_s.max(o.dur_s);
        self.read.merge(&o.read);
        self.write.merge(&o.write);
    }
}

/// One client thread's recorder.
pub struct Recorder {
    start: Stamp,
    slice_ns: u64,
    pub slices: Vec<Slice>,
    /// Spans of every call, when the run is traced.
    pub tracer: Option<Tracer>,
}

impl Recorder {
    /// `phase` is the nominal length of the timed phase (`None` for a
    /// call-count budget: one slice, as long as the phase turns out).
    pub fn new(start: Stamp, phase: Option<Duration>, trace: bool) -> Self {
        let (n, slice_ns) = match phase {
            Some(d) => (SLICES, (d.as_nanos() as u64 / SLICES as u64).max(1)),
            None => (1, u64::MAX),
        };
        Self {
            start,
            slice_ns,
            slices: vec![Slice::default(); n],
            tracer: trace.then(|| Tracer::new(start)),
        }
    }

    #[inline]
    fn slot(&self, t: Stamp) -> usize {
        let ns = t.saturating_duration_since(self.start).as_nanos() as u64;
        ((ns / self.slice_ns) as usize).min(self.slices.len() - 1)
    }

    #[inline]
    pub fn read(&mut self, name: &'static str, t0: Stamp, t1: Stamp, keys: u64, op: u64) {
        let s = self.slot(t1);
        let sl = &mut self.slices[s];
        sl.keys += keys;
        sl.read.record((t1 - t0).as_nanos() as u64);
        if let Some(t) = &mut self.tracer {
            t.record(name, t0, t1, NO_PARENT, op);
        }
    }

    #[inline]
    pub fn write(&mut self, name: &'static str, t0: Stamp, t1: Stamp, keys: u64, op: u64) {
        let s = self.slot(t1);
        let sl = &mut self.slices[s];
        sl.keys += keys;
        sl.write.record((t1 - t0).as_nanos() as u64);
        if let Some(t) = &mut self.tracer {
            t.record(name, t0, t1, NO_PARENT, op);
        }
    }

    /// Close the phase at `end`: each slice learns its real length.
    pub fn finish(&mut self, end: Stamp) {
        let total = end.saturating_duration_since(self.start).as_nanos() as u64;
        for (k, sl) in self.slices.iter_mut().enumerate() {
            let begin = (k as u64).saturating_mul(self.slice_ns);
            let len = total.saturating_sub(begin).min(self.slice_ns);
            sl.dur_s = len as f64 / 1e9;
        }
    }
}

/// Merge the slices of several client threads, slice by slice.
pub fn merge_threads(threads: Vec<Vec<Slice>>) -> Vec<Slice> {
    let mut out: Vec<Slice> = Vec::new();
    for slices in threads {
        if out.is_empty() {
            out = slices;
            continue;
        }
        for (a, b) in out.iter_mut().zip(&slices) {
            a.merge(b);
        }
    }
    out
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A latency distribution summary over the whole phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lat {
    pub p50: f64,
    pub tail: f64,
    /// The quantile `tail` reports (0.99 unless too few samples).
    pub tail_q: f64,
    pub samples: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub ops_per_s: f64,
    pub read: Lat,
    pub write: Lat,
}

/// The whole phase: all keys over all time, and percentiles of the
/// merged histograms.
pub fn summarize(slices: &[Slice]) -> Summary {
    let secs: f64 = slices.iter().map(|s| s.dur_s).sum();
    let keys: u64 = slices.iter().map(|s| s.keys).sum();
    Summary {
        ops_per_s: keys as f64 / secs.max(1e-9),
        read: lat(slices, |s| &s.read),
        write: lat(slices, |s| &s.write),
    }
}

fn lat(slices: &[Slice], pick: impl Fn(&Slice) -> &LatHist) -> Lat {
    let mut h = LatHist::new();
    for s in slices {
        h.merge(pick(s));
    }
    let samples = h.count();
    let Some(tail_q) = tail_quantile(samples) else {
        return Lat {
            samples,
            ..Lat::default()
        };
    };
    Lat {
        p50: h.quantile(0.5).unwrap_or(f64::NAN),
        tail: h.quantile(tail_q).unwrap_or(f64::NAN),
        tail_q,
        samples,
    }
}
