//! Latency histogram and the percentile rule.
//!
//! Samples are nanoseconds in log-linear buckets: exact below 128 ns,
//! then 64 equal sub-buckets per power of two (under 1.6% relative
//! width). A quantile is read by linear interpolation inside its bucket,
//! so it varies continuously with the samples instead of snapping to a
//! bucket edge.

const EXACT: u64 = 128;
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Largest recorded value; anything slower is clamped (about 18 minutes).
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = EXACT as usize + (40 - 7) * SUB;

/// The percentiles this benchmark reports, highest first. The
/// rule: report the highest one that has at least ten samples beyond it.
pub const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.9, 0.5];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// The highest candidate quantile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has too few.
pub fn tail_quantile(n: u64) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|q| (n as f64) * (1.0 - q) >= MIN_BEYOND as f64 - 1e-9)
}

#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self::new()
    }
}

fn index(v: u64) -> usize {
    let v = v.min(MAX_NS);
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    EXACT as usize + (e as usize - 7) * SUB + sub
}

/// `(low edge, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, 1.0);
    }
    let j = i - EXACT as usize;
    let e = (j / SUB) as u32 + 7;
    let shift = e - SUB_BITS;
    let lo = ((SUB + j % SUB) as u64) << shift;
    (lo as f64, (1u64 << shift) as f64)
}

impl LatHist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile in nanoseconds (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = (q * self.n as f64).clamp(0.5, self.n as f64);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= rank {
                let (lo, w) = bounds(i);
                let frac = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * w);
            }
            before += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0u64, 1, 127, 128, 129, 200, 1_000, 65_535, 1 << 30, MAX_NS] {
            let (lo, w) = bounds(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v} not in [{lo}, +{w})"
            );
        }
        assert!(index(MAX_NS) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = LatHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.02, "{p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.02, "{p99}");
    }
}
