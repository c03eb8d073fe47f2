//! The percentile rule: report the highest percentile with at least ten
//! samples beyond it, and say how many samples there were.

use perfbench::clock::Stamp;

use perfbench::hist::{tail_quantile, LatHist};
use perfbench::record::{summarize, Recorder};

#[test]
fn the_rule_picks_the_highest_percentile_with_ten_beyond() {
    assert_eq!(tail_quantile(100_000), Some(0.99));
    assert_eq!(tail_quantile(1_000), Some(0.99));
    // 999 samples leave 9.99 beyond p99: fall back to p90.
    assert_eq!(tail_quantile(999), Some(0.9));
    assert_eq!(tail_quantile(100), Some(0.9));
    assert_eq!(tail_quantile(99), Some(0.5));
    assert_eq!(tail_quantile(20), Some(0.5));
    assert_eq!(tail_quantile(19), None);
    assert_eq!(tail_quantile(0), None);
}

#[test]
fn a_summary_reports_its_sample_count_and_the_percentile_used() {
    let start = Stamp::now();
    let mut rec = Recorder::new(start, None, false);
    for i in 0..500u64 {
        let t0 = Stamp::now();
        rec.read("r", t0, t0 + std::time::Duration::from_nanos(100 + i), 1, i);
    }
    rec.finish(Stamp::now());
    let s = summarize(&rec.slices);
    assert_eq!(s.read.samples, 500);
    assert_eq!(s.read.tail_q, 0.9, "500 samples cannot support p99");
    assert_eq!(s.write.samples, 0);
    let want = 100.0 + 0.9 * 500.0;
    assert!(
        (s.read.tail - want).abs() <= 2.0,
        "p90 {} vs {want}",
        s.read.tail
    );
}

#[test]
fn quantiles_move_with_the_samples_not_with_bucket_edges() {
    let mut a = LatHist::new();
    let mut b = LatHist::new();
    for v in 0..10_000u64 {
        a.record(1_000 + v % 300);
        b.record(1_000 + v % 301);
    }
    assert_ne!(a.quantile(0.5), b.quantile(0.5));
}
