//! The benchmark's clock: the time-stamp counter where there is one.
//!
//! On x86-64 a stamp is `lfence; rdtsc`, a few nanoseconds on a
//! constant-rate TSC, against tens for a system clock read on a virtual
//! machine; the ticks-to-nanoseconds scale is calibrated once against
//! `Instant` at first use (10 ms). Elsewhere a stamp is nanoseconds
//! since the first stamp. The API mirrors the part of `Instant` the
//! benchmark uses.

use std::ops::{Add, Sub};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(u64);

struct Calibration {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    epoch: Instant,
    ns_per_tick: f64,
}

fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| {
        let epoch = Instant::now();
        let ns_per_tick = if cfg!(target_arch = "x86_64") {
            let t0 = ticks();
            while epoch.elapsed() < Duration::from_millis(10) {}
            let (t1, e) = (ticks(), epoch.elapsed());
            e.as_nanos() as f64 / t1.saturating_sub(t0).max(1) as f64
        } else {
            1.0
        };
        Calibration { epoch, ns_per_tick }
    })
}

#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `lfence` and `rdtsc` are part of the x86-64 baseline
        // (SSE2, TSC); they read no memory and have no preconditions.
        unsafe {
            core::arch::x86_64::_mm_lfence();
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        calibration().epoch.elapsed().as_nanos() as u64
    }
}

impl Stamp {
    #[inline]
    pub fn now() -> Self {
        Stamp(ticks())
    }

    #[inline]
    pub fn saturating_duration_since(self, earlier: Stamp) -> Duration {
        let ticks = self.0.saturating_sub(earlier.0);
        Duration::from_nanos((ticks as f64 * calibration().ns_per_tick) as u64)
    }

    pub fn elapsed(self) -> Duration {
        Stamp::now().saturating_duration_since(self)
    }
}

impl Sub for Stamp {
    type Output = Duration;
    #[inline]
    fn sub(self, earlier: Stamp) -> Duration {
        self.saturating_duration_since(earlier)
    }
}

impl Add<Duration> for Stamp {
    type Output = Stamp;
    fn add(self, d: Duration) -> Stamp {
        Stamp(self.0 + (d.as_nanos() as f64 / calibration().ns_per_tick) as u64)
    }
}

/// Force the calibration now, outside any timed region.
pub fn calibrate() {
    calibration();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_track_the_system_clock() {
        calibrate();
        let (s, i) = (Stamp::now(), Instant::now());
        std::thread::sleep(Duration::from_millis(30));
        let (ds, di) = (s.elapsed().as_secs_f64(), i.elapsed().as_secs_f64());
        assert!((ds - di).abs() / di < 0.05, "stamp {ds} s vs clock {di} s");
    }
}
