//! Moving a single-threaded closed loop across the CPUs it may run on.
//!
//! On a shared virtual machine each vCPU has slow spells of its own,
//! seconds long, in which an in-cache loop runs 20–40% slower; the
//! spells of the two vCPUs of the reference host came at different
//! times. A thread that stays on one vCPU reports that vCPU's luck, so
//! the figures of a single-threaded workload spread from run to run. A
//! thread that moves to the next allowed CPU every [`PERIOD`] samples
//! all of them. On `embedded_read` (20 alternating runs of 6 s) this cut
//! the run-to-run spread of `write_p50_ns` from 0.27 to 0.15 and of
//! `ops_per_s` from 0.13 to 0.08, and made the medians 2–7% slower (a
//! move refills the private caches and wakes an idle vCPU).
//!
//! Off Linux, or with one allowed CPU, a [`Rotor`] does nothing.

use std::time::Duration;

use crate::clock::Stamp;

/// How long the thread stays on one CPU.
pub const PERIOD: Duration = Duration::from_millis(250);

#[cfg(target_os = "linux")]
mod sys {
    /// CPU mask words: room for 1024 CPUs.
    pub const WORDS: usize = 16;
    pub type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's allowed CPUs.
    pub fn get() -> Option<Mask> {
        let mut m = [0u64; WORDS];
        // SAFETY: `m` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, m.as_mut_ptr()) };
        (rc >= 0).then_some(m)
    }

    /// Restrict the calling thread to `m`.
    pub fn set(m: &Mask) {
        // SAFETY: `m` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread. A failure leaves the thread
        // where it was, which only forgoes the move.
        unsafe {
            sched_setaffinity(0, WORDS * 8, m.as_ptr());
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const WORDS: usize = 1;
    pub type Mask = [u64; WORDS];
    pub fn get() -> Option<Mask> {
        None
    }
    pub fn set(_: &Mask) {}
}

/// Moves the calling thread to the next allowed CPU every [`PERIOD`];
/// gives the thread back all its CPUs when dropped.
///
/// The CPU is a function of time since `origin`: in period `p` the
/// thread runs on CPU `(p + offset) mod n`. Threads that share an origin
/// and have different offsets therefore never share a CPU (with at most
/// as many threads as CPUs), however their calls interleave.
pub struct Rotor {
    allowed: sys::Mask,
    cpus: Vec<usize>,
    origin: Stamp,
    offset: usize,
    due: Stamp,
}

impl Rotor {
    pub fn new(origin: Stamp, offset: usize) -> Self {
        let allowed = sys::get().unwrap_or([0; sys::WORDS]);
        let cpus = (0..sys::WORDS * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let mut r = Self {
            allowed,
            cpus,
            origin,
            offset,
            due: origin,
        };
        r.tick(Stamp::now());
        r
    }

    /// Move on if this CPU's period is over; `now` is a stamp the
    /// caller already took.
    #[inline]
    pub fn tick(&mut self, now: Stamp) {
        if now >= self.due {
            self.step(now);
        }
    }

    #[cold]
    fn step(&mut self, now: Stamp) {
        let period = (now - self.origin).as_nanos() / PERIOD.as_nanos();
        self.due = self.origin + PERIOD * (period as u32 + 1);
        if self.cpus.len() < 2 {
            return;
        }
        let c = self.cpus[(period as usize + self.offset) % self.cpus.len()];
        let mut m = [0u64; sys::WORDS];
        m[c / 64] |= 1 << (c % 64);
        sys::set(&m);
    }
}

impl Drop for Rotor {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            sys::set(&self.allowed);
        }
    }
}
