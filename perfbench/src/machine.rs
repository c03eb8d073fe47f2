//! What a result must record about the machine it ran on, and the
//! process's resident memory.

use std::fs;

pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
}

impl Machine {
    pub fn probe() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }
}

/// Size of the first data or unified cache of `level` on cpu0 (0 if
/// the kernel does not say).
fn cache_bytes(level: u32) -> u64 {
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        let (Ok(l), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) else {
            continue;
        };
        if l != level.to_string() || kind == "Instruction" {
            continue;
        }
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size.as_str(), 1),
            },
        };
        return num.parse::<u64>().map_or(0, |n| n * mult);
    }
    0
}

/// Resident set size of this process in bytes (0 if unknown).
pub fn rss_bytes() -> u64 {
    let page = 4096u64;
    fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * page)
}
