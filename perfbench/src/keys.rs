//! Deterministic keys and values.
//!
//! Every key is `mix64` of a (namespace, index) pair salted by the run
//! seed. `mix64` is a bijection, so distinct pairs give distinct keys:
//! keys of the miss namespace can never collide with stored ones, and
//! the generator knows every answer without a second hash table.

use hash_kit::mix64;

/// Keys that are stored (client `t` of a partitioned workload uses
/// `LIVE + t`).
pub const LIVE: u64 = 0;
/// Keys that are never stored: every lookup of one must miss.
pub const MISS: u64 = 0x7F;

/// The `i`-th key of namespace `ns` under `seed`.
#[inline]
pub fn key(seed: u64, ns: u64, i: u64) -> u64 {
    debug_assert!(i < 1 << 56, "key index {i} overflows its namespace");
    mix64(((ns << 56) | i) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The value written to `key` by its `version`-th write.
#[inline]
pub fn value(key: u64, version: u64) -> u64 {
    mix64(key ^ version.wrapping_mul(0xD6E8_FEB8_6659_FD93)) | 1
}

/// Derive an independent sub-seed for one purpose of one run.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    mix64(seed ^ mix64(purpose.wrapping_add(0x5EED)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_do_not_collide() {
        let live: std::collections::HashSet<u64> = (0..10_000).map(|i| key(7, LIVE, i)).collect();
        assert_eq!(live.len(), 10_000);
        assert!((0..10_000).all(|i| !live.contains(&key(7, MISS, i))));
    }
}
