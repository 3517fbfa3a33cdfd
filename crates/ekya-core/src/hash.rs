//! Deterministic, dependency-free hashing shared across the workspace.
//!
//! Cell seeding (`ekya-bench`), hold-out registry memo keys
//! (`ekya-baselines`), trace fingerprints (`ekya-sim`), and merge
//! fingerprints (`ekya_grid`) all need a hash that is identical
//! across processes, machines, and runs — `std::hash` is seeded
//! per-process, so it cannot provide run-to-run determinism. FNV-1a is
//! the one implementation they share; a change here reshuffles every
//! cell seed and invalidates every recorded result, which is why the
//! reference test vectors below are load-bearing.

/// FNV-1a over a byte string (64-bit).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors: a change here silently
        // reshuffles every cell seed and invalidates recorded results.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
