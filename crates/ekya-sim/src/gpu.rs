//! Fractional GPU shares under MPS (§5).
//!
//! The thief scheduler produces "continuous" fractional allocations that
//! may span physical GPUs. To avoid cross-GPU communication, Ekya
//! quantises allocations to inverse powers of two (1/2, 1/4, 1/8).
//! Changing a job's allocation under Nvidia MPS requires restarting the
//! process, which the actor-based implementation mitigates but does not
//! eliminate — [`MpsCosts`] prices that restart.

use serde::{Deserialize, Serialize};

/// Quantises a fractional GPU demand to the MPS-friendly grid: integers
/// for demands ≥ 1 (rounded down, min 1), inverse powers of two
/// (1/2, 1/4, 1/8) below 1, and 0 below 1/16.
pub fn quantize_inv_pow2(alloc: f64) -> f64 {
    if alloc >= 1.0 {
        return alloc.floor();
    }
    for &q in &[0.5, 0.25, 0.125] {
        if alloc >= q {
            return q;
        }
    }
    if alloc >= 1.0 / 16.0 {
        0.125 // round the in-between band up to the smallest slice
    } else {
        0.0
    }
}

/// MPS reallocation cost model: seconds of downtime a job pays when its
/// allocation changes (process restart under MPS; §5 notes the
/// actor-based design keeps the model in GPU memory, shrinking but not
/// eliminating this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpsCosts {
    /// Seconds to restart a job at a new allocation.
    pub realloc_restart_secs: f64,
}

impl Default for MpsCosts {
    fn default() -> Self {
        Self { realloc_restart_secs: 0.5 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_grid() {
        assert_eq!(quantize_inv_pow2(2.7), 2.0);
        assert_eq!(quantize_inv_pow2(1.0), 1.0);
        assert_eq!(quantize_inv_pow2(0.9), 0.5);
        assert_eq!(quantize_inv_pow2(0.5), 0.5);
        assert_eq!(quantize_inv_pow2(0.3), 0.25);
        assert_eq!(quantize_inv_pow2(0.2), 0.125);
        assert_eq!(quantize_inv_pow2(0.125), 0.125);
        assert_eq!(quantize_inv_pow2(0.07), 0.125);
        assert_eq!(quantize_inv_pow2(0.01), 0.0);
    }

    #[test]
    fn quantization_never_increases_beyond_double() {
        // Sum of quantised demands stays within the original budget for
        // the >= 1/8 region (quantisation rounds down there).
        for &a in &[0.13, 0.27, 0.6, 0.99, 1.5, 3.2] {
            assert!(quantize_inv_pow2(a) <= a + 1e-9, "quantize({a}) grew");
        }
    }
}
