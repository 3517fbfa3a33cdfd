//! Link models for the edge↔cloud comparison (§6.5, Table 4).
//!
//! The paper evaluates cloud-based retraining over the networks typical
//! of edge deployments: 4G cellular (5.1 Mbps up / 17.5 Mbps down, from
//! OpenSignal \[59\]), satellite (8.5 / 15, FCC \[53\]), and a double
//! cellular subscription (10.2 / 35). This module provides those presets
//! and the transfer-time model: bandwidth, propagation latency, and loss
//! priced as retransmission overhead.

use serde::{Deserialize, Serialize};

/// Direction of a transfer relative to the edge site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Edge → cloud (training data uploads).
    Uplink,
    /// Cloud → edge (model downloads).
    Downlink,
}

/// A bidirectional edge↔cloud link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Uplink bandwidth in megabits/second.
    pub uplink_mbps: f64,
    /// Downlink bandwidth in megabits/second.
    pub downlink_mbps: f64,
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
    /// Packet loss probability in `[0, 1)`; lost data is retransmitted,
    /// inflating effective transfer time by `1 / (1 - loss)`.
    pub loss: f64,
    /// When `true`, uplink and downlink share one medium and transfers
    /// serialise across directions. This matches both how a single
    /// cellular/satellite subscription behaves under sustained load and
    /// the paper's §6.5 arithmetic, which sums upload and download times
    /// ("takes a total of 432 seconds").
    pub half_duplex: bool,
}

impl LinkModel {
    /// 4G cellular uplink/downlink (OpenSignal 2019 US report \[59\]).
    pub fn cellular() -> Self {
        Self {
            name: "Cellular",
            uplink_mbps: 5.1,
            downlink_mbps: 17.5,
            latency_ms: 50.0,
            loss: 0.0,
            half_duplex: true,
        }
    }

    /// Satellite broadband (FCC Measuring Broadband America \[53\]).
    pub fn satellite() -> Self {
        Self {
            name: "Satellite",
            uplink_mbps: 8.5,
            downlink_mbps: 15.0,
            latency_ms: 300.0,
            loss: 0.0,
            half_duplex: true,
        }
    }

    /// Two bonded cellular subscriptions (the paper's "Cellular (2x)").
    pub fn cellular_2x() -> Self {
        Self {
            name: "Cellular (2x)",
            uplink_mbps: 10.2,
            downlink_mbps: 35.0,
            latency_ms: 50.0,
            loss: 0.0,
            half_duplex: true,
        }
    }

    /// All Table 4 presets, in the paper's row order.
    pub fn table4_presets() -> Vec<LinkModel> {
        vec![Self::cellular(), Self::satellite(), Self::cellular_2x()]
    }

    /// Bandwidth in the given direction, megabits/second.
    pub fn bandwidth_mbps(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Uplink => self.uplink_mbps,
            Direction::Downlink => self.downlink_mbps,
        }
    }

    /// Seconds to move `mbits` megabits in the given direction, including
    /// propagation latency and loss-driven retransmission overhead.
    pub fn transfer_secs(&self, mbits: f64, dir: Direction) -> f64 {
        let bw = self.bandwidth_mbps(dir).max(1e-9);
        let effective = mbits.max(0.0) / (1.0 - self.loss.clamp(0.0, 0.99));
        effective / bw + self.latency_ms / 1000.0
    }

    /// Returns a copy with bandwidth scaled by `factor` in both
    /// directions — used to answer Table 4's "how much more bandwidth
    /// would the cloud need" question.
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            uplink_mbps: self.uplink_mbps * factor,
            downlink_mbps: self.downlink_mbps * factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_numbers() {
        let c = LinkModel::cellular();
        assert_eq!(c.uplink_mbps, 5.1);
        assert_eq!(c.downlink_mbps, 17.5);
        let s = LinkModel::satellite();
        assert_eq!(s.uplink_mbps, 8.5);
        assert_eq!(s.downlink_mbps, 15.0);
        let c2 = LinkModel::cellular_2x();
        assert_eq!(c2.uplink_mbps, 10.2);
        assert_eq!(c2.downlink_mbps, 35.0);
        assert_eq!(LinkModel::table4_presets().len(), 3);
    }

    #[test]
    fn transfer_time_matches_paper_example() {
        // §6.5: 160 Mb per camera over a 5.1 Mbps uplink plus a 398 Mb
        // model over 17.5 Mbps; 8 cameras exceed a 400 s window.
        let link = LinkModel::cellular();
        let up = link.transfer_secs(160.0, Direction::Uplink);
        let down = link.transfer_secs(398.0, Direction::Downlink);
        let total_8 = 8.0 * (up + down);
        assert!(total_8 > 400.0, "8 cameras must exceed the 400 s window: {total_8:.0}s");
        // Single camera upload ~31s.
        assert!((up - (160.0 / 5.1 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn loss_inflates_transfer_time() {
        let clean = LinkModel::cellular();
        let lossy = LinkModel { loss: 0.5, ..clean };
        let t_clean = clean.transfer_secs(100.0, Direction::Uplink);
        let t_lossy = lossy.transfer_secs(100.0, Direction::Uplink);
        assert!(t_lossy > t_clean * 1.9, "50% loss should ~double time");
    }

    #[test]
    fn scaled_link_multiplies_bandwidth() {
        let l = LinkModel::cellular().scaled(2.0);
        assert!((l.uplink_mbps - 10.2).abs() < 1e-12);
        assert!((l.downlink_mbps - 35.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bits_costs_only_latency() {
        let l = LinkModel::satellite();
        assert!((l.transfer_secs(0.0, Direction::Uplink) - 0.3).abs() < 1e-12);
    }
}
