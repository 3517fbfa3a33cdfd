//! Edge↔cloud links for the cloud-retraining comparison (§6.5, Table 4).
//!
//! The paper evaluates cloud-based retraining over the networks typical
//! of edge deployments: 4G cellular (5.1 Mbps up / 17.5 Mbps down, from
//! OpenSignal \[59\]), satellite (8.5 / 15, FCC \[53\]), and a double
//! cellular subscription (10.2 / 35). Each link is one half-duplex
//! medium: uploads and downloads share it and queue first-in-first-out,
//! so their times add up — the paper's arithmetic ("takes a total of 432
//! seconds"), and how a single cellular/satellite subscription behaves
//! under sustained load. Bulk-transfer completion times are what Table 4
//! needs, and those are bandwidth-dominated; per-packet simulation, TCP
//! dynamics and loss are omitted.

/// A half-duplex edge↔cloud link.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Uplink bandwidth in megabits/second.
    pub uplink_mbps: f64,
    /// Downlink bandwidth in megabits/second.
    pub downlink_mbps: f64,
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
}

impl LinkModel {
    /// 4G cellular uplink/downlink (OpenSignal 2019 US report \[59\]).
    pub fn cellular() -> Self {
        Self { name: "Cellular", uplink_mbps: 5.1, downlink_mbps: 17.5, latency_ms: 50.0 }
    }

    /// Satellite broadband (FCC Measuring Broadband America \[53\]).
    pub fn satellite() -> Self {
        Self { name: "Satellite", uplink_mbps: 8.5, downlink_mbps: 15.0, latency_ms: 300.0 }
    }

    /// Two bonded cellular subscriptions (the paper's "Cellular (2x)").
    pub fn cellular_2x() -> Self {
        Self { name: "Cellular (2x)", uplink_mbps: 10.2, downlink_mbps: 35.0, latency_ms: 50.0 }
    }

    /// Seconds to upload `mbits` megabits, including propagation latency.
    pub fn upload_secs(&self, mbits: f64) -> f64 {
        self.transfer_secs(mbits, self.uplink_mbps)
    }

    /// Seconds to download `mbits` megabits, including propagation
    /// latency.
    pub fn download_secs(&self, mbits: f64) -> f64 {
        self.transfer_secs(mbits, self.downlink_mbps)
    }

    fn transfer_secs(&self, mbits: f64, mbps: f64) -> f64 {
        mbits.max(0.0) / mbps.max(1e-9) + self.latency_ms / 1000.0
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

/// The FIFO queue of one half-duplex link: a single busy horizon that
/// transfers in either direction wait for. It starts idle at t = 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkQueue {
    free_at: f64,
}

impl LinkQueue {
    /// Queues a transfer that takes `secs` and may start at `ready_at`.
    /// It starts once the link is free, and the link stays busy until it
    /// finishes. Returns `(started_at, finished_at)`.
    pub fn schedule(&mut self, ready_at: f64, secs: f64) -> (f64, f64) {
        let started_at = ready_at.max(self.free_at);
        self.free_at = started_at + secs;
        (started_at, self.free_at)
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
    }

    #[test]
    fn transfer_time_matches_paper_example() {
        // §6.5: 160 Mb per camera over a 5.1 Mbps uplink plus a 398 Mb
        // model over 17.5 Mbps; 8 cameras exceed a 400 s window.
        let link = LinkModel::cellular();
        let up = link.upload_secs(160.0);
        let down = link.download_secs(398.0);
        let total_8 = 8.0 * (up + down);
        assert!(total_8 > 400.0, "8 cameras must exceed the 400 s window: {total_8:.0}s");
        // Single camera upload ~31s.
        assert!((up - (160.0 / 5.1 + 0.05)).abs() < 1e-9);
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
        assert!((l.upload_secs(0.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fifo_serialises_both_directions() {
        let mut q = LinkQueue::default();
        assert_eq!(q.schedule(0.0, 10.0), (0.0, 10.0));
        // A download queues behind the upload on the shared medium.
        assert_eq!(q.schedule(0.0, 5.0), (10.0, 15.0));
    }

    #[test]
    fn eight_camera_window_exceeds_400s_on_cellular() {
        // The §6.5 head calculation: 8 cameras upload 160 Mb each, then
        // download 398 Mb models; on single 4G this blows the 400 s window.
        let link = LinkModel::cellular();
        let mut q = LinkQueue::default();
        let uploaded: Vec<f64> =
            (0..8).map(|_| q.schedule(0.0, link.upload_secs(160.0)).1).collect();
        let last_up = uploaded[7];
        let mut makespan = 0.0;
        for ready_at in uploaded {
            makespan = q.schedule(ready_at, link.download_secs(398.0)).1; // train instantly
        }
        assert!(last_up > 250.0, "uploads alone take ~251 s: {last_up:.0}");
        assert!(makespan > 400.0, "total must exceed the 400 s window: {makespan:.0}");
    }

    #[test]
    fn ready_time_is_respected() {
        let mut q = LinkQueue::default();
        assert_eq!(q.schedule(42.0, 1.0), (42.0, 43.0));
    }
}
