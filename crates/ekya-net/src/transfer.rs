//! Shared-link transfer scheduling.
//!
//! Table 4's cloud-retraining alternative pushes every camera's sampled
//! training data up one shared edge uplink and pulls every retrained
//! model down the shared downlink. Transfers on the same direction
//! contend; this module serialises them FIFO (which matches how a single
//! TCP-friendly bulk pipe behaves for long transfers: total completion
//! time is work-conserving regardless of interleaving).

use crate::link::{Direction, LinkModel};
use serde::{Deserialize, Serialize};

/// One queued bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// Opaque tag the caller uses to identify the transfer (e.g. stream
    /// id).
    pub tag: u32,
    /// Size in megabits.
    pub mbits: f64,
    /// Direction relative to the edge.
    pub direction: Direction,
    /// Earliest start time, seconds.
    pub ready_at: f64,
}

/// A completed transfer with its finish time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedTransfer {
    /// The original request.
    pub transfer: Transfer,
    /// Time the transfer started moving bits.
    pub started_at: f64,
    /// Time the last bit (plus propagation) arrived.
    pub finished_at: f64,
}

/// FIFO scheduler over one [`LinkModel`]. Full-duplex links keep one busy
/// horizon per direction; half-duplex links (single cellular/satellite
/// subscription) serialise transfers across both directions.
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    link: LinkModel,
    /// Next idle time per direction (both alias the medium when the link
    /// is half-duplex).
    uplink_free_at: f64,
    downlink_free_at: f64,
}

impl LinkScheduler {
    /// Creates a scheduler for `link` with both directions idle at t = 0.
    pub fn new(link: LinkModel) -> Self {
        Self { link, uplink_free_at: 0.0, downlink_free_at: 0.0 }
    }

    /// Schedules one transfer; returns its completion record and advances
    /// the busy horizon (per direction, or shared when half-duplex).
    pub fn schedule(&mut self, t: Transfer) -> CompletedTransfer {
        let busy = if self.link.half_duplex {
            self.uplink_free_at.max(self.downlink_free_at)
        } else {
            match t.direction {
                Direction::Uplink => self.uplink_free_at,
                Direction::Downlink => self.downlink_free_at,
            }
        };
        let started_at = t.ready_at.max(busy);
        let duration = self.link.transfer_secs(t.mbits, t.direction);
        let finished_at = started_at + duration;
        if self.link.half_duplex {
            self.uplink_free_at = finished_at;
            self.downlink_free_at = finished_at;
        } else {
            match t.direction {
                Direction::Uplink => self.uplink_free_at = finished_at,
                Direction::Downlink => self.downlink_free_at = finished_at,
            }
        }
        CompletedTransfer { transfer: t, started_at, finished_at }
    }

    /// Schedules a batch (processed in the given order) and returns all
    /// completions.
    pub fn schedule_all(&mut self, transfers: &[Transfer]) -> Vec<CompletedTransfer> {
        transfers.iter().map(|&t| self.schedule(t)).collect()
    }

    /// Time at which the given direction next becomes idle.
    pub fn free_at(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Uplink => self.uplink_free_at,
            Direction::Downlink => self.downlink_free_at,
        }
    }

    /// Resets both directions to idle at t = 0 (start of a new window).
    pub fn reset(&mut self) {
        self.uplink_free_at = 0.0;
        self.downlink_free_at = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(tag: u32, mbits: f64, ready: f64) -> Transfer {
        Transfer { tag, mbits, direction: Direction::Uplink, ready_at: ready }
    }

    #[test]
    fn fifo_serialises_same_direction() {
        let mut s = LinkScheduler::new(LinkModel {
            name: "test",
            uplink_mbps: 10.0,
            downlink_mbps: 10.0,
            latency_ms: 0.0,
            loss: 0.0,
            half_duplex: false,
        });
        let a = s.schedule(upload(0, 100.0, 0.0)); // 10 s
        let b = s.schedule(upload(1, 50.0, 0.0)); // 5 s, queued behind a
        assert!((a.finished_at - 10.0).abs() < 1e-9);
        assert!((b.started_at - 10.0).abs() < 1e-9);
        assert!((b.finished_at - 15.0).abs() < 1e-9);
    }

    #[test]
    fn directions_do_not_contend() {
        let mut s = LinkScheduler::new(LinkModel {
            name: "test",
            uplink_mbps: 10.0,
            downlink_mbps: 20.0,
            latency_ms: 0.0,
            loss: 0.0,
            half_duplex: false,
        });
        let up = s.schedule(upload(0, 100.0, 0.0));
        let down = s.schedule(Transfer {
            tag: 1,
            mbits: 100.0,
            direction: Direction::Downlink,
            ready_at: 0.0,
        });
        assert!((up.finished_at - 10.0).abs() < 1e-9);
        assert!((down.finished_at - 5.0).abs() < 1e-9, "downlink runs concurrently");
    }

    #[test]
    fn ready_time_is_respected() {
        let mut s = LinkScheduler::new(LinkModel {
            name: "test",
            uplink_mbps: 10.0,
            downlink_mbps: 10.0,
            latency_ms: 0.0,
            loss: 0.0,
            half_duplex: false,
        });
        let t = s.schedule(upload(0, 10.0, 42.0));
        assert!((t.started_at - 42.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_queues() {
        let mut s = LinkScheduler::new(LinkModel::cellular());
        s.schedule(upload(0, 1000.0, 0.0));
        assert!(s.free_at(Direction::Uplink) > 0.0);
        s.reset();
        assert_eq!(s.free_at(Direction::Uplink), 0.0);
    }

    #[test]
    fn eight_camera_window_exceeds_400s_on_cellular() {
        // The §6.5 head calculation: 8 cameras upload 160 Mb each, then
        // download 398 Mb models; on single 4G this blows the 400 s window.
        let mut s = LinkScheduler::new(LinkModel::cellular());
        let uploads: Vec<Transfer> = (0..8).map(|i| upload(i, 160.0, 0.0)).collect();
        let up_done = s.schedule_all(&uploads);
        let last_up = up_done.last().unwrap().finished_at;
        let downloads: Vec<Transfer> = (0..8)
            .map(|i| Transfer {
                tag: i,
                mbits: 398.0,
                direction: Direction::Downlink,
                ready_at: up_done[i as usize].finished_at, // train instantly
            })
            .collect();
        let down_done = s.schedule_all(&downloads);
        let makespan = down_done.last().unwrap().finished_at;
        assert!(last_up > 250.0, "uploads alone take ~251 s: {last_up:.0}");
        assert!(makespan > 400.0, "total must exceed the 400 s window: {makespan:.0}");
    }
}
