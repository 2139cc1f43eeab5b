//! The cluster interconnect model.
//!
//! Multi-host runs move bulk page traffic (VM migrations, far-memory
//! spills) across a modelled network link. The model is deliberately
//! simple — a fixed per-transfer latency plus a per-page serialization
//! cost, queued FIFO behind a single `busy_until` horizon — because what
//! the fleet experiments rely on is the *ordering* pressure a shared link
//! puts on migrations, not packet-level fidelity. Everything here is
//! integer-nanosecond arithmetic with zero RNG, so cluster runs stay
//! bit-deterministic and a disabled network model can never perturb
//! existing goldens.

use crate::time::{SimDuration, SimTime};

/// Latency/bandwidth parameters of one cluster link.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Fixed cost of one transfer: connection setup, protocol handshake,
    /// propagation. Charged once per transfer regardless of size.
    pub latency: SimDuration,
    /// Serialization time of one 4 KiB page at the link's sustained
    /// bandwidth.
    pub page_transfer: SimDuration,
}

impl NetModel {
    /// A 10 GbE-class datacenter link: ~50 µs setup, 4 KiB at ~10 Gbit/s
    /// ≈ 3.2 µs/page.
    pub fn datacenter() -> Self {
        NetModel {
            latency: SimDuration::from_micros(50),
            page_transfer: SimDuration::from_nanos(3_200),
        }
    }

    /// A 1 GbE commodity link: ~200 µs setup, ~32 µs/page.
    pub fn commodity() -> Self {
        NetModel {
            latency: SimDuration::from_micros(200),
            page_transfer: SimDuration::from_micros(32),
        }
    }

    /// Wire time of one transfer moving `pages` pages, exclusive of
    /// queueing. Monotone in `pages` by construction.
    pub fn transfer_time(&self, pages: u64) -> SimDuration {
        SimDuration(self.latency.as_nanos() + pages * self.page_transfer.as_nanos())
    }
}

impl Default for NetModel {
    fn default() -> Self {
        Self::datacenter()
    }
}

/// One shared link with FIFO queueing: a transfer enqueued while the link
/// is busy starts when the previous transfer finishes. Tracks aggregate
/// traffic counters for the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The latency/bandwidth model this link applies.
    pub model: NetModel,
    /// Time at which the link becomes idle again.
    pub busy_until: SimTime,
    /// Total transfers enqueued.
    pub transfers: u64,
    /// Total pages moved across the link.
    pub pages_moved: u64,
    /// Accumulated time transfers spent waiting behind earlier transfers.
    pub queue_wait: SimDuration,
}

impl Link {
    /// A fresh, idle link.
    pub fn new(model: NetModel) -> Self {
        Link {
            model,
            busy_until: SimTime::ZERO,
            transfers: 0,
            pages_moved: 0,
            queue_wait: SimDuration::ZERO,
        }
    }

    /// Enqueue a transfer of `pages` pages at `now`. Returns
    /// `(start, finish)`: the transfer starts at `max(now, busy_until)`
    /// and occupies the link until `start + transfer_time(pages)`.
    pub fn enqueue(&mut self, now: SimTime, pages: u64) -> (SimTime, SimTime) {
        let start = if self.busy_until > now {
            self.queue_wait += SimDuration(self.busy_until.as_nanos() - now.as_nanos());
            self.busy_until
        } else {
            now
        };
        let finish = start + self.model.transfer_time(pages);
        self.busy_until = finish;
        self.transfers += 1;
        self.pages_moved += pages;
        (start, finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_deterministic_and_monotone() {
        let m = NetModel::datacenter();
        let mut prev = SimDuration::ZERO;
        for pages in 0..256u64 {
            let t = m.transfer_time(pages);
            assert_eq!(t, m.transfer_time(pages), "same input, same output");
            assert!(t >= prev, "transfer time must be monotone in size");
            assert!(t > SimDuration::ZERO, "latency floor always applies");
            prev = t;
        }
    }

    #[test]
    fn transfer_time_is_exactly_latency_plus_pages() {
        let m = NetModel::commodity();
        let t = m.transfer_time(17);
        assert_eq!(
            t.as_nanos(),
            m.latency.as_nanos() + 17 * m.page_transfer.as_nanos()
        );
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut link = Link::new(NetModel::datacenter());
        let now = SimTime(1_000_000);
        let (start, finish) = link.enqueue(now, 8);
        assert_eq!(start, now);
        assert_eq!(finish, now + link.model.transfer_time(8));
        assert_eq!(link.queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn busy_link_queues_fifo() {
        let mut link = Link::new(NetModel::datacenter());
        let now = SimTime(0);
        let (_, f1) = link.enqueue(now, 100);
        let (s2, f2) = link.enqueue(now, 100);
        assert_eq!(s2, f1, "second transfer waits for the first");
        assert_eq!(f2, f1 + link.model.transfer_time(100));
        let (s3, _) = link.enqueue(f2, 1);
        assert_eq!(s3, f2, "link idle again once drained");
        assert_eq!(link.transfers, 3);
        assert_eq!(link.pages_moved, 201);
        assert_eq!(
            link.queue_wait,
            link.model.transfer_time(100),
            "only the second transfer waited, for exactly one transfer time"
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut link = Link::new(NetModel::commodity());
        for i in 0..10 {
            link.enqueue(SimTime(i), 5);
        }
        assert_eq!(link.transfers, 10);
        assert_eq!(link.pages_moved, 50);
    }
}
