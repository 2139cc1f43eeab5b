//! The sampling VIRQ.
//!
//! Paper §III-B: "The hypervisor gathers and monitors all the memory
//! utilization behavior and sends it to the TKM in the privileged domain via
//! a virtual interrupt request (VIRQ). This VIRQ is sent to the TKM every
//! second." This module is the timer bookkeeping for that recurring
//! interrupt; the scenario event loop asks it when the next interrupt is due
//! and calls [`crate::Hypervisor::sample`] at that instant.

use sim_core::faults::SampleFate;
use sim_core::time::{SimDuration, SimTime};
use tmem::stats::StatsMsg;

/// Recurring sampling-interrupt schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingVirq {
    period: SimDuration,
    next_due: SimTime,
    fired: u64,
}

impl SamplingVirq {
    /// A VIRQ firing every `period`, first at `period` after time zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(
            period > SimDuration::ZERO,
            "sampling period must be positive"
        );
        SamplingVirq {
            period,
            next_due: SimTime::ZERO + period,
            fired: 0,
        }
    }

    /// The paper's fixed one-second interval.
    pub fn paper_default() -> Self {
        SamplingVirq::new(SimDuration::from_secs(1))
    }

    /// Instant of the next interrupt.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Number of interrupts fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Mark the interrupt fired and advance the schedule. `now` must be the
    /// due instant (the event loop pops the event at exactly that time).
    pub fn fire(&mut self, now: SimTime) -> SimTime {
        debug_assert_eq!(now, self.next_due, "VIRQ fired off schedule");
        self.fired += 1;
        self.next_due = now + self.period;
        self.next_due
    }
}

/// The VIRQ → dom0 sample channel, with fault-fate application.
///
/// The hypervisor's per-interval snapshot crosses this channel on its way
/// to the privileged domain. Under fault injection a sample can be dropped,
/// held back one interval (delivered late, behind the next sample — i.e.
/// reordered), or duplicated. The channel owns the one-slot delay buffer;
/// the *decision* comes from a `FaultInjector` upstream, so this stays
/// deterministic and decision-free.
#[derive(Debug, Default)]
pub struct SampleChannel {
    delayed: Option<StatsMsg>,
    delivered: u64,
}

impl SampleChannel {
    /// An empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push this interval's sample with its fate and append the messages
    /// that come out of the channel *this* interval (at most three) to
    /// `out`, in arrival order; the caller reuses `out` across intervals. A
    /// previously delayed sample is always flushed first (it reorders
    /// behind the newer one only when the newer one is itself delayed).
    pub fn push_into(&mut self, msg: StatsMsg, fate: SampleFate, out: &mut Vec<StatsMsg>) {
        let start = out.len();
        if let Some(old) = self.delayed.take() {
            out.push(old);
        }
        match fate {
            SampleFate::Deliver => out.push(msg),
            SampleFate::Drop => {}
            SampleFate::Delay => self.delayed = Some(msg),
            SampleFate::Duplicate => {
                out.push(msg.clone());
                out.push(msg);
            }
        }
        self.delivered += (out.len() - start) as u64;
    }

    /// Messages delivered out of the channel so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Whether a delayed sample is still buffered.
    pub fn has_delayed(&self) -> bool {
        self.delayed.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use tmem::stats::{MemStats, NodeInfo};

    fn msg(seq: u64) -> StatsMsg {
        StatsMsg {
            seq,
            stats: MemStats {
                at: SimTime::from_secs(seq),
                node: NodeInfo {
                    total_tmem: 1,
                    free_tmem: 1,
                    vm_count: 0,
                },
                vms: Vec::new(),
            },
        }
    }

    #[test]
    fn fires_every_period() {
        let mut v = SamplingVirq::paper_default();
        assert_eq!(v.next_due(), SimTime::from_secs(1));
        let next = v.fire(SimTime::from_secs(1));
        assert_eq!(next, SimTime::from_secs(2));
        assert_eq!(v.fired(), 1);
        v.fire(SimTime::from_secs(2));
        assert_eq!(v.next_due(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_rejected() {
        SamplingVirq::new(SimDuration::ZERO);
    }

    /// Push sample `seq` and return the sequence numbers that come out.
    fn push(ch: &mut SampleChannel, seq: u64, fate: SampleFate) -> Vec<u64> {
        let mut out = Vec::new();
        ch.push_into(msg(seq), fate, &mut out);
        out.iter().map(|m| m.seq).collect()
    }

    #[test]
    fn channel_passes_through_on_deliver() {
        let mut ch = SampleChannel::new();
        assert_eq!(push(&mut ch, 1, SampleFate::Deliver), [1]);
        assert_eq!(ch.delivered(), 1);
    }

    #[test]
    fn channel_drops_and_duplicates() {
        let mut ch = SampleChannel::new();
        assert!(push(&mut ch, 1, SampleFate::Drop).is_empty());
        assert_eq!(push(&mut ch, 2, SampleFate::Duplicate), [2, 2]);
    }

    #[test]
    fn delayed_sample_arrives_behind_the_next_one() {
        let mut ch = SampleChannel::new();
        assert!(push(&mut ch, 1, SampleFate::Delay).is_empty());
        assert!(ch.has_delayed());
        // Sample 1 flushes ahead of 2 (late but in order)...
        assert_eq!(push(&mut ch, 2, SampleFate::Deliver), [1, 2]);
        // ...but two consecutive delays genuinely reorder: 3 is flushed when
        // 4 arrives delayed, then 4 flushes behind 5.
        assert!(push(&mut ch, 3, SampleFate::Delay).is_empty());
        assert_eq!(push(&mut ch, 4, SampleFate::Delay), [3]);
        assert_eq!(push(&mut ch, 5, SampleFate::Deliver), [4, 5]);
    }
}
