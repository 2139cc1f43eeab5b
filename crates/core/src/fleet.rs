//! The fleet scheduler: MM-grade placement decisions across hosts.
//!
//! A multi-host cluster shards the node-level tmem story across N
//! independent hosts, each running its own hypervisor + TKM + Memory
//! Manager. What no single-host MM can see is *imbalance between hosts*:
//! one host's guests thrashing against a full pool while another host
//! strands free tmem pages. The [`FleetManager`] is the cross-host
//! analogue of the paper's MM — it consumes per-host pressure vectors
//! every sampling interval and, when the spread between the hottest and
//! coolest host exceeds a threshold, picks one VM to migrate.
//!
//! The decision procedure is deliberately simple and fully deterministic
//! (no RNG, total tie-break order):
//!
//! 1. pressure of host `h` = `(used + failed_puts_delta) / capacity` —
//!    occupancy plus this interval's admission failures, so a host that is
//!    full *and still being asked for more* ranks above one that is merely
//!    full,
//! 2. wait out `min_history` intervals of warm-up and `cooldown_intervals`
//!    after each migration (migrations are expensive; back-to-back moves
//!    oscillate),
//! 3. if `pressure(hottest) - pressure(coolest) > divergence_threshold`,
//!    migrate the largest VM on the hottest host that fits in the coolest
//!    host's free pages — or, when none fits, the smallest non-empty VM
//!    (shedding *something* beats shedding nothing).
//!
//! Ties (equal pressure, equal size) break toward the lower host index and
//! the lower [`VmId`], in that order.

use tmem::key::VmId;

/// Tunables of the fleet scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Minimum pressure spread between hottest and coolest host before a
    /// migration is considered. Pressure is a ratio of capacity, so 0.25
    /// means "a quarter of a host's tmem".
    pub divergence_threshold: f64,
    /// Intervals to wait after a migration before considering another.
    pub cooldown_intervals: u64,
    /// Intervals of warm-up before the first migration may fire.
    pub min_history: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            divergence_threshold: 0.25,
            cooldown_intervals: 5,
            min_history: 3,
        }
    }
}

/// One host's load as seen at an interval close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostLoad {
    /// Pages in use (local tmem + far tier).
    pub used: u64,
    /// Local tmem capacity in pages.
    pub capacity: u64,
    /// Failed puts across the host's resident VMs since the previous
    /// interval.
    pub failed_puts_delta: u64,
}

impl HostLoad {
    /// The scheduler's pressure metric for this host.
    pub fn pressure(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        (self.used + self.failed_puts_delta) as f64 / self.capacity as f64
    }

    /// Free local pages.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }
}

/// A migratable VM's current placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmPlacement {
    /// The VM.
    pub vm: VmId,
    /// Host it currently resides on.
    pub host: usize,
    /// Pages it holds there (local + far).
    pub used: u64,
}

/// One migration the scheduler wants executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The VM to move.
    pub vm: VmId,
    /// Source host.
    pub from: usize,
    /// Destination host.
    pub to: usize,
}

/// The cross-host scheduler. Feed it one [`FleetManager::decide`] call per
/// sampling interval; it returns at most one [`MigrationPlan`] and applies
/// its own warm-up and cooldown pacing.
#[derive(Debug, Clone)]
pub struct FleetManager {
    cfg: FleetConfig,
    intervals_seen: u64,
    last_migration_at: Option<u64>,
}

impl FleetManager {
    /// A fresh scheduler.
    pub fn new(cfg: FleetConfig) -> Self {
        FleetManager {
            cfg,
            intervals_seen: 0,
            last_migration_at: None,
        }
    }

    /// Intervals observed so far.
    pub fn intervals(&self) -> u64 {
        self.intervals_seen
    }

    /// One scheduling cycle. `loads` is indexed by host; `vms` lists every
    /// *migratable* VM (callers exclude VMs whose lifecycle state pins
    /// them). Deterministic: identical inputs yield identical plans.
    pub fn decide(&mut self, loads: &[HostLoad], vms: &[VmPlacement]) -> Option<MigrationPlan> {
        self.intervals_seen += 1;
        if loads.len() < 2 || self.intervals_seen < self.cfg.min_history {
            return None;
        }
        if let Some(at) = self.last_migration_at {
            if self.intervals_seen - at <= self.cfg.cooldown_intervals {
                return None;
            }
        }
        // Hottest and coolest host; ties break to the lower index because
        // strict comparison never replaces an equal earlier candidate.
        let mut hot = 0usize;
        let mut cool = 0usize;
        for h in 1..loads.len() {
            if loads[h].pressure() > loads[hot].pressure() {
                hot = h;
            }
            if loads[h].pressure() < loads[cool].pressure() {
                cool = h;
            }
        }
        if hot == cool
            || loads[hot].pressure() - loads[cool].pressure() <= self.cfg.divergence_threshold
        {
            return None;
        }
        let dest_free = loads[cool].free();
        // Largest resident VM that fits in the destination's free local
        // pages; otherwise the smallest non-empty one. VmId breaks ties.
        let mut fitting: Option<VmPlacement> = None;
        let mut smallest: Option<VmPlacement> = None;
        for p in vms.iter().filter(|p| p.host == hot && p.used > 0) {
            if p.used <= dest_free
                && fitting.is_none_or(|f| p.used > f.used || (p.used == f.used && p.vm < f.vm))
            {
                fitting = Some(*p);
            }
            if smallest.is_none_or(|s| p.used < s.used || (p.used == s.used && p.vm < s.vm)) {
                smallest = Some(*p);
            }
        }
        let pick = fitting.or(smallest)?;
        self.last_migration_at = Some(self.intervals_seen);
        Some(MigrationPlan {
            vm: pick.vm,
            from: hot,
            to: cool,
        })
    }
}

/// Stranded free pages this interval: when at least one host rejected puts,
/// every free page on hosts that rejected nothing is capacity the fleet
/// owned but could not bring to bear. Summed per interval by the runner
/// into the `stranded_page_intervals` fleet metric.
pub fn stranded_pages(loads: &[HostLoad]) -> u64 {
    if loads.iter().any(|l| l.failed_puts_delta > 0) {
        loads
            .iter()
            .filter(|l| l.failed_puts_delta == 0)
            .map(|l| l.free())
            .sum()
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> FleetManager {
        FleetManager::new(FleetConfig {
            divergence_threshold: 0.25,
            cooldown_intervals: 2,
            min_history: 1,
        })
    }

    fn load(used: u64, capacity: u64, failed: u64) -> HostLoad {
        HostLoad {
            used,
            capacity,
            failed_puts_delta: failed,
        }
    }

    #[test]
    fn no_migration_below_threshold() {
        let mut m = mgr();
        let loads = [load(50, 100, 0), load(40, 100, 0)];
        let vms = [VmPlacement {
            vm: VmId(1),
            host: 0,
            used: 50,
        }];
        assert_eq!(m.decide(&loads, &vms), None);
    }

    #[test]
    fn pressure_spread_triggers_migration_of_largest_fitting_vm() {
        let mut m = mgr();
        // Destination has only 90 free pages... plenty: the largest VM
        // (60 pages) fits and is preferred over the smaller one.
        let loads = [load(90, 100, 20), load(10, 100, 0)];
        let vms = [
            VmPlacement {
                vm: VmId(1),
                host: 0,
                used: 60,
            },
            VmPlacement {
                vm: VmId(2),
                host: 0,
                used: 30,
            },
        ];
        let plan = m.decide(&loads, &vms).expect("spread is 1.1 vs 0.1");
        assert_eq!(
            plan,
            MigrationPlan {
                vm: VmId(1),
                from: 0,
                to: 1
            }
        );
    }

    #[test]
    fn fitting_vm_preferred_over_smallest() {
        let mut m = mgr();
        // Destination has 40 free pages: VM1 (60) does not fit, VM2 (30)
        // does — the fitting VM wins even though VM1 is larger.
        let loads = [load(95, 100, 30), load(60, 100, 0)];
        let vms = [
            VmPlacement {
                vm: VmId(1),
                host: 0,
                used: 60,
            },
            VmPlacement {
                vm: VmId(2),
                host: 0,
                used: 30,
            },
        ];
        let plan = m.decide(&loads, &vms).unwrap();
        assert_eq!(plan.vm, VmId(2), "largest VM that fits in 40 free pages");
    }

    #[test]
    fn nothing_fits_sheds_the_smallest_nonempty_vm() {
        let mut m = mgr();
        // Destination has 5 free pages: neither VM fits, so the smallest
        // non-empty VM is shed (moving something beats moving nothing).
        let loads = [load(100, 100, 80), load(95, 100, 0)];
        let vms = [
            VmPlacement {
                vm: VmId(1),
                host: 0,
                used: 60,
            },
            VmPlacement {
                vm: VmId(2),
                host: 0,
                used: 30,
            },
        ];
        let plan = m.decide(&loads, &vms).unwrap();
        assert_eq!(plan.vm, VmId(2));
    }

    #[test]
    fn cooldown_suppresses_back_to_back_migrations() {
        let mut m = mgr();
        let loads = [load(95, 100, 50), load(5, 100, 0)];
        let vms = [VmPlacement {
            vm: VmId(1),
            host: 0,
            used: 20,
        }];
        assert!(m.decide(&loads, &vms).is_some());
        for _ in 0..2 {
            assert_eq!(m.decide(&loads, &vms), None, "inside cooldown");
        }
        assert!(m.decide(&loads, &vms).is_some(), "cooldown expired");
    }

    #[test]
    fn warm_up_defers_first_decision() {
        let mut m = FleetManager::new(FleetConfig {
            min_history: 3,
            ..FleetConfig::default()
        });
        let loads = [load(100, 100, 50), load(0, 100, 0)];
        let vms = [VmPlacement {
            vm: VmId(1),
            host: 0,
            used: 50,
        }];
        assert_eq!(m.decide(&loads, &vms), None);
        assert_eq!(m.decide(&loads, &vms), None);
        assert!(m.decide(&loads, &vms).is_some(), "third interval may act");
    }

    #[test]
    fn stranded_counts_free_pages_on_quiet_hosts_only() {
        assert_eq!(
            stranded_pages(&[load(90, 100, 5), load(20, 100, 0), load(50, 100, 0)]),
            80 + 50
        );
        assert_eq!(
            stranded_pages(&[load(90, 100, 0), load(20, 100, 0)]),
            0,
            "nobody failed a put: nothing is stranded"
        );
    }

    #[test]
    fn empty_hot_host_yields_no_plan() {
        let mut m = mgr();
        // Pressure spread comes wholly from failed puts; no VM has pages.
        let loads = [load(0, 100, 80), load(0, 100, 0)];
        assert_eq!(m.decide(&loads, &[]), None);
        // The cooldown clock must not have been armed by a non-migration.
        let vms = [VmPlacement {
            vm: VmId(1),
            host: 0,
            used: 10,
        }];
        assert!(m.decide(&loads, &vms).is_some());
    }
}
