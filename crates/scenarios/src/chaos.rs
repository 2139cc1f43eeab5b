//! Chaos experiments: scenario grids under control-plane and data-plane
//! fault injection.
//!
//! The SmarTmem control loop (VIRQ sampling → dom0 TKM relay → user-space
//! MM → `SetTargets` hypercall) is asynchronous to the datapath, so the
//! system's correct response to a degraded control plane is *bounded
//! slowdown*, never corruption: targets go stale and the hypervisor falls
//! back to greedy-above-a-fair-share-floor, but tmem accounting invariants
//! must hold at every interval. This module runs (scenario × policy) cells
//! once fault-free and once per fault profile, reports per-VM running-time
//! degradation ratios plus the full [`FaultLedger`], and checks both the
//! documented degradation bound and the zero-invariant-violation rule.
//!
//! Everything is deterministic: the fault schedule derives from
//! `RunConfig::seed`, cells run through [`crate::par::run_indexed`], and
//! reports are byte-identical at any `--jobs` count (pinned by the
//! determinism suite).

use crate::config::RunConfig;
use crate::par::run_indexed;
use crate::runner::{run_scenario, RunResult};
use crate::spec::ScenarioKind;
use sim_core::faults::{FaultLedger, FaultProfile};
use smartmem_core::PolicyKind;

/// Maximum per-VM running-time ratio (faulty / fault-free) the shipped
/// profiles are allowed to cause, across every scenario × policy cell the
/// chaos suite runs.
///
/// Empirically (scale 0.01, seed 42, scenarios 1–2, policies greedy /
/// static-alloc / reconf-static / smart-alloc(2%)) the worst observed
/// ratio stays under 2×: lost samples and a crashed MM leave targets
/// stale, and the TTL fallback keeps every VM at least its fair-share
/// floor of tmem, so the datapath keeps absorbing evictions. The bound is
/// set at 3.0 to leave headroom for seed and scale variation while still
/// catching degradation cliffs (an unbounded-starvation bug shows up as
/// 10×+, not 3×).
pub const DEGRADATION_BOUND: f64 = 3.0;

/// A named fault profile shipped with the chaos suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Report name ("sample-loss", ...).
    pub name: String,
    /// The injected fault mix.
    pub profile: FaultProfile,
}

/// The shipped chaos profiles, in report order.
///
/// * `sample-loss` — up to 50% of an interval's stats flow lost before the
///   MM sees it (30% VIRQ drop + 20% netlink drop), plus light delay,
///   duplication and reordering. Exercises gap detection, duplicate
///   discard and the hypervisor's stale-target TTL fallback.
/// * `flaky-hypercalls` — 25% of `SetTargets` pushes fail. Exercises the
///   dom0 relay's retry-with-backoff and push supersession.
/// * `mm-crash` — the MM process dies after its 5th cycle and the watchdog
///   restarts it 3 intervals later. Exercises state rebuild from the next
///   sample window and the TTL fallback while the MM is down.
/// * `bitrot` — 2% of admitted puts are bit-flipped and 1% land torn, with
///   the pool scrubber sweeping every 5 intervals. Exercises end-to-end
///   page integrity: every corruption must be *detected* (never returned
///   as wrong bytes) and either recovered by the guest's bounded
///   retry/requeue path or quarantined by the scrubber. The profile also
///   sets a 5% ephemeral loss rate so any future ephemeral (cleancache)
///   traffic degrades to clean misses; frontswap-only scenarios draw it
///   zero times.
/// * `backend-brownout` — 5% of persistent puts fail with an injected I/O
///   error, and every 20 intervals the backend goes dark for 4, rejecting
///   all puts. Exercises the guest's disk fallback under a flaky/stalling
///   backend: the failure mode is slowdown, never corruption.
pub fn shipped_profiles() -> Vec<ChaosProfile> {
    vec![
        ChaosProfile {
            name: "sample-loss".to_string(),
            profile: FaultProfile {
                virq_drop: 0.30,
                virq_delay: 0.05,
                virq_duplicate: 0.05,
                netlink_drop: 0.20,
                netlink_reorder: 0.05,
                ..FaultProfile::none()
            },
        },
        ChaosProfile {
            name: "flaky-hypercalls".to_string(),
            profile: FaultProfile {
                hypercall_fail: 0.25,
                ..FaultProfile::none()
            },
        },
        ChaosProfile {
            name: "mm-crash".to_string(),
            profile: FaultProfile {
                mm_crash_at_cycle: Some(5),
                mm_restart_after: 3,
                ..FaultProfile::none()
            },
        },
        ChaosProfile {
            name: "bitrot".to_string(),
            profile: FaultProfile {
                page_bitflip: 0.02,
                torn_write: 0.01,
                ephemeral_loss: 0.05,
                scrub_every: 5,
                ..FaultProfile::none()
            },
        },
        ChaosProfile {
            name: "backend-brownout".to_string(),
            profile: FaultProfile {
                put_io_fail: 0.05,
                brownout_every: 20,
                brownout_for: 4,
                ..FaultProfile::none()
            },
        },
    ]
}

/// The policies the chaos suite sweeps: every managed policy of the paper
/// set. `no-tmem` is excluded — without a control plane there is nothing
/// to inject faults into.
pub fn chaos_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Greedy,
        PolicyKind::StaticAlloc,
        PolicyKind::ReconfStatic,
        PolicyKind::SmartAlloc { p: 2.0 },
    ]
}

/// One (scenario × policy × profile) cell of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Scenario name.
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// Profile name ("baseline" for the fault-free reference).
    pub profile: String,
    /// Per-VM total running time of completed workload runs, seconds.
    pub vm_times_s: Vec<f64>,
    /// Per-VM degradation ratio vs the cell's baseline (1.0 for the
    /// baseline itself).
    pub ratios: Vec<f64>,
    /// Scenario end time, seconds.
    pub end_s: f64,
    /// Fault + degradation accounting.
    pub ledger: FaultLedger,
    /// Replay-verifier mismatch count for this cell — `Some` only when the
    /// run was traced (`RunConfig::trace`). `None` leaves the rendered
    /// report byte-identical to a build without the recorder.
    pub replay_mismatches: Option<u64>,
}

impl ChaosCell {
    /// Worst per-VM degradation ratio in this cell.
    pub fn worst_ratio(&self) -> f64 {
        self.ratios.iter().copied().fold(1.0, f64::max)
    }
}

/// A complete chaos run: every cell, plus the bound it was checked against.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The degradation bound applied.
    pub bound: f64,
    /// Cells in grid order: scenario-major, policy-middle, profile-minor
    /// (baseline first).
    pub cells: Vec<ChaosCell>,
}

fn vm_times_s(r: &RunResult) -> Vec<f64> {
    r.vm_results
        .iter()
        .map(|vm| {
            let total: f64 = vm
                .completions()
                .iter()
                .map(|d| d.as_nanos() as f64 / 1e9)
                .sum();
            if total > 0.0 {
                total
            } else {
                // No run completed (stopped scenario): fall back to the
                // scenario end time so the ratio is still meaningful.
                r.end_time.as_nanos() as f64 / 1e9
            }
        })
        .collect()
}

/// Run the chaos grid: each (scenario × policy) under the fault-free
/// baseline and every profile, all from one `cfg.seed`. Cells run in
/// parallel (`cfg.jobs`); the report is byte-identical at any job count.
pub fn run_chaos(
    cfg: &RunConfig,
    scenarios: &[ScenarioKind],
    policies: &[PolicyKind],
    profiles: &[ChaosProfile],
    bound: f64,
) -> ChaosReport {
    let mut grid: Vec<(ScenarioKind, PolicyKind, Option<ChaosProfile>)> = Vec::new();
    for &scenario in scenarios {
        for &policy in policies {
            grid.push((scenario, policy, None));
            for p in profiles {
                grid.push((scenario, policy, Some(p.clone())));
            }
        }
    }
    let results = run_indexed(grid, cfg.jobs, |_, (scenario, policy, profile)| {
        let mut cell_cfg = cfg.clone();
        cell_cfg.faults = profile
            .as_ref()
            .map(|p| p.profile.clone())
            .unwrap_or_else(FaultProfile::none);
        let name = profile.map(|p| p.name);
        let r = run_scenario(scenario, policy, &cell_cfg);
        // With the flight recorder on, every cell replays its own trace:
        // chaos runs are exactly where emission sites are easiest to get
        // wrong (retries, supersedes, crashes), so verify them in place.
        let replay = cell_cfg.trace.is_some().then(|| {
            crate::trace_check::verify_cluster(std::slice::from_ref(&r))
                .expect("the recorder was configured")
                .mismatches
                .len() as u64
        });
        (name, replay, r)
    });

    // Fold grid-order results into cells, computing ratios against each
    // (scenario, policy)'s baseline — always the first cell of its block.
    let mut cells = Vec::with_capacity(results.len());
    let mut baseline: Vec<f64> = Vec::new();
    for (name, replay, r) in results {
        let times = vm_times_s(&r);
        let (profile, ratios) = match name {
            None => {
                baseline = times.clone();
                ("baseline".to_string(), vec![1.0; times.len()])
            }
            Some(n) => {
                let ratios = times
                    .iter()
                    .zip(&baseline)
                    .map(|(&t, &b)| if b > 0.0 { t / b } else { 1.0 })
                    .collect();
                (n, ratios)
            }
        };
        cells.push(ChaosCell {
            scenario: r.scenario.clone(),
            policy: r.policy.clone(),
            profile,
            vm_times_s: times,
            ratios,
            end_s: r.end_time.as_nanos() as f64 / 1e9,
            ledger: r.faults,
            replay_mismatches: replay,
        });
    }
    ChaosReport { bound, cells }
}

impl ChaosReport {
    /// Cells whose worst per-VM ratio exceeds the bound.
    pub fn bound_violations(&self) -> Vec<&ChaosCell> {
        self.cells
            .iter()
            .filter(|c| c.worst_ratio() > self.bound)
            .collect()
    }

    /// Total tmem accounting invariant violations across all cells (must
    /// be zero).
    pub fn invariant_violations(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.ledger.invariant_violations)
            .sum()
    }

    /// Total replay-verifier mismatches across traced cells (0 when
    /// tracing was disabled).
    pub fn replay_mismatches(&self) -> u64 {
        self.cells.iter().filter_map(|c| c.replay_mismatches).sum()
    }

    /// Injected page corruptions that no detection ever accounted for,
    /// across all cells (must be zero: the runner's final scrub sweeps
    /// whatever gets, flushes and reclaims did not already surface).
    pub fn undetected_corruptions(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| {
                (c.ledger.bitflips_injected + c.ledger.torn_writes_injected)
                    .saturating_sub(c.ledger.corruptions_detected)
            })
            .sum()
    }

    /// Whether every cell respects the bound, no invariant was ever
    /// violated, every injected corruption was detected, and (when
    /// traced) every cell's trace replayed exactly.
    pub fn passed(&self) -> bool {
        self.bound_violations().is_empty()
            && self.invariant_violations() == 0
            && self.undetected_corruptions() == 0
            && self.replay_mismatches() == 0
    }

    /// Render the human-readable chaos report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos report (degradation bound {:.1}x)\n",
            self.bound
        ));
        for c in &self.cells {
            let ratios: Vec<String> = c.ratios.iter().map(|r| format!("{r:.3}x")).collect();
            out.push_str(&format!(
                "{} / {} / {}: worst={:.3}x vm_ratios=[{}] end={:.3}s\n",
                c.scenario,
                c.policy,
                c.profile,
                c.worst_ratio(),
                ratios.join(", "),
                c.end_s,
            ));
            let l = &c.ledger;
            out.push_str(&format!(
                "  injected={} (drop={} delay={} dup={} nl_drop={} nl_reorder={} hc_fail={} crash={})\n",
                l.injected(),
                l.samples_dropped,
                l.samples_delayed,
                l.samples_duplicated,
                l.netlink_dropped,
                l.netlink_reordered,
                l.hypercalls_failed,
                l.mm_crashes,
            ));
            out.push_str(&format!(
                "  degraded: gaps={} discarded={} stale_intervals={} retries={} abandoned={} superseded={} restarts={} invariants={}/{}\n",
                l.seq_gaps,
                l.snapshots_discarded,
                l.stale_intervals,
                l.hypercall_retries,
                l.hypercalls_abandoned,
                l.hypercalls_superseded,
                l.mm_restarts,
                l.invariant_checks - l.invariant_violations,
                l.invariant_checks,
            ));
            // Data-plane line only when the layer actually did something, so
            // control-plane-only reports render byte-for-byte as before.
            let data_active = l.bitflips_injected
                + l.torn_writes_injected
                + l.ephemeral_losses_injected
                + l.put_io_failures_injected
                + l.brownout_rejections
                + l.brownout_ticks
                + l.corruptions_detected
                + l.corruptions_recovered
                + l.objects_quarantined
                + l.scrub_passes
                > 0;
            if data_active {
                out.push_str(&format!(
                    "  data-plane: bitflip={} torn={} eph_loss={} io_fail={} brownout_rej={} brownout_ticks={} detected={} recovered={} quarantined={} scrubs={} scrub_pages={}\n",
                    l.bitflips_injected,
                    l.torn_writes_injected,
                    l.ephemeral_losses_injected,
                    l.put_io_failures_injected,
                    l.brownout_rejections,
                    l.brownout_ticks,
                    l.corruptions_detected,
                    l.corruptions_recovered,
                    l.objects_quarantined,
                    l.scrub_passes,
                    l.scrub_pages_checked,
                ));
            }
            if let Some(n) = c.replay_mismatches {
                out.push_str(&format!("  replay: {n} mismatches\n"));
            }
        }
        out.push_str(&format!(
            "verdict: {} ({} bound violations, {} invariant violations)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.bound_violations().len(),
            self.invariant_violations(),
        ));
        out
    }

    /// Render the machine-readable per-cell CSV (the fault ledger flattened
    /// into columns). The original control-plane columns come first,
    /// unchanged, with the data-plane columns appended after them — so a
    /// consumer selecting the historical columns by position still reads
    /// the same values.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,policy,profile,worst_ratio,end_s,injected,samples_dropped,\
             samples_delayed,samples_duplicated,netlink_dropped,netlink_reordered,\
             hypercalls_failed,hypercall_retries,hypercalls_abandoned,\
             hypercalls_superseded,mm_crashes,mm_restarts,seq_gaps,\
             snapshots_discarded,stale_intervals,invariant_checks,\
             invariant_violations,bitflips_injected,torn_writes_injected,\
             ephemeral_losses_injected,put_io_failures_injected,\
             brownout_rejections,brownout_ticks,corruptions_detected,\
             corruptions_recovered,objects_quarantined,scrub_passes,\
             scrub_pages_checked,migrations_out,migrations_in,migrate_pages,\
             migrate_purged,migrate_spilled\n",
        );
        for c in &self.cells {
            let l = &c.ledger;
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                c.scenario,
                c.policy,
                c.profile,
                c.worst_ratio(),
                c.end_s,
                l.injected(),
                l.samples_dropped,
                l.samples_delayed,
                l.samples_duplicated,
                l.netlink_dropped,
                l.netlink_reordered,
                l.hypercalls_failed,
                l.hypercall_retries,
                l.hypercalls_abandoned,
                l.hypercalls_superseded,
                l.mm_crashes,
                l.mm_restarts,
                l.seq_gaps,
                l.snapshots_discarded,
                l.stale_intervals,
                l.invariant_checks,
                l.invariant_violations,
                l.bitflips_injected,
                l.torn_writes_injected,
                l.ephemeral_losses_injected,
                l.put_io_failures_injected,
                l.brownout_rejections,
                l.brownout_ticks,
                l.corruptions_detected,
                l.corruptions_recovered,
                l.objects_quarantined,
                l.scrub_passes,
                l.scrub_pages_checked,
                l.migrations_out,
                l.migrations_in,
                l.migrate_pages,
                l.migrate_purged,
                l.migrate_spilled,
            ));
        }
        out
    }
}
