//! Replay verifier for the flight recorder.
//!
//! The trace event stream is a load-bearing contract: every host's recorder
//! folds its events once into a [`Fold`] (see `sim_core::trace` for the
//! fold's rules), and this module checks each fold against the live
//! accounting carried by a [`RunResult`]. A run whose folds match proves
//! that every subsystem emitted exactly the events its state changes imply
//! — no missing emission sites, no double counting, no schema drift. The
//! fold sees every event, so a ring that dropped old events still replays.
//!
//! Checks:
//!
//! * occupancy: the occupancy vector at the `k`-th interval close must
//!   match the `k`-th point of the recorded occupancy time-series, and the
//!   final local and far vectors must match `RunResult::final_tmem_used`
//!   and `final_far_used`. A VM that appears in a host's trace but not in
//!   its final `vm_results` must end at exactly zero occupancy on that host.
//! * admission counters: the per-VM frontswap put/get/flush tallies and the
//!   reclaimed pages (migrated-in pages that spilled to swap included: the
//!   import overflow goes through the guest's reclaim callback) are summed
//!   across hosts and compared with the guest kernels' statistics, which
//!   travel with a migrating VM. Ephemeral (cleancache) traffic moves
//!   occupancy but is excluded, as the kernel counters cover frontswap only.
//! * ledger: every [`FaultLedger`](sim_core::faults::FaultLedger) field the
//!   events imply, plus the MM decision and transmission counts.
//! * conservation: across all hosts, `MigrateOut` and `MigrateIn` events
//!   pair up, and every exported page landed or spilled.

use crate::runner::RunResult;
use sim_core::trace::{Fold, Migrations, VmFold};
use std::collections::BTreeMap;

/// Outcome of one replay verification.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Events folded, over every host (ring-dropped events included).
    pub events: usize,
    /// Individual comparisons performed.
    pub checks: u64,
    /// Human-readable description of every comparison that failed. Empty
    /// means the trace replays the run exactly.
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// True when every comparison passed.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

fn check<T: PartialEq + std::fmt::Debug>(
    report: &mut ReplayReport,
    what: &str,
    replayed: T,
    live: T,
) {
    report.checks += 1;
    if replayed != live {
        report
            .mismatches
            .push(format!("{what}: replayed {replayed:?} != live {live:?}"));
    }
}

/// Names of the per-VM admission counters [`admission`] returns.
const ADMISSION: [&str; 5] = [
    "puts_succ",
    "puts_failed",
    "get_hits",
    "flushes",
    "reclaimed",
];

/// One VM's admission counters as the guest kernel counts them.
fn admission(v: &VmFold) -> [u64; 5] {
    let f = &v.frontswap;
    [
        f.puts_ok(),
        f.puts_failed(),
        f.hits,
        f.flushes,
        v.reclaimed + v.spilled,
    ]
}

/// Verify the fold of every host of a run (one host for a single-host run)
/// against the live accounting.
///
/// Each host's fold is checked on its own (occupancy, fault ledger, MM
/// counters). The per-VM admission counters are *summed across hosts* and
/// checked against the lifetime kernel statistics reported by whichever
/// host the VM finished on — a migrated VM's kernel travels with it, so its
/// counters span hosts while each host's trace only saw its own residency
/// window. Migration conservation is checked over all hosts together. With
/// more than one host every per-host mismatch is prefixed `host{h}: `.
///
/// Errors only when a host has no trace attached. Mismatches are collected
/// in the report, not errors.
pub fn verify_cluster(hosts: &[RunResult]) -> Result<ReplayReport, String> {
    let mut report = ReplayReport::default();
    let mut merged: BTreeMap<u32, [u64; 5]> = BTreeMap::new();
    let mut flows = Migrations::default();
    for (h, host) in hosts.iter().enumerate() {
        let fold = &host
            .trace
            .as_ref()
            .ok_or("run has no trace attached (RunConfig::trace was None)")?
            .fold;
        let before = report.mismatches.len();
        check_host(host, fold, &mut report);
        if hosts.len() > 1 {
            for msg in &mut report.mismatches[before..] {
                *msg = format!("host{h}: {msg}");
            }
        }
        for (&id, v) in &fold.vms {
            let sum = merged.entry(id).or_default();
            for (s, x) in sum.iter_mut().zip(admission(v)) {
                *s += x;
            }
        }
        let m = &fold.migrations;
        flows.out += m.out;
        flows.into += m.into;
        flows.exported += m.exported;
        flows.landed += m.landed;
        flows.spilled += m.spilled;
    }
    for host in hosts {
        for vr in &host.vm_results {
            let replayed = merged.get(&vr.vm_id.0).copied().unwrap_or_default();
            let ks = &vr.kernel_stats;
            let live = [
                ks.evictions_to_tmem,
                ks.failed_puts,
                ks.tmem_faults,
                ks.tmem_flushes,
                ks.reclaimed_pages,
            ];
            for ((name, r), l) in ADMISSION.iter().zip(replayed).zip(live) {
                check(&mut report, &format!("{name}[{}]", vr.name), r, l);
            }
        }
    }
    check(&mut report, "migrations out vs in", flows.out, flows.into);
    check(
        &mut report,
        "migrated pages exported vs landed + spilled",
        flows.exported,
        flows.landed + flows.spilled,
    );
    Ok(report)
}

/// Check one host's fold: occupancy (per interval, final, departed VMs),
/// the fault ledger and the MM counters.
fn check_host(result: &RunResult, fold: &Fold, report: &mut ReplayReport) {
    report.events += fold.events as usize;
    if let Some(series) = &result.series {
        for (k, snapshot) in fold.intervals.iter().enumerate() {
            for (i, vr) in result.vm_results.iter().enumerate() {
                report.checks += 1;
                let occ = snapshot
                    .binary_search_by_key(&vr.vm_id.0, |&(id, _)| id)
                    .map_or(0, |j| snapshot[j].1);
                match series.used[i].points().get(k) {
                    Some(&(_, live)) if live == occ as f64 => {}
                    Some(&(at, live)) => report.mismatches.push(format!(
                        "occupancy[{}] at interval {k} ({at:?}): replayed {occ} != live {live}",
                        vr.name
                    )),
                    None => report
                        .mismatches
                        .push(format!("interval {k} has no matching series point")),
                }
            }
        }
        // Every recorded series point was visited.
        if let Some(s) = series.used.first() {
            check(
                report,
                "interval closes vs series points",
                fold.intervals.len(),
                s.len(),
            );
        }
    }
    // Final per-VM occupancy against the hypervisor's closing accounting. A
    // VM that migrated away appears in the trace but not in this host's
    // vm_results: it must have left nothing behind.
    let mut departed = fold.vms.clone();
    for (i, vr) in result.vm_results.iter().enumerate() {
        let v = departed.remove(&vr.vm_id.0).unwrap_or_default();
        let live = |used: &[u64]| used.get(i).copied().unwrap_or(0) as i64;
        let name = &vr.name;
        check(
            report,
            &format!("final occupancy[{name}]"),
            v.local,
            live(&result.final_tmem_used),
        );
        check(
            report,
            &format!("final far occupancy[{name}]"),
            v.far,
            live(&result.final_far_used),
        );
    }
    for (id, v) in departed {
        check(report, &format!("departed vm{id} occupancy"), v.local, 0);
        check(report, &format!("departed vm{id} far occupancy"), v.far, 0);
    }
    // The whole fault ledger, field by field.
    let (led, lf) = (fold.ledger(), &result.faults);
    macro_rules! ledger {
        ($($field:ident),*) => {
            $(check(report, concat!("ledger.", stringify!($field)), led.$field, lf.$field);)*
        };
    }
    ledger!(
        samples_delivered,
        samples_dropped,
        samples_delayed,
        samples_duplicated,
        netlink_dropped,
        netlink_reordered,
        hypercalls_failed,
        hypercall_retries,
        hypercalls_abandoned,
        hypercalls_superseded,
        mm_crashes,
        mm_restarts,
        seq_gaps,
        snapshots_discarded,
        stale_intervals,
        invariant_checks,
        invariant_violations,
        bitflips_injected,
        torn_writes_injected,
        ephemeral_losses_injected,
        put_io_failures_injected,
        brownout_rejections,
        brownout_ticks,
        corruptions_detected,
        corruptions_recovered,
        objects_quarantined,
        scrub_passes,
        scrub_pages_checked,
        migrations_out,
        migrations_in,
        migrate_pages,
        migrate_purged,
        migrate_spilled
    );
    // MM counters surfaced on the run result.
    check(report, "mm_cycles", fold.mm_decisions, result.mm_cycles);
    check(
        report,
        "mm_transmissions",
        fold.mm_sent,
        result.mm_transmissions,
    );
}
