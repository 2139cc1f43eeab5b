//! Replay verifier for the flight recorder.
//!
//! The trace event stream is a load-bearing contract: this module re-derives
//! per-VM tmem occupancy, the admission counters and the whole
//! [`FaultLedger`] *purely from events* and checks them against the live
//! accounting carried by a [`RunResult`]. A run whose trace replays cleanly
//! proves that every subsystem emitted exactly the events its state changes
//! imply — no missing emission sites, no double counting, no schema drift.
//!
//! Replay rules:
//!
//! * occupancy: `Put` with a frame-consuming result is +1 for the putting
//!   VM; `Evict` is −1 for the victim; a persistent-pool `Get` hit frees the
//!   frame (−1); `Flush`/`PoolDestroy`/`Reclaim`/`DataPurge` subtract their
//!   page counts.
//!   The occupancy vector at the `k`-th [`Payload::IntervalClose`] must
//!   match the `k`-th point of the recorded occupancy time-series, and the
//!   final vector must match `RunResult::final_tmem_used`.
//! * far tier: a `stored_far` put is +1 *far* occupancy (the local frame was
//!   never consumed); `FarGet` is −1 (far hits are exclusive; the paired
//!   `Get` event carries `freed: false`); `FarFlush` subtracts its page
//!   count. The final far vector must match `RunResult::final_far_used`.
//! * migration: `MigrateOut` empties the departing VM on the source host
//!   (local pages + purged corrupt pages from local occupancy, far pages
//!   from far occupancy); `MigrateIn` credits the destination with what
//!   landed locally and in far memory, and counts spilled pages into the
//!   VM's reclaim total (the import overflow path goes through the guest's
//!   reclaim callback, which has no `Reclaim` event of its own). A VM that
//!   appears in a host's trace but not in its final `vm_results` must end
//!   the replay at exactly zero occupancy on that host.
//! * admission counters: the per-VM `puts_succ`/`puts_failed`/`get_hits`/
//!   `flushes` tallies compared against the guest kernel stats cover the
//!   *frontswap* datapath only, so `PoolCreate` events (which make the
//!   trace self-describing about each pool's kind) gate the tallies:
//!   traffic on a pool announced as ephemeral moves occupancy and the
//!   metrics registry but is excluded from the kernel-stat comparison.
//! * ledger: sample/netlink fates, relay push outcomes (a retry is any
//!   attempt ≥ 2 that is not a `Superseded` marker — superseding re-reports
//!   the old push's attempt count without making a new attempt), MM
//!   crash/restart/discard events, and sequence gaps re-derived with the
//!   MM's own rule: a fresh snapshot's `seq_in` more than one above the
//!   previous one is a gap, and a crash resets the high-water mark.

use crate::runner::RunResult;
use sim_core::faults::{FaultLedger, NetlinkFate, SampleFate};
use sim_core::trace::{FaultKind, Payload, PushOutcome, PutResult};
use std::collections::BTreeMap;

/// Outcome of one replay verification.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Events replayed.
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

/// Per-VM state re-derived from the event stream.
#[derive(Debug, Clone, Copy, Default)]
struct VmReplay {
    occupancy: i64,
    far_occ: i64,
    puts_succ: u64,
    puts_failed: u64,
    get_hits: u64,
    flushes: u64,
    reclaimed: u64,
}

impl VmReplay {
    fn absorb(&mut self, other: &VmReplay) {
        self.occupancy += other.occupancy;
        self.far_occ += other.far_occ;
        self.puts_succ += other.puts_succ;
        self.puts_failed += other.puts_failed;
        self.get_hits += other.get_hits;
        self.flushes += other.flushes;
        self.reclaimed += other.reclaimed;
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

/// Replay the trace of every host of a run (one host for a single-host
/// run) and verify it against the live accounting.
///
/// Each host's trace is replayed independently (occupancy, fault ledger,
/// metrics registry, MM counters), then the per-VM admission counters are
/// *summed across hosts* and checked against the lifetime kernel statistics
/// reported by whichever host the VM finished on — a migrated VM's kernel
/// travels with it, so its counters span hosts while each host's trace only
/// saw its own residency window. With more than one host every mismatch is
/// prefixed `host{h}: `.
///
/// Errors when a run is not verifiable at all: no trace attached, or the
/// ring buffer dropped events (raise `TraceConfig::capacity`). Mismatches
/// found during replay are collected in the report, not errors.
pub fn verify_cluster(hosts: &[RunResult]) -> Result<ReplayReport, String> {
    let mut report = ReplayReport::default();
    let mut merged: BTreeMap<u32, VmReplay> = BTreeMap::new();
    for (h, host) in hosts.iter().enumerate() {
        let before = report.mismatches.len();
        let vms = replay_one(host, &mut report)?;
        if hosts.len() > 1 {
            for msg in &mut report.mismatches[before..] {
                *msg = format!("host{h}: {msg}");
            }
        }
        for (id, v) in vms {
            merged.entry(id).or_default().absorb(&v);
        }
    }
    for host in hosts {
        check_admission_counters(host, &merged, &mut report);
    }
    Ok(report)
}

/// Replay a single host's trace: occupancy (local and far), the fault
/// ledger, the metrics registry and the MM counters. Returns the per-VM
/// replay state so callers can merge admission counters across hosts.
fn replay_one(
    result: &RunResult,
    report: &mut ReplayReport,
) -> Result<BTreeMap<u32, VmReplay>, String> {
    let trace = result
        .trace
        .as_ref()
        .ok_or("run has no trace attached (RunConfig::trace was None)")?;
    if trace.dropped_oldest > 0 {
        return Err(format!(
            "trace dropped {} oldest events; raise TraceConfig::capacity to replay",
            trace.dropped_oldest
        ));
    }

    report.events += trace.events.len();
    let mut vms: BTreeMap<u32, VmReplay> = BTreeMap::new();
    for vr in &result.vm_results {
        vms.insert(vr.vm_id.0, VmReplay::default());
    }
    let mut led = FaultLedger::default();
    // MM snapshot-sequence high-water mark (None after a crash, like the
    // rebuilt StatsHistory).
    let mut last_seq: Option<u64> = None;
    let mut interval_idx = 0usize;
    let series = result.series.as_ref();

    // Metrics-registry recount (counters only; histograms are checked by
    // their counts, which are implied by the event counts).
    let mut puts = 0u64;
    let mut puts_rejected = 0u64;
    let mut gets = 0u64;
    let mut get_hits = 0u64;
    let mut flush_pages = 0u64;
    let mut evictions = 0u64;
    let mut reclaimed_pages = 0u64;
    let mut virq_samples = 0u64;
    let mut relay_enqueued = 0u64;
    let mut relay_shed = 0u64;
    let mut relay_pushes = 0u64;
    let mut relay_retries = 0u64;
    let mut mm_decisions = 0u64;
    let mut mm_sent = 0u64;
    let mut faults_injected = 0u64;

    // Pool kinds learned from `PoolCreate` events. The kernel admission
    // counters (`evictions_to_tmem`, `failed_puts`, `tmem_faults`,
    // `tmem_flushes`) cover the frontswap datapath only, so cleancache
    // (ephemeral-pool) traffic moves occupancy and the metrics registry
    // but is excluded from the per-VM counter comparison.
    let mut ephemeral_pools: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();

    for ev in &trace.events {
        match &ev.payload {
            Payload::PoolCreate { pool, ephemeral } => {
                if *ephemeral {
                    ephemeral_pools.insert(*pool);
                }
            }
            Payload::Put {
                pool, result: r, ..
            } => {
                puts += 1;
                let frontswap = !ephemeral_pools.contains(pool);
                let vm = vms.entry(ev.vm.unwrap_or(0)).or_default();
                if r.is_success() {
                    if frontswap {
                        vm.puts_succ += 1;
                    }
                } else {
                    if frontswap {
                        vm.puts_failed += 1;
                    }
                    puts_rejected += 1;
                }
                if r.consumed_frame() {
                    vm.occupancy += 1;
                }
                if *r == PutResult::StoredFar {
                    vm.far_occ += 1;
                }
            }
            Payload::Evict { .. } => {
                evictions += 1;
                vms.entry(ev.vm.unwrap_or(0)).or_default().occupancy -= 1;
            }
            Payload::Get { pool, hit, freed } => {
                gets += 1;
                let vm = vms.entry(ev.vm.unwrap_or(0)).or_default();
                if *hit {
                    if !ephemeral_pools.contains(pool) {
                        vm.get_hits += 1;
                    }
                    get_hits += 1;
                }
                if *freed {
                    vm.occupancy -= 1;
                }
            }
            Payload::Flush { pool, pages } => {
                flush_pages += pages;
                let vm = vms.entry(ev.vm.unwrap_or(0)).or_default();
                if !ephemeral_pools.contains(pool) {
                    vm.flushes += 1;
                }
                vm.occupancy -= *pages as i64;
            }
            Payload::PoolDestroy { pages, .. } => {
                flush_pages += pages;
                vms.entry(ev.vm.unwrap_or(0)).or_default().occupancy -= *pages as i64;
            }
            Payload::Reclaim { pages, .. } => {
                reclaimed_pages += pages;
                let vm = vms.entry(ev.vm.unwrap_or(0)).or_default();
                vm.reclaimed += pages;
                vm.occupancy -= *pages as i64;
            }
            Payload::TargetsApplied { .. } => {}
            Payload::VirqSample { fate, .. } => {
                virq_samples += 1;
                match fate {
                    SampleFate::Deliver => led.samples_delivered += 1,
                    SampleFate::Drop => led.samples_dropped += 1,
                    SampleFate::Delay => led.samples_delayed += 1,
                    SampleFate::Duplicate => led.samples_duplicated += 1,
                }
            }
            Payload::IntervalClose { stale, ok, .. } => {
                led.invariant_checks += 1;
                if *stale {
                    led.stale_intervals += 1;
                }
                if !*ok {
                    led.invariant_violations += 1;
                }
                if let Some(series) = series {
                    for (i, vr) in result.vm_results.iter().enumerate() {
                        report.checks += 1;
                        let occ = vms.get(&vr.vm_id.0).map(|v| v.occupancy).unwrap_or(0);
                        match series.used[i].points().get(interval_idx) {
                            Some(&(_, live)) if live == occ as f64 => {}
                            Some(&(at, live)) => report.mismatches.push(format!(
                                "occupancy[{}] at interval {} ({:?}): replayed {} != live {}",
                                vr.name, interval_idx, at, occ, live
                            )),
                            None => report.mismatches.push(format!(
                                "interval {} has no matching series point",
                                interval_idx
                            )),
                        }
                    }
                }
                interval_idx += 1;
            }
            Payload::NetlinkStats { fate, .. } => match fate {
                NetlinkFate::Deliver => {}
                NetlinkFate::Drop => led.netlink_dropped += 1,
                NetlinkFate::Reorder => led.netlink_reordered += 1,
            },
            Payload::RelayEnqueue { .. } => relay_enqueued += 1,
            Payload::RelayShed { .. } => relay_shed += 1,
            Payload::RelayPush {
                attempt, outcome, ..
            } => {
                relay_pushes += 1;
                if *attempt >= 2 {
                    relay_retries += 1;
                    if *outcome != PushOutcome::Superseded {
                        led.hypercall_retries += 1;
                    }
                }
                // A first-attempt Superseded marker never made attempt ≥ 2,
                // so the retry exclusion above is the only special case.
                match outcome {
                    PushOutcome::Abandoned => led.hypercalls_abandoned += 1,
                    PushOutcome::Superseded => led.hypercalls_superseded += 1,
                    PushOutcome::Landed | PushOutcome::Parked => {}
                }
            }
            Payload::MmDecision { seq_in, sent, .. } => {
                mm_decisions += 1;
                if *sent {
                    mm_sent += 1;
                }
                if let Some(last) = last_seq {
                    if *seq_in > last + 1 {
                        led.seq_gaps += 1;
                    }
                }
                last_seq = Some(*seq_in);
            }
            Payload::MmDiscard { .. } => led.snapshots_discarded += 1,
            Payload::MmCrash { .. } => {
                led.mm_crashes += 1;
                last_seq = None;
            }
            Payload::MmRestart => led.mm_restarts += 1,
            Payload::Fault { kind } => {
                faults_injected += 1;
                match kind {
                    FaultKind::HypercallFail => led.hypercalls_failed += 1,
                    FaultKind::PageBitflip => led.bitflips_injected += 1,
                    FaultKind::TornWrite => led.torn_writes_injected += 1,
                    FaultKind::EphemeralLoss => led.ephemeral_losses_injected += 1,
                    FaultKind::PutIoFail => led.put_io_failures_injected += 1,
                    FaultKind::BrownoutReject => led.brownout_rejections += 1,
                    FaultKind::BrownoutTick => led.brownout_ticks += 1,
                    FaultKind::CorruptDetected => led.corruptions_detected += 1,
                    FaultKind::CorruptRecovered => led.corruptions_recovered += 1,
                    _ => {}
                }
            }
            // A silent occupancy drop: an injected ephemeral loss, a corrupt
            // ephemeral page dropped on get, corrupt reclaim victims withheld
            // from write-back, or a scrubber quarantine. The guest issued no
            // hypercall, so only occupancy moves.
            Payload::DataPurge { pages, .. } => {
                vms.entry(ev.vm.unwrap_or(0)).or_default().occupancy -= *pages as i64;
            }
            Payload::Scrub {
                checked,
                quarantined,
                ..
            } => {
                led.scrub_passes += 1;
                led.scrub_pages_checked += checked;
                led.objects_quarantined += quarantined;
            }
            // A far hit: the paired `Get` event carried `hit: true,
            // freed: false`, so only the far occupancy moves here.
            Payload::FarGet { .. } => {
                vms.entry(ev.vm.unwrap_or(0)).or_default().far_occ -= 1;
            }
            Payload::FarFlush { pages, .. } => {
                vms.entry(ev.vm.unwrap_or(0)).or_default().far_occ -= *pages as i64;
            }
            Payload::MigrateOut {
                pages, far, purged, ..
            } => {
                let vm = vms.entry(ev.vm.unwrap_or(0)).or_default();
                vm.occupancy -= (*pages + *purged) as i64;
                vm.far_occ -= *far as i64;
                led.migrations_out += 1;
                led.migrate_pages += pages + far;
                led.migrate_purged += purged;
            }
            Payload::MigrateIn {
                pages,
                far,
                spilled,
            } => {
                let vm = vms.entry(ev.vm.unwrap_or(0)).or_default();
                vm.occupancy += *pages as i64;
                vm.far_occ += *far as i64;
                // Import overflow is handed to the guest's reclaim callback
                // (pages pushed back to the swap device), which bumps the
                // kernel's reclaimed_pages without a `Reclaim` event.
                vm.reclaimed += spilled;
                led.migrations_in += 1;
                led.migrate_spilled += spilled;
            }
            Payload::MigrateDone { .. } => {}
        }
    }

    // Final per-VM occupancy against the hypervisor's closing accounting. A
    // VM that migrated away appears in the trace but not in this host's
    // vm_results: it must have left nothing behind.
    for (i, vr) in result.vm_results.iter().enumerate() {
        let v = vms.get(&vr.vm_id.0).copied().unwrap_or_default();
        check(
            report,
            &format!("final occupancy[{}]", vr.name),
            v.occupancy,
            result.final_tmem_used.get(i).copied().unwrap_or(0) as i64,
        );
        check(
            report,
            &format!("final far occupancy[{}]", vr.name),
            v.far_occ,
            result.final_far_used.get(i).copied().unwrap_or(0) as i64,
        );
    }
    let resident: std::collections::BTreeSet<u32> =
        result.vm_results.iter().map(|vr| vr.vm_id.0).collect();
    for (&id, v) in &vms {
        if !resident.contains(&id) {
            check(
                report,
                &format!("departed vm{id} occupancy"),
                v.occupancy,
                0,
            );
            check(
                report,
                &format!("departed vm{id} far occupancy"),
                v.far_occ,
                0,
            );
        }
    }
    // Per-interval alignment: every recorded series point was visited.
    if let Some(series) = series {
        if let Some(s) = series.used.first() {
            check(
                report,
                "interval closes vs series points",
                interval_idx,
                s.len(),
            );
        }
    }
    // The whole fault ledger, field by field.
    let lf = &result.faults;
    let ledger_fields: [(&str, u64, u64); 33] = [
        (
            "samples_delivered",
            led.samples_delivered,
            lf.samples_delivered,
        ),
        ("samples_dropped", led.samples_dropped, lf.samples_dropped),
        ("samples_delayed", led.samples_delayed, lf.samples_delayed),
        (
            "samples_duplicated",
            led.samples_duplicated,
            lf.samples_duplicated,
        ),
        ("netlink_dropped", led.netlink_dropped, lf.netlink_dropped),
        (
            "netlink_reordered",
            led.netlink_reordered,
            lf.netlink_reordered,
        ),
        (
            "hypercalls_failed",
            led.hypercalls_failed,
            lf.hypercalls_failed,
        ),
        (
            "hypercall_retries",
            led.hypercall_retries,
            lf.hypercall_retries,
        ),
        (
            "hypercalls_abandoned",
            led.hypercalls_abandoned,
            lf.hypercalls_abandoned,
        ),
        (
            "hypercalls_superseded",
            led.hypercalls_superseded,
            lf.hypercalls_superseded,
        ),
        ("mm_crashes", led.mm_crashes, lf.mm_crashes),
        ("mm_restarts", led.mm_restarts, lf.mm_restarts),
        ("seq_gaps", led.seq_gaps, lf.seq_gaps),
        (
            "snapshots_discarded",
            led.snapshots_discarded,
            lf.snapshots_discarded,
        ),
        ("stale_intervals", led.stale_intervals, lf.stale_intervals),
        (
            "invariant_checks",
            led.invariant_checks,
            lf.invariant_checks,
        ),
        (
            "invariant_violations",
            led.invariant_violations,
            lf.invariant_violations,
        ),
        (
            "bitflips_injected",
            led.bitflips_injected,
            lf.bitflips_injected,
        ),
        (
            "torn_writes_injected",
            led.torn_writes_injected,
            lf.torn_writes_injected,
        ),
        (
            "ephemeral_losses_injected",
            led.ephemeral_losses_injected,
            lf.ephemeral_losses_injected,
        ),
        (
            "put_io_failures_injected",
            led.put_io_failures_injected,
            lf.put_io_failures_injected,
        ),
        (
            "brownout_rejections",
            led.brownout_rejections,
            lf.brownout_rejections,
        ),
        ("brownout_ticks", led.brownout_ticks, lf.brownout_ticks),
        (
            "corruptions_detected",
            led.corruptions_detected,
            lf.corruptions_detected,
        ),
        (
            "corruptions_recovered",
            led.corruptions_recovered,
            lf.corruptions_recovered,
        ),
        (
            "objects_quarantined",
            led.objects_quarantined,
            lf.objects_quarantined,
        ),
        ("scrub_passes", led.scrub_passes, lf.scrub_passes),
        (
            "scrub_pages_checked",
            led.scrub_pages_checked,
            lf.scrub_pages_checked,
        ),
        ("migrations_out", led.migrations_out, lf.migrations_out),
        ("migrations_in", led.migrations_in, lf.migrations_in),
        ("migrate_pages", led.migrate_pages, lf.migrate_pages),
        ("migrate_purged", led.migrate_purged, lf.migrate_purged),
        ("migrate_spilled", led.migrate_spilled, lf.migrate_spilled),
    ];
    for (name, replayed, live) in ledger_fields {
        check(report, &format!("ledger.{name}"), replayed, live);
    }
    // The metrics registry must agree with a plain recount of the events.
    let m = &trace.metrics;
    check(report, "metrics.puts", puts, m.puts);
    check(
        report,
        "metrics.puts_rejected",
        puts_rejected,
        m.puts_rejected,
    );
    check(report, "metrics.gets", gets, m.gets);
    check(report, "metrics.get_hits", get_hits, m.get_hits);
    check(report, "metrics.flush_pages", flush_pages, m.flush_pages);
    check(report, "metrics.evictions", evictions, m.evictions);
    check(
        report,
        "metrics.reclaimed_pages",
        reclaimed_pages,
        m.reclaimed_pages,
    );
    check(report, "metrics.virq_samples", virq_samples, m.virq_samples);
    check(
        report,
        "metrics.relay_enqueued",
        relay_enqueued,
        m.relay_enqueued,
    );
    check(report, "metrics.relay_shed", relay_shed, m.relay_shed);
    check(report, "metrics.relay_pushes", relay_pushes, m.relay_pushes);
    check(
        report,
        "metrics.relay_retries",
        relay_retries,
        m.relay_retries,
    );
    check(report, "metrics.mm_decisions", mm_decisions, m.mm_decisions);
    check(
        report,
        "metrics.faults_injected",
        faults_injected,
        m.faults_injected,
    );
    // One latency sample per put; one depth sample per enqueue.
    check(report, "put_latency samples", m.put_latency.count(), puts);
    check(
        report,
        "relay_depth samples",
        m.relay_depth.count(),
        relay_enqueued,
    );
    // MM counters surfaced on the run result.
    check(report, "mm_cycles", mm_decisions, result.mm_cycles);
    check(report, "mm_transmissions", mm_sent, result.mm_transmissions);
    Ok(vms)
}

/// Per-VM admission counters against the guest kernels' own accounting.
/// `vms` may span several hosts' replays (summed), since kernel statistics
/// are lifetime totals that travel with a migrating VM.
fn check_admission_counters(
    result: &RunResult,
    vms: &BTreeMap<u32, VmReplay>,
    report: &mut ReplayReport,
) {
    for vr in &result.vm_results {
        let v = vms.get(&vr.vm_id.0).copied().unwrap_or_default();
        let ks = &vr.kernel_stats;
        let name = &vr.name;
        check(
            report,
            &format!("puts_succ[{name}]"),
            v.puts_succ,
            ks.evictions_to_tmem,
        );
        check(
            report,
            &format!("puts_failed[{name}]"),
            v.puts_failed,
            ks.failed_puts,
        );
        check(
            report,
            &format!("get_hits[{name}]"),
            v.get_hits,
            ks.tmem_faults,
        );
        check(
            report,
            &format!("flushes[{name}]"),
            v.flushes,
            ks.tmem_flushes,
        );
        check(
            report,
            &format!("reclaimed[{name}]"),
            v.reclaimed,
            ks.reclaimed_pages,
        );
    }
}
