//! Deterministic, seed-driven control-plane fault injection.
//!
//! SmarTmem's control loop crosses three failure domains: the hypervisor's
//! per-second VIRQ sampling, the dom0 TKM's netlink relay, and the
//! user-space Memory Manager process. Each edge can lose, delay, duplicate
//! or reorder its traffic, hypercall pushes can fail, and the MM can crash
//! outright. This module centralizes *whether* each of those faults happens
//! on a given message: the control-plane components consult a
//! [`FaultInjector`] at every edge crossing and record the outcome in a
//! [`FaultLedger`].
//!
//! Determinism contract: an injector is seeded explicitly and draws from its
//! own [`SplitMix64`] stream, independent of every workload stream, so a
//! `(profile, seed)` pair replays the exact same fault schedule — the chaos
//! determinism tests pin this down to report bytes. A disabled profile
//! ([`FaultProfile::none`]) never alters any decision, keeping fault-free
//! runs byte-identical to a build without the injector.

use crate::rng::SplitMix64;
use crate::trace::{labels, FaultKind, Payload, Tracer};

/// Probabilities and schedules for control-plane faults.
///
/// All probabilities are per-message and must lie in `[0, 1]`. The default
/// profile is fully disabled (all zero, no crash scheduled).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a VIRQ statistics sample is dropped before reaching dom0.
    pub virq_drop: f64,
    /// Probability a VIRQ sample is held back one interval (delivered late,
    /// behind the next sample).
    pub virq_delay: f64,
    /// Probability a VIRQ sample is delivered twice.
    pub virq_duplicate: f64,
    /// Probability a netlink stats message (dom0 → MM) is lost.
    pub netlink_drop: f64,
    /// Probability a netlink stats message is deferred behind the next one
    /// (reordering).
    pub netlink_reorder: f64,
    /// Probability a `SetTargets` hypercall push fails (timeout/EAGAIN).
    pub hypercall_fail: f64,
    /// Probability a stored page's contents are corrupted in flight by a
    /// bit flip (per admitted put, either pool kind).
    pub page_bitflip: f64,
    /// Probability a put is torn — only part of the page lands, leaving
    /// contents that do not match the recorded integrity summary.
    pub torn_write: f64,
    /// Probability an ephemeral page is silently dropped right after a
    /// successful put (the guest is told it stored; the pool forgets it).
    pub ephemeral_loss: f64,
    /// Probability a persistent put fails with a backend I/O error (the
    /// guest sees a failed put and falls back to its swap disk).
    pub put_io_fail: f64,
    /// MM cycle count at which the MM process crashes (once per run).
    pub mm_crash_at_cycle: Option<u64>,
    /// Sampling intervals the watchdog waits before restarting a crashed MM.
    pub mm_restart_after: u64,
    /// Brownout period in sampling intervals: every `brownout_every`
    /// intervals the backend goes dark for the last [`brownout_for`]
    /// intervals of the period, rejecting every put. 0 disables brownouts.
    ///
    /// [`brownout_for`]: FaultProfile::brownout_for
    pub brownout_every: u64,
    /// Length of each brownout window, in sampling intervals (must be
    /// `1..=brownout_every` when brownouts are enabled).
    pub brownout_for: u64,
    /// Run the pool scrubber every this many sampling intervals (plus one
    /// final pass at scenario end). 0 disables periodic scrubbing.
    pub scrub_every: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The disabled profile: no fault is ever injected.
    pub fn none() -> Self {
        FaultProfile {
            virq_drop: 0.0,
            virq_delay: 0.0,
            virq_duplicate: 0.0,
            netlink_drop: 0.0,
            netlink_reorder: 0.0,
            hypercall_fail: 0.0,
            page_bitflip: 0.0,
            torn_write: 0.0,
            ephemeral_loss: 0.0,
            put_io_fail: 0.0,
            mm_crash_at_cycle: None,
            mm_restart_after: 3,
            brownout_every: 0,
            brownout_for: 0,
            scrub_every: 0,
        }
    }

    /// True when no fault can ever fire under this profile.
    pub fn is_disabled(&self) -> bool {
        self.virq_drop == 0.0
            && self.virq_delay == 0.0
            && self.virq_duplicate == 0.0
            && self.netlink_drop == 0.0
            && self.netlink_reorder == 0.0
            && self.hypercall_fail == 0.0
            && self.mm_crash_at_cycle.is_none()
            && !self.has_data_plane()
    }

    /// True when any data-plane machinery (corruption, loss, put I/O
    /// failure, brownout windows or periodic scrubbing) is active. The
    /// scenario runner attaches a [`DataFaultInjector`] to the hypervisor
    /// exactly when this holds.
    pub fn has_data_plane(&self) -> bool {
        self.page_bitflip > 0.0
            || self.torn_write > 0.0
            || self.ephemeral_loss > 0.0
            || self.put_io_fail > 0.0
            || self.brownout_every > 0
            || self.scrub_every > 0
    }

    /// Validate the profile: probabilities in `[0, 1]` (and jointly ≤ 1 per
    /// edge, since the fates of one message are mutually exclusive), restart
    /// delay positive. Returns an actionable message on violation.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("virq_drop", self.virq_drop),
            ("virq_delay", self.virq_delay),
            ("virq_duplicate", self.virq_duplicate),
            ("netlink_drop", self.netlink_drop),
            ("netlink_reorder", self.netlink_reorder),
            ("hypercall_fail", self.hypercall_fail),
            ("page_bitflip", self.page_bitflip),
            ("torn_write", self.torn_write),
            ("ephemeral_loss", self.ephemeral_loss),
            ("put_io_fail", self.put_io_fail),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!(
                    "fault probability {name} = {p} is outside [0, 1]; \
                     probabilities are per-message"
                ));
            }
        }
        let virq_sum = self.virq_drop + self.virq_delay + self.virq_duplicate;
        if virq_sum > 1.0 {
            return Err(format!(
                "virq fault probabilities sum to {virq_sum} > 1; drop, delay \
                 and duplicate are mutually exclusive fates of one sample"
            ));
        }
        let nl_sum = self.netlink_drop + self.netlink_reorder;
        if nl_sum > 1.0 {
            return Err(format!(
                "netlink fault probabilities sum to {nl_sum} > 1; drop and \
                 reorder are mutually exclusive fates of one message"
            ));
        }
        let pers_sum = self.page_bitflip + self.torn_write + self.put_io_fail;
        if pers_sum > 1.0 {
            return Err(format!(
                "persistent-put fault probabilities sum to {pers_sum} > 1; \
                 bit flip, torn write and I/O failure are mutually exclusive \
                 fates of one put"
            ));
        }
        let eph_sum = self.page_bitflip + self.torn_write + self.ephemeral_loss;
        if eph_sum > 1.0 {
            return Err(format!(
                "ephemeral-put fault probabilities sum to {eph_sum} > 1; bit \
                 flip, torn write and silent loss are mutually exclusive fates \
                 of one put"
            ));
        }
        if self.brownout_every > 0 && !(1..=self.brownout_every).contains(&self.brownout_for) {
            return Err(format!(
                "brownout_for = {} must lie in 1..={} (the brownout window \
                 cannot be empty or longer than its period brownout_every)",
                self.brownout_for, self.brownout_every
            ));
        }
        if self.brownout_every == 0 && self.brownout_for > 0 {
            return Err("brownout_for is set but brownout_every = 0 schedules no \
                 brownout window (set brownout_every or drop brownout_for)"
                .into());
        }
        if self.mm_crash_at_cycle.is_some() && self.mm_restart_after == 0 {
            return Err(
                "mm_restart_after must be >= 1 interval when an MM crash is \
                 scheduled (0 would model a crash the watchdog never observes)"
                    .into(),
            );
        }
        Ok(())
    }

    /// The per-message probability fields, in declaration order. These
    /// names are the schema of on-disk chaos-profile files: the scenario
    /// DSL reads and writes profiles through [`FaultProfile::prob`] /
    /// [`FaultProfile::set_prob`], so a field added here is automatically
    /// legal in `.toml` profiles (and anything else is rejected by name).
    pub const PROB_FIELDS: [&'static str; 10] = [
        "virq_drop",
        "virq_delay",
        "virq_duplicate",
        "netlink_drop",
        "netlink_reorder",
        "hypercall_fail",
        "page_bitflip",
        "torn_write",
        "ephemeral_loss",
        "put_io_fail",
    ];

    /// Read a probability field by its schema name.
    pub fn prob(&self, field: &str) -> Option<f64> {
        match field {
            "virq_drop" => Some(self.virq_drop),
            "virq_delay" => Some(self.virq_delay),
            "virq_duplicate" => Some(self.virq_duplicate),
            "netlink_drop" => Some(self.netlink_drop),
            "netlink_reorder" => Some(self.netlink_reorder),
            "hypercall_fail" => Some(self.hypercall_fail),
            "page_bitflip" => Some(self.page_bitflip),
            "torn_write" => Some(self.torn_write),
            "ephemeral_loss" => Some(self.ephemeral_loss),
            "put_io_fail" => Some(self.put_io_fail),
            _ => None,
        }
    }

    /// Set a probability field by its schema name. Rejects unknown names
    /// (listing the legal ones) and out-of-range values; cross-field
    /// constraints are still [`FaultProfile::validate`]'s job.
    pub fn set_prob(&mut self, field: &str, value: f64) -> Result<(), String> {
        if !(0.0..=1.0).contains(&value) || value.is_nan() {
            return Err(format!(
                "fault probability {field} = {value} is outside [0, 1]; \
                 probabilities are per-message"
            ));
        }
        let slot = match field {
            "virq_drop" => &mut self.virq_drop,
            "virq_delay" => &mut self.virq_delay,
            "virq_duplicate" => &mut self.virq_duplicate,
            "netlink_drop" => &mut self.netlink_drop,
            "netlink_reorder" => &mut self.netlink_reorder,
            "hypercall_fail" => &mut self.hypercall_fail,
            "page_bitflip" => &mut self.page_bitflip,
            "torn_write" => &mut self.torn_write,
            "ephemeral_loss" => &mut self.ephemeral_loss,
            "put_io_fail" => &mut self.put_io_fail,
            other => {
                return Err(format!(
                    "unknown fault field '{other}' (known: {}, mm_crash_at_cycle, \
                     mm_restart_after, brownout_every, brownout_for, scrub_every)",
                    Self::PROB_FIELDS.join(", ")
                ))
            }
        };
        *slot = value;
        Ok(())
    }

    /// Render the profile as the body of an on-disk chaos file: one
    /// `key = value` line per non-default field, schema names throughout.
    /// The output round-trips through the scenario DSL's chaos parser.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for field in Self::PROB_FIELDS {
            let p = self.prob(field).expect("every schema field is readable");
            if p != 0.0 {
                out.push_str(&format!("{field} = {p}\n"));
            }
        }
        if let Some(cycle) = self.mm_crash_at_cycle {
            out.push_str(&format!("mm_crash_at_cycle = {cycle}\n"));
            out.push_str(&format!("mm_restart_after = {}\n", self.mm_restart_after));
        }
        if self.brownout_every > 0 {
            out.push_str(&format!("brownout_every = {}\n", self.brownout_every));
            out.push_str(&format!("brownout_for = {}\n", self.brownout_for));
        }
        if self.scrub_every > 0 {
            out.push_str(&format!("scrub_every = {}\n", self.scrub_every));
        }
        out
    }
}

labels! {
    /// What happens to one VIRQ statistics sample.
    pub enum SampleFate {
        /// Delivered normally.
        Deliver as "deliver",
        /// Lost; dom0 never sees this interval's sample.
        Drop as "drop",
        /// Held back one interval and delivered behind the next sample.
        Delay as "delay",
        /// Delivered twice (retransmission glitch).
        Duplicate as "dup",
    }
}

labels! {
    /// What happens to one netlink stats message (dom0 → MM).
    pub enum NetlinkFate {
        /// Delivered normally.
        Deliver as "deliver",
        /// Lost in the socket; the MM never sees it.
        Drop as "drop",
        /// Deferred behind the next message (reordering).
        Reorder as "reorder",
    }
}

/// Running totals of injected faults and degradation events for one run.
///
/// The ledger mixes *injected* counts (the injector's own decisions) with
/// *observed* counts the control-plane components report back (retries,
/// restarts, stale intervals, invariant checks) so chaos reports can show
/// the whole episode in one place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// VIRQ samples delivered normally.
    pub samples_delivered: u64,
    /// VIRQ samples dropped.
    pub samples_dropped: u64,
    /// VIRQ samples delayed one interval.
    pub samples_delayed: u64,
    /// VIRQ samples duplicated.
    pub samples_duplicated: u64,
    /// Netlink stats messages dropped.
    pub netlink_dropped: u64,
    /// Netlink stats messages reordered.
    pub netlink_reordered: u64,
    /// `SetTargets` pushes that failed (first attempts and retries).
    pub hypercalls_failed: u64,
    /// Retry attempts issued by the dom0 relay.
    pub hypercall_retries: u64,
    /// Pushes abandoned after exhausting the retry budget.
    pub hypercalls_abandoned: u64,
    /// Pushes superseded by a newer target vector while pending retry.
    pub hypercalls_superseded: u64,
    /// MM crash episodes.
    pub mm_crashes: u64,
    /// MM watchdog restarts.
    pub mm_restarts: u64,
    /// Snapshot sequence gaps the MM detected (each gap may span several
    /// missing samples).
    pub seq_gaps: u64,
    /// Duplicate/stale snapshots the MM discarded idempotently.
    pub snapshots_discarded: u64,
    /// Sampling intervals the hypervisor spent in stale-target fallback.
    pub stale_intervals: u64,
    /// tmem accounting invariant checks performed.
    pub invariant_checks: u64,
    /// tmem accounting invariant violations observed (must stay 0).
    pub invariant_violations: u64,
    /// Data plane: page bit flips injected into stored pages.
    pub bitflips_injected: u64,
    /// Data plane: torn writes injected into stored pages.
    pub torn_writes_injected: u64,
    /// Data plane: ephemeral pages silently dropped after a successful put.
    pub ephemeral_losses_injected: u64,
    /// Data plane: persistent puts failed with an injected I/O error.
    pub put_io_failures_injected: u64,
    /// Data plane: puts rejected inside a brownout window.
    pub brownout_rejections: u64,
    /// Data plane: sampling intervals spent inside a brownout window.
    pub brownout_ticks: u64,
    /// Data plane: checksum mismatches detected (each corrupted page is
    /// counted once, at first detection — get, flush, reclaim or scrub).
    pub corruptions_detected: u64,
    /// Data plane: detected corruptions the guest recovered from (clean
    /// ephemeral miss, or persistent retry/requeue rebuilding the page).
    pub corruptions_recovered: u64,
    /// Data plane: corrupt objects quarantined (removed wholesale) by the
    /// scrubber.
    pub objects_quarantined: u64,
    /// Data plane: scrubber passes completed.
    pub scrub_passes: u64,
    /// Data plane: pages checksum-verified by the scrubber.
    pub scrub_pages_checked: u64,
    /// Fleet: VMs migrated off this host.
    pub migrations_out: u64,
    /// Fleet: VMs that landed on this host by migration.
    pub migrations_in: u64,
    /// Fleet: tmem pages (local + far) exported by outbound migrations.
    pub migrate_pages: u64,
    /// Fleet: corrupt pages found at migration export and dropped there
    /// (never transferred or laundered into the destination).
    pub migrate_purged: u64,
    /// Fleet: imported pages that found no tmem room on the destination
    /// and spilled to its swap disk.
    pub migrate_spilled: u64,
}

impl FaultLedger {
    /// Total faults injected at any edge (not counting degradation
    /// bookkeeping like retries or stale intervals).
    pub fn injected(&self) -> u64 {
        self.samples_dropped
            + self.samples_delayed
            + self.samples_duplicated
            + self.netlink_dropped
            + self.netlink_reordered
            + self.hypercalls_failed
            + self.mm_crashes
            + self.bitflips_injected
            + self.torn_writes_injected
            + self.ephemeral_losses_injected
            + self.put_io_failures_injected
            + self.brownout_rejections
    }
}

/// The per-run fault decision engine: a profile, a private RNG stream and
/// the ledger.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: SplitMix64,
    ledger: FaultLedger,
    crash_fired: bool,
    tracer: Tracer,
}

impl FaultInjector {
    /// An injector for `profile`, drawing from a stream seeded by `seed`.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultInjector {
            profile,
            rng: SplitMix64::new(seed).derive("faults"),
            ledger: FaultLedger::default(),
            crash_fired: false,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a flight-recorder handle; every injected fault then emits one
    /// [`Payload::Fault`] event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn trace_fault(&self, kind: FaultKind) {
        self.tracer.emit(|| (None, Payload::Fault { kind }));
    }

    /// An injector that never injects anything.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultProfile::none(), 0)
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide the fate of one VIRQ statistics sample.
    pub fn sample_fate(&mut self) -> SampleFate {
        let p = &self.profile;
        if p.virq_drop == 0.0 && p.virq_delay == 0.0 && p.virq_duplicate == 0.0 {
            self.ledger.samples_delivered += 1;
            return SampleFate::Deliver;
        }
        let x = self.rng.next_f64();
        if x < p.virq_drop {
            self.ledger.samples_dropped += 1;
            self.trace_fault(FaultKind::SampleDrop);
            SampleFate::Drop
        } else if x < p.virq_drop + p.virq_delay {
            self.ledger.samples_delayed += 1;
            self.trace_fault(FaultKind::SampleDelay);
            SampleFate::Delay
        } else if x < p.virq_drop + p.virq_delay + p.virq_duplicate {
            self.ledger.samples_duplicated += 1;
            self.trace_fault(FaultKind::SampleDuplicate);
            SampleFate::Duplicate
        } else {
            self.ledger.samples_delivered += 1;
            SampleFate::Deliver
        }
    }

    /// Decide the fate of one netlink stats message.
    pub fn netlink_fate(&mut self) -> NetlinkFate {
        let p = &self.profile;
        if p.netlink_drop == 0.0 && p.netlink_reorder == 0.0 {
            return NetlinkFate::Deliver;
        }
        let x = self.rng.next_f64();
        if x < p.netlink_drop {
            self.ledger.netlink_dropped += 1;
            self.trace_fault(FaultKind::NetlinkDrop);
            NetlinkFate::Drop
        } else if x < p.netlink_drop + p.netlink_reorder {
            self.ledger.netlink_reordered += 1;
            self.trace_fault(FaultKind::NetlinkReorder);
            NetlinkFate::Reorder
        } else {
            NetlinkFate::Deliver
        }
    }

    /// Decide whether one `SetTargets` hypercall push fails.
    pub fn hypercall_fails(&mut self) -> bool {
        if self.profile.hypercall_fail == 0.0 {
            return false;
        }
        let fails = self.rng.next_f64() < self.profile.hypercall_fail;
        if fails {
            self.ledger.hypercalls_failed += 1;
            self.trace_fault(FaultKind::HypercallFail);
        }
        fails
    }

    /// Whether the MM should crash now, given it has completed `cycle`
    /// processing cycles. Fires at most once per run.
    pub fn mm_should_crash(&mut self, cycle: u64) -> bool {
        match self.profile.mm_crash_at_cycle {
            Some(at) if !self.crash_fired && cycle >= at => {
                self.crash_fired = true;
                self.ledger.mm_crashes += 1;
                self.trace_fault(FaultKind::MmCrash);
                true
            }
            _ => false,
        }
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
    }

    /// Mutable ledger access for components reporting observed degradation
    /// events (retries, restarts, stale intervals, invariant checks).
    pub fn ledger_mut(&mut self) -> &mut FaultLedger {
        &mut self.ledger
    }

    /// Consume the injector, returning its final ledger.
    pub fn into_ledger(self) -> FaultLedger {
        self.ledger
    }
}

/// The fate the data-plane injector assigns to one admitted tmem put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutFate {
    /// Stored intact.
    Deliver,
    /// Stored, then the page contents flip a bit (checksum now stale).
    Bitflip,
    /// Stored torn: the page contents do not match the recorded summary.
    Torn,
    /// The put fails with a backend I/O error (persistent pools only).
    IoFail,
    /// Stored, then silently dropped (ephemeral pools only).
    Lose,
}

/// Running totals of data-plane faults and the integrity machinery's
/// responses, kept by the hypervisor alongside its [`DataFaultInjector`]
/// and folded into the run's [`FaultLedger`] at scenario end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataFaultLedger {
    /// Page bit flips injected.
    pub bitflips_injected: u64,
    /// Torn writes injected.
    pub torn_writes_injected: u64,
    /// Ephemeral pages silently dropped after a successful put.
    pub ephemeral_losses_injected: u64,
    /// Persistent puts failed with an injected I/O error.
    pub put_io_failures_injected: u64,
    /// Puts rejected inside a brownout window.
    pub brownout_rejections: u64,
    /// Sampling intervals spent inside a brownout window.
    pub brownout_ticks: u64,
    /// Checksum mismatches detected (once per corrupted page).
    pub corruptions_detected: u64,
    /// Detected corruptions the guest recovered from.
    pub corruptions_recovered: u64,
    /// Corrupt objects quarantined by the scrubber.
    pub objects_quarantined: u64,
    /// Scrubber passes completed.
    pub scrub_passes: u64,
    /// Pages checksum-verified by the scrubber.
    pub scrub_pages_checked: u64,
}

impl DataFaultLedger {
    /// Add the data-plane totals onto a run's [`FaultLedger`].
    pub fn fold_into(&self, l: &mut FaultLedger) {
        l.bitflips_injected += self.bitflips_injected;
        l.torn_writes_injected += self.torn_writes_injected;
        l.ephemeral_losses_injected += self.ephemeral_losses_injected;
        l.put_io_failures_injected += self.put_io_failures_injected;
        l.brownout_rejections += self.brownout_rejections;
        l.brownout_ticks += self.brownout_ticks;
        l.corruptions_detected += self.corruptions_detected;
        l.corruptions_recovered += self.corruptions_recovered;
        l.objects_quarantined += self.objects_quarantined;
        l.scrub_passes += self.scrub_passes;
        l.scrub_pages_checked += self.scrub_pages_checked;
    }
}

/// The data-plane fault decision engine: a profile, a private RNG stream
/// (independent of the control-plane injector's, so enabling data faults
/// never perturbs a control-plane schedule) and the data-fault ledger.
///
/// The determinism contract matches [`FaultInjector`]'s: every decision
/// method early-returns without touching the RNG when the probabilities it
/// consults are all zero, and the brownout/scrub schedules are pure
/// functions of the interval counter — so a profile with (say) only
/// `scrub_every` set draws zero RNG and perturbs nothing.
#[derive(Debug, Clone)]
pub struct DataFaultInjector {
    profile: FaultProfile,
    rng: SplitMix64,
    ledger: DataFaultLedger,
    intervals: u64,
}

impl DataFaultInjector {
    /// An injector for `profile`, drawing from a `"data-faults"` stream
    /// derived from `seed` (disjoint from the control-plane `"faults"`
    /// stream).
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        DataFaultInjector {
            profile,
            rng: SplitMix64::new(seed).derive("data-faults"),
            ledger: DataFaultLedger::default(),
            intervals: 0,
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide the fate of one admitted persistent put. Ledger counts are
    /// the caller's job: a fate only counts once it is actually applied
    /// (a put that then fails on capacity injected nothing).
    pub fn persistent_put_fate(&mut self) -> PutFate {
        let p = &self.profile;
        if p.page_bitflip == 0.0 && p.torn_write == 0.0 && p.put_io_fail == 0.0 {
            return PutFate::Deliver;
        }
        let x = self.rng.next_f64();
        if x < p.page_bitflip {
            PutFate::Bitflip
        } else if x < p.page_bitflip + p.torn_write {
            PutFate::Torn
        } else if x < p.page_bitflip + p.torn_write + p.put_io_fail {
            PutFate::IoFail
        } else {
            PutFate::Deliver
        }
    }

    /// Decide the fate of one admitted ephemeral put.
    pub fn ephemeral_put_fate(&mut self) -> PutFate {
        let p = &self.profile;
        if p.page_bitflip == 0.0 && p.torn_write == 0.0 && p.ephemeral_loss == 0.0 {
            return PutFate::Deliver;
        }
        let x = self.rng.next_f64();
        if x < p.page_bitflip {
            PutFate::Bitflip
        } else if x < p.page_bitflip + p.torn_write {
            PutFate::Torn
        } else if x < p.page_bitflip + p.torn_write + p.ephemeral_loss {
            PutFate::Lose
        } else {
            PutFate::Deliver
        }
    }

    /// Close one sampling interval: advances the brownout/scrub clock and
    /// returns whether the *new* interval sits inside a brownout window
    /// (counting it in the ledger if so). Draws no RNG.
    pub fn tick_interval(&mut self) -> bool {
        self.intervals += 1;
        let browned = self.in_brownout();
        if browned {
            self.ledger.brownout_ticks += 1;
        }
        browned
    }

    /// Whether the backend is currently inside a brownout window: the last
    /// `brownout_for` intervals of every `brownout_every`-interval period.
    pub fn in_brownout(&self) -> bool {
        let every = self.profile.brownout_every;
        every > 0 && self.intervals % every >= every - self.profile.brownout_for
    }

    /// Whether a periodic scrub pass is due at the interval that just
    /// closed ([`Self::tick_interval`] must have been called first).
    pub fn scrub_due(&self) -> bool {
        let every = self.profile.scrub_every;
        every > 0 && self.intervals.is_multiple_of(every)
    }

    /// Read access to the data-fault ledger.
    pub fn ledger(&self) -> &DataFaultLedger {
        &self.ledger
    }

    /// Mutable ledger access for the hypervisor's injection/detection/
    /// recovery bookkeeping.
    pub fn ledger_mut(&mut self) -> &mut DataFaultLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_never_injects() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert_eq!(inj.sample_fate(), SampleFate::Deliver);
            assert_eq!(inj.netlink_fate(), NetlinkFate::Deliver);
            assert!(!inj.hypercall_fails());
            assert!(!inj.mm_should_crash(u64::MAX));
        }
        assert_eq!(inj.ledger().injected(), 0);
        assert_eq!(inj.ledger().samples_delivered, 1000);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let profile = FaultProfile {
            virq_drop: 0.3,
            virq_delay: 0.1,
            virq_duplicate: 0.1,
            netlink_drop: 0.2,
            hypercall_fail: 0.25,
            ..FaultProfile::none()
        };
        let mut a = FaultInjector::new(profile.clone(), 99);
        let mut b = FaultInjector::new(profile, 99);
        for _ in 0..500 {
            assert_eq!(a.sample_fate(), b.sample_fate());
            assert_eq!(a.netlink_fate(), b.netlink_fate());
            assert_eq!(a.hypercall_fails(), b.hypercall_fails());
        }
        assert_eq!(a.ledger(), b.ledger());
        assert!(a.ledger().injected() > 0, "faults must actually fire");
    }

    #[test]
    fn fate_frequencies_track_probabilities() {
        let profile = FaultProfile {
            virq_drop: 0.5,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 7);
        for _ in 0..10_000 {
            inj.sample_fate();
        }
        let dropped = inj.ledger().samples_dropped as f64 / 10_000.0;
        assert!((dropped - 0.5).abs() < 0.03, "drop rate was {dropped}");
    }

    #[test]
    fn crash_fires_exactly_once_at_threshold() {
        let profile = FaultProfile {
            mm_crash_at_cycle: Some(5),
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 1);
        assert!(!inj.mm_should_crash(4));
        assert!(inj.mm_should_crash(5));
        assert!(!inj.mm_should_crash(6), "one crash per run");
        assert_eq!(inj.ledger().mm_crashes, 1);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let mut p = FaultProfile::none();
        assert!(p.validate().is_ok());
        p.virq_drop = 1.5;
        assert!(p.validate().unwrap_err().contains("outside [0, 1]"));
        p.virq_drop = 0.7;
        p.virq_delay = 0.4;
        assert!(p.validate().unwrap_err().contains("sum"));
        p.virq_delay = 0.0;
        p.virq_drop = -0.1;
        assert!(p.validate().is_err());
        p.virq_drop = 0.0;
        p.mm_crash_at_cycle = Some(3);
        p.mm_restart_after = 0;
        assert!(p.validate().unwrap_err().contains("mm_restart_after"));
    }

    #[test]
    fn prob_fields_cover_every_probability() {
        let mut p = FaultProfile::none();
        for (i, field) in FaultProfile::PROB_FIELDS.iter().enumerate() {
            assert_eq!(p.prob(field), Some(0.0));
            let v = (i + 1) as f64 / 100.0;
            p.set_prob(field, v).unwrap();
            assert_eq!(p.prob(field), Some(v));
        }
        assert_eq!(p.prob("mm_crash_at_cycle"), None, "not a probability");
        let err = p.set_prob("virq_flood", 0.1).unwrap_err();
        assert!(err.contains("unknown fault field"), "{err}");
        assert!(err.contains("virq_drop"), "should list known fields: {err}");
        let err = p.set_prob("virq_drop", 1.5).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
        assert!(p.set_prob("virq_drop", f64::NAN).is_err());
    }

    #[test]
    fn to_toml_names_match_schema_and_skip_defaults() {
        assert_eq!(FaultProfile::none().to_toml(), "");
        let p = FaultProfile {
            virq_drop: 0.30,
            netlink_drop: 0.20,
            mm_crash_at_cycle: Some(5),
            mm_restart_after: 3,
            ..FaultProfile::none()
        };
        let toml = p.to_toml();
        assert_eq!(
            toml,
            "virq_drop = 0.3\nnetlink_drop = 0.2\n\
             mm_crash_at_cycle = 5\nmm_restart_after = 3\n"
        );
    }

    #[test]
    fn data_plane_validation_rejects_bad_profiles() {
        let mut p = FaultProfile::none();
        p.page_bitflip = 0.6;
        p.torn_write = 0.3;
        p.put_io_fail = 0.2;
        assert!(p.validate().unwrap_err().contains("persistent-put"));
        p.put_io_fail = 0.0;
        p.ephemeral_loss = 0.2;
        assert!(p.validate().unwrap_err().contains("ephemeral-put"));
        p = FaultProfile::none();
        p.brownout_every = 10;
        assert!(p.validate().unwrap_err().contains("brownout_for"));
        p.brownout_for = 11;
        assert!(p.validate().is_err(), "window longer than period");
        p.brownout_for = 10;
        assert!(p.validate().is_ok());
        p = FaultProfile::none();
        p.brownout_for = 2;
        assert!(p.validate().unwrap_err().contains("brownout_every"));
    }

    #[test]
    fn data_plane_to_toml_round_trip_fields() {
        let p = FaultProfile {
            page_bitflip: 0.02,
            put_io_fail: 0.05,
            brownout_every: 20,
            brownout_for: 4,
            scrub_every: 5,
            ..FaultProfile::none()
        };
        assert_eq!(
            p.to_toml(),
            "page_bitflip = 0.02\nput_io_fail = 0.05\n\
             brownout_every = 20\nbrownout_for = 4\nscrub_every = 5\n"
        );
    }

    #[test]
    fn data_injector_same_seed_same_schedule() {
        let profile = FaultProfile {
            page_bitflip: 0.2,
            torn_write: 0.1,
            ephemeral_loss: 0.2,
            put_io_fail: 0.1,
            ..FaultProfile::none()
        };
        let mut a = DataFaultInjector::new(profile.clone(), 99);
        let mut b = DataFaultInjector::new(profile, 99);
        let mut non_deliver = 0;
        for _ in 0..500 {
            let (fa, fb) = (a.persistent_put_fate(), b.persistent_put_fate());
            assert_eq!(fa, fb);
            assert_eq!(a.ephemeral_put_fate(), b.ephemeral_put_fate());
            if fa != PutFate::Deliver {
                non_deliver += 1;
            }
        }
        assert!(non_deliver > 50, "fates must actually fire: {non_deliver}");
    }

    #[test]
    fn data_injector_zero_probs_draw_no_rng() {
        // A scrub-only profile must decide every put without touching its
        // RNG: two injectors stay in lockstep even when one also answers
        // thousands of put-fate queries the other never sees.
        let profile = FaultProfile {
            scrub_every: 5,
            ..FaultProfile::none()
        };
        let mut a = DataFaultInjector::new(profile.clone(), 7);
        let b = DataFaultInjector::new(profile, 7);
        for _ in 0..1000 {
            assert_eq!(a.persistent_put_fate(), PutFate::Deliver);
            assert_eq!(a.ephemeral_put_fate(), PutFate::Deliver);
        }
        assert_eq!(a.rng, b.rng, "zero-probability paths must not draw");
        assert_eq!(a.ledger(), b.ledger());
    }

    #[test]
    fn brownout_windows_are_the_tail_of_each_period() {
        let profile = FaultProfile {
            brownout_every: 10,
            brownout_for: 3,
            put_io_fail: 0.0,
            ..FaultProfile::none()
        };
        let mut inj = DataFaultInjector::new(profile, 0);
        let mut browned = Vec::new();
        for interval in 1..=20u64 {
            if inj.tick_interval() {
                browned.push(interval);
            }
        }
        assert_eq!(browned, [7, 8, 9, 17, 18, 19]);
        assert_eq!(inj.ledger().brownout_ticks, 6);
    }

    #[test]
    fn scrub_schedule_fires_every_period() {
        let profile = FaultProfile {
            scrub_every: 4,
            ..FaultProfile::none()
        };
        let mut inj = DataFaultInjector::new(profile, 0);
        let due: Vec<u64> = (1..=12u64)
            .filter(|_| {
                inj.tick_interval();
                inj.scrub_due()
            })
            .collect();
        assert_eq!(due.len(), 3, "intervals 4, 8, 12");
    }

    #[test]
    fn data_ledger_folds_into_fault_ledger() {
        let dl = DataFaultLedger {
            bitflips_injected: 1,
            torn_writes_injected: 2,
            ephemeral_losses_injected: 3,
            put_io_failures_injected: 4,
            brownout_rejections: 5,
            brownout_ticks: 6,
            corruptions_detected: 7,
            corruptions_recovered: 8,
            objects_quarantined: 9,
            scrub_passes: 10,
            scrub_pages_checked: 11,
        };
        let mut l = FaultLedger::default();
        dl.fold_into(&mut l);
        assert_eq!(l.bitflips_injected, 1);
        assert_eq!(l.put_io_failures_injected, 4);
        assert_eq!(l.scrub_pages_checked, 11);
        // Injected totals include every data-plane injection class but not
        // the detection/recovery bookkeeping.
        assert_eq!(l.injected(), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn disabled_detection() {
        assert!(FaultProfile::none().is_disabled());
        let p = FaultProfile {
            hypercall_fail: 0.01,
            ..FaultProfile::none()
        };
        assert!(!p.is_disabled());
        let crash_only = FaultProfile {
            mm_crash_at_cycle: Some(1),
            ..FaultProfile::none()
        };
        assert!(!crash_only.is_disabled());
    }
}
