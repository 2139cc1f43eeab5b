//! Flight recorder: zero-cost-when-disabled structured event tracing.
//!
//! The paper's evaluation is read off per-second telemetry; this module is
//! the simulator's equivalent of that telemetry plane, generalized into a
//! structured event stream every subsystem emits into:
//!
//! * tmem datapath: put/get/flush/evict with outcome and pool, including
//!   the `tmem_used < mm_target` admission operands from Algorithm 1,
//! * control plane: VIRQ sample fates, netlink relay enqueue/shed/retry,
//!   MM policy decisions with the per-VM target vector and the Eq. 1/2
//!   rescale inputs,
//! * fault layer: every injected fault.
//!
//! Events carry `(SimTime, vm, payload)`; the payload's kind fixes the
//! emitting subsystem, and one declaration table (`events!`) spells out
//! each kind's JSONL name, subsystem and fields. A [`Recorder`] folds
//! each event once into a [`Fold`] (occupancy, per-VM admission counts,
//! fault and fate counts, MM sequence gaps, migration flows) and then pushes
//! it into a bounded ring, the window the JSONL form writes. The fold sees
//! every event, including those the ring later drops, and the
//! [`TraceMetrics`] registry (counters plus [`Histogram`]s of put latency
//! and relay queue depth) is read off it. The handle every component holds
//! is a [`Tracer`] — a cheap clone of an `Option<Rc<RefCell<Recorder>>>`.
//! When tracing is disabled the option is `None` and [`Tracer::emit`] is a
//! single branch: the closure that would build the event is never called,
//! so disabled runs stay byte-identical to a build without the recorder.
//!
//! The schema is a load-bearing contract: `scenarios::trace_check` compares
//! each host's fold with the live accounting, `inspect` folds a parsed
//! JSONL trace with the same [`Fold`], and a golden JSONL file pins the
//! serialized form byte-exactly.

use crate::cost::CostModel;
use crate::faults::{FaultLedger, NetlinkFate, SampleFate};
use crate::metrics::Histogram;
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// Version stamped into every JSONL trace header. Bump when the event
/// schema changes shape; `inspect`/replay reject traces from other versions.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Default ring-buffer capacity (events) when a [`TraceConfig`] does not
/// override it. Large enough to hold every event of the shipped scenarios
/// at report scale.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Switch + sizing for the flight recorder, carried inside the run
/// configuration. Absent (`None` at the config level) means tracing is
/// fully disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; the oldest event is dropped (and
    /// counted) once the ring is full.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Declares a label enum: each variant is written in the JSONL form as one
/// fixed string, and `from_label` reads it back off the same list.
macro_rules! labels {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident as $label:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every variant, in discriminant order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// Stable label used in the JSONL form.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }

            /// Inverse of `as_str`.
            pub(crate) fn from_label(s: &str) -> Option<Self> {
                Self::ALL.iter().copied().find(|v| v.as_str() == s)
            }
        }

        impl $crate::trace::Wire for $name {
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.as_str());
                out.push('"');
            }

            fn read(v: &$crate::trace::Json) -> Option<Self> {
                match v {
                    $crate::trace::Json::S(s) => Self::from_label(s),
                    _ => None,
                }
            }
        }
    };
}
pub(crate) use labels;

labels! {
    /// Which layer of the stack emitted an event. The label is also the
    /// `--filter` name.
    pub enum Subsystem {
        /// The tmem datapath (put/get/flush/evict/reclaim, far-tier traffic).
        Tmem as "tmem",
        /// Hypervisor control state (target-vector application).
        Hypervisor as "hyp",
        /// Per-second VIRQ sampling (sample fates, interval closes).
        Virq as "virq",
        /// The dom0 TKM netlink relay (enqueue/shed/push/retry).
        Relay as "relay",
        /// The user-space Memory Manager (decisions, discards, crashes).
        Mm as "mm",
        /// The fault-injection layer (one event per injected fault).
        Fault as "fault",
        /// The fleet layer (VM migrations only).
        Fleet as "fleet",
    }
}

labels! {
    /// Outcome of one tmem put as seen by the admission path.
    pub enum PutResult {
        /// Stored into a free frame.
        Stored as "stored",
        /// Overwrote an existing copy of the same key (no frame consumed).
        Replaced as "replaced",
        /// Stored after evicting an ephemeral victim page.
        StoredEvict as "stored_evict",
        /// Rejected by Algorithm 1: `tmem_used >= mm_target`.
        RejectTarget as "reject_target",
        /// Admitted by the target check but no free frame existed.
        RejectCapacity as "reject_cap",
        /// Admitted by the target check but rejected by the data-fault layer
        /// (injected I/O failure or backend brownout window).
        RejectIo as "reject_io",
        /// Admitted by the target check, found local tmem full, and spilled
        /// into the far-memory tier instead. No local frame consumed.
        StoredFar as "stored_far",
    }
}

impl PutResult {
    /// Whether the page ended up in tmem (local or far tier).
    pub fn is_success(self) -> bool {
        matches!(
            self,
            PutResult::Stored | PutResult::Replaced | PutResult::StoredEvict | PutResult::StoredFar
        )
    }

    /// Whether a new frame was consumed.
    pub fn consumed_frame(self) -> bool {
        matches!(self, PutResult::Stored | PutResult::StoredEvict)
    }
}

labels! {
    /// Outcome of one `SetTargets` push attempt through the dom0 relay.
    pub enum PushOutcome {
        /// The hypercall went through (fresh or stale-rejected — see the
        /// separate `TargetsApplied` event for which).
        Landed as "landed",
        /// The hypercall failed; the push is parked for backoff retry.
        Parked as "parked",
        /// A parked push was replaced by a newer target vector.
        Superseded as "superseded",
        /// The retry budget was exhausted; the push is dropped.
        Abandoned as "abandoned",
    }
}

labels! {
    /// One injected fault, as decided by the fault layer.
    pub enum FaultKind {
        /// A VIRQ sample was dropped.
        SampleDrop as "sample_drop",
        /// A VIRQ sample was delayed one interval.
        SampleDelay as "sample_delay",
        /// A VIRQ sample was duplicated.
        SampleDuplicate as "sample_dup",
        /// A netlink stats message was lost.
        NetlinkDrop as "netlink_drop",
        /// A netlink stats message was reordered.
        NetlinkReorder as "netlink_reorder",
        /// A `SetTargets` hypercall failed.
        HypercallFail as "hypercall_fail",
        /// The MM process crashed.
        MmCrash as "mm_crash",
        /// A stored page's contents were bit-flipped.
        PageBitflip as "page_bitflip",
        /// A put landed torn (contents do not match the integrity summary).
        TornWrite as "torn_write",
        /// An ephemeral page was silently dropped after a successful put.
        EphemeralLoss as "ephemeral_loss",
        /// A persistent put failed with an injected backend I/O error.
        PutIoFail as "put_io_fail",
        /// A put was rejected inside a backend brownout window.
        BrownoutReject as "brownout_reject",
        /// One sampling interval spent inside a brownout window.
        BrownoutTick as "brownout_tick",
        /// A checksum mismatch was detected (first detection of that page).
        CorruptDetected as "corrupt_detected",
        /// The guest recovered from a detected corruption (clean miss or
        /// retry/requeue rebuild).
        CorruptRecovered as "corrupt_recovered",
    }
}

/// The JSON key of a payload field: its name, or the `as` rename.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event table. Each entry is `Variant as "ev" in Subsystem`, then its
/// fields, each written to JSONL under its name (or its `as` rename). It
/// expands to [`Payload`], [`Payload::subsystem`] and the JSONL writer and
/// parser of every kind.
macro_rules! events {
    ($(
        $(#[$meta:meta])*
        $variant:ident as $ev:literal in $sub:ident $({
            $($(#[$fmeta:meta])* $field:ident $(as $key:literal)?: $ty:ty,)*
        })?
    )*) => {
        /// The typed body of one trace event.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Payload {
            $($(#[$meta])* $variant $({ $($(#[$fmeta])* $field: $ty,)* })?,)*
        }

        impl Payload {
            /// The subsystem that emits this kind of event.
            pub fn subsystem(&self) -> Subsystem {
                match self {
                    $(Payload::$variant { .. } => Subsystem::$sub,)*
                }
            }

            /// Append `,"ev":"<kind>"` and every field as `,"key":value`.
            fn write(&self, out: &mut String) {
                match self {
                    $(Payload::$variant { $($($field),*)? } => {
                        out.push_str(concat!(",\"ev\":\"", $ev, "\""));
                        $($($field.write_field(
                            concat!(",\"", wire_key!($field $($key)?), "\":"),
                            out,
                        );)*)?
                    })*
                }
            }

            /// Read the payload of kind `ev` off a parsed object.
            fn read(ev: &str, obj: &[(String, Json)]) -> Result<Self, String> {
                match ev {
                    $($ev => Ok(Payload::$variant {
                        $($($field: field(obj, wire_key!($field $($key)?))?,)*)?
                    }),)*
                    other => Err(format!("unknown event kind '{other}'")),
                }
            }
        }
    };
}

events! {
    /// One tmem put with its Algorithm 1 admission operands: `used` and
    /// `target` are the values of `tmem_used` and `mm_target` the admission
    /// check compared (after any stale-target fallback).
    Put as "put" in Tmem {
        /// Pool the put targeted.
        pool: u32,
        /// Admission/storage outcome.
        result as "res": PutResult,
        /// `tmem_used` operand of the admission check.
        used: u64,
        /// Effective `mm_target` operand of the admission check.
        target: u64,
    }
    /// An ephemeral page was evicted to make room (the event's `vm` is the
    /// *victim* owner; the beneficiary emits a `Put` with
    /// [`PutResult::StoredEvict`]).
    Evict as "evict" in Tmem {
        /// Pool the victim page belonged to.
        pool: u32,
    }
    /// One tmem get.
    Get as "get" in Tmem {
        /// Pool queried.
        pool: u32,
        /// Whether the page was present.
        hit: bool,
        /// Whether the hit freed the frame (persistent-pool exclusive get).
        freed: bool,
    }
    /// One flush (single page).
    Flush as "flush" in Tmem {
        /// Pool flushed.
        pool: u32,
        /// Frames actually freed (0 when the page was absent).
        pages: u64,
    }
    /// A tmem pool was created. Makes the trace self-describing: replay
    /// learns each pool's kind here, so ephemeral (cleancache) traffic can
    /// be told apart from frontswap traffic without out-of-band context.
    PoolCreate as "pool_create" in Tmem {
        /// Pool created.
        pool: u32,
        /// True for ephemeral (cleancache) pools, false for persistent
        /// (frontswap) pools.
        ephemeral: bool,
    }
    /// A whole object or pool was destroyed.
    PoolDestroy as "pool_destroy" in Tmem {
        /// Pool destroyed.
        pool: u32,
        /// Frames freed.
        pages: u64,
    }
    /// The hypervisor reclaimed over-target persistent pages back to the
    /// guest (they fall through to disk).
    Reclaim as "reclaim" in Tmem {
        /// Pool reclaimed from.
        pool: u32,
        /// Frames reclaimed.
        pages: u64,
    }
    /// A `SetTargets` hypercall reached the hypervisor.
    TargetsApplied as "targets_applied" in Hypervisor {
        /// Push sequence number.
        seq: u64,
        /// Entries in the target vector.
        entries: u32,
        /// False when the idempotence guard rejected a stale sequence.
        applied: bool,
    }
    /// The hypervisor emitted a VIRQ statistics sample with this fate.
    VirqSample as "sample" in Virq {
        /// Sample sequence number.
        seq: u64,
        /// Fate assigned by the fault layer.
        fate: SampleFate,
    }
    /// One sampling interval closed (after MM drive, reclaim and the
    /// accounting invariant check). The `k`-th `IntervalClose` aligns with
    /// the `k`-th point of every recorded time-series.
    IntervalClose as "interval" in Virq {
        /// Sample sequence number of the interval.
        seq: u64,
        /// Whether the hypervisor spent this interval in stale-target
        /// fallback (only ever true when an MM is attached).
        stale: bool,
        /// Result of the tmem accounting invariant check.
        ok: bool,
    }
    /// A netlink stats message crossed (or failed to cross) the dom0 → MM
    /// edge.
    NetlinkStats as "stats_msg" in Relay {
        /// Sample sequence number carried by the message.
        seq: u64,
        /// Fate assigned by the fault layer.
        fate: NetlinkFate,
    }
    /// The relay enqueued a stats message for the MM.
    RelayEnqueue as "enqueue" in Relay {
        /// Sample sequence number.
        seq: u64,
        /// Queue depth after the enqueue.
        depth: u64,
    }
    /// The relay shed its oldest queued message at capacity.
    RelayShed as "shed" in Relay {
        /// Sample sequence number of the shed (oldest) message.
        seq: u64,
    }
    /// One `SetTargets` push attempt through the relay.
    RelayPush as "push" in Relay {
        /// Push sequence number.
        seq: u64,
        /// Attempt number (1 = first try; ≥ 2 = backoff retry).
        attempt: u32,
        /// What happened to the attempt.
        outcome: PushOutcome,
    }
    /// The MM processed one fresh snapshot and decided.
    MmDecision as "decision" in Mm {
        /// Sequence of the snapshot consumed.
        seq_in: u64,
        /// Push sequence assigned (0 when not sent).
        push_seq: u64,
        /// Whether a target vector was transmitted (false = suppressed or
        /// warming up).
        sent: bool,
        /// Whether the MM was inside its post-restart rebuild window.
        warming: bool,
        /// The computed per-VM target vector `(vm, mm_target)`.
        targets: Vec<(u32, u64)>,
        /// When the policy rescaled (Eq. 2): `(sum_targets, local_tmem)`
        /// inputs of the proportional rescale.
        rescale: Option<(u64, u64)>,
    }
    /// The MM discarded a duplicate/stale snapshot idempotently.
    MmDiscard as "discard" in Mm {
        /// Sequence of the discarded snapshot.
        seq_in: u64,
    }
    /// The MM process crashed.
    MmCrash as "crash" in Mm {
        /// MM cycle count at the crash.
        cycle: u64,
    }
    /// The watchdog restarted a crashed MM.
    MmRestart as "restart" in Mm
    /// The fault layer injected a fault.
    Fault as "fault" in Fault {
        /// Which fault fired.
        kind: FaultKind,
    }
    /// The data-fault layer silently removed stored pages (ephemeral loss,
    /// a corrupt ephemeral page dropped on get, a corrupt persistent
    /// victim dropped during reclaim, or a scrubber quarantine). The
    /// event's `vm` is the owner whose occupancy shrank.
    DataPurge as "data_purge" in Tmem {
        /// Pool the pages were removed from.
        pool: u32,
        /// Frames freed.
        pages: u64,
    }
    /// One pool-scrubber pass completed (node-wide).
    Scrub as "scrub" in Tmem {
        /// Pages checksum-verified.
        checked: u64,
        /// Corrupt pages found by this pass.
        corrupt: u64,
        /// Corrupt objects quarantined by this pass.
        quarantined: u64,
    }
    /// A get missed local tmem and was serviced by the far-memory tier
    /// (the far copy is consumed — exclusive read). Emitted in addition
    /// to the `Get` event, which reports `freed: false` because no
    /// *local* frame was released.
    FarGet as "far_get" in Tmem {
        /// Pool the far copy belonged to.
        pool: u32,
    }
    /// Far-tier entries were purged by a flush/destroy of their pool.
    FarFlush as "far_flush" in Tmem {
        /// Pool flushed.
        pool: u32,
        /// Far entries removed.
        pages: u64,
    }
    /// A VM began migrating off this host. Emitted on the *source* host's
    /// trace; the pages named here leave this host's accounting.
    MigrateOut as "migrate_out" in Fleet {
        /// Clean local tmem pages exported.
        pages: u64,
        /// Far-tier entries exported.
        far: u64,
        /// Corrupt pages found at export and dropped (never transferred).
        purged: u64,
        /// Resident RAM pages transferred alongside.
        ram: u64,
    }
    /// A migrating VM landed on this host. Emitted on the *destination*
    /// host's trace. `pages + far + spilled` equals the source's
    /// `pages + far` — conservation, checked by replay.
    MigrateIn as "migrate_in" in Fleet {
        /// Pages stored into the destination's local tmem.
        pages: u64,
        /// Entries stored into the destination's far tier.
        far: u64,
        /// Pages that found no tmem room and spilled to the destination's
        /// swap disk.
        spilled: u64,
    }
    /// A migrated VM resumed on its destination host.
    MigrateDone as "migrate_done" in Fleet {
        /// Pause-to-resume downtime in sim-nanoseconds.
        downtime: u64,
    }
}

/// One recorded event: `(SimTime, vm, payload)`. The payload's kind fixes
/// the emitting subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// VM the event is attributed to (`None` for node-wide control-plane
    /// events).
    pub vm: Option<u32>,
    /// Typed body.
    pub payload: Payload,
}

impl TraceEvent {
    /// Emitting subsystem, read off the payload's kind.
    pub fn subsystem(&self) -> Subsystem {
        self.payload.subsystem()
    }
}

/// Aggregated metrics registry, read off the recorder's [`Fold`] when the
/// recording is drained. All fields are exact counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceMetrics {
    /// Total puts attempted.
    pub puts: u64,
    /// Puts rejected (target or capacity).
    pub puts_rejected: u64,
    /// Total gets.
    pub gets: u64,
    /// Gets that hit.
    pub get_hits: u64,
    /// Frames freed by flushes and pool destroys.
    pub flush_pages: u64,
    /// Ephemeral evictions.
    pub evictions: u64,
    /// Frames reclaimed over target.
    pub reclaimed_pages: u64,
    /// VIRQ samples emitted.
    pub virq_samples: u64,
    /// Stats messages enqueued by the relay.
    pub relay_enqueued: u64,
    /// Stats messages shed at queue capacity.
    pub relay_shed: u64,
    /// `SetTargets` push attempts.
    pub relay_pushes: u64,
    /// Push attempts that were backoff retries (attempt ≥ 2).
    pub relay_retries: u64,
    /// MM decisions (fresh snapshots processed).
    pub mm_decisions: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Put latency in sim-nanoseconds, from the cost model: a copying
    /// hypercall for admitted puts, a no-copy hypercall for rejects.
    pub put_latency: Histogram,
    /// Relay queue depth observed at each enqueue.
    pub relay_depth: Histogram,
}

impl TraceMetrics {
    /// Fraction of puts rejected by admission (0 when no puts).
    pub fn reject_ratio(&self) -> f64 {
        if self.puts == 0 {
            0.0
        } else {
            self.puts_rejected as f64 / self.puts as f64
        }
    }
}

/// Number of [`FaultKind`] variants (the length of [`Fold::faults`]).
const FAULT_KINDS: usize = FaultKind::ALL.len();

/// What one VM sent to one kind of pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolTraffic {
    /// Puts by outcome, indexed by `PutResult as usize`.
    pub puts: [u64; 7],
    /// Gets issued.
    pub gets: u64,
    /// Gets that hit.
    pub hits: u64,
    /// Single-page flushes issued.
    pub flushes: u64,
}

impl PoolTraffic {
    /// Puts that stored the page (locally or in the far tier).
    pub fn puts_ok(&self) -> u64 {
        PutResult::ALL
            .iter()
            .filter(|r| r.is_success())
            .map(|&r| self.puts[r as usize])
            .sum()
    }

    /// Puts that were rejected.
    pub fn puts_failed(&self) -> u64 {
        self.puts.iter().sum::<u64>() - self.puts_ok()
    }
}

/// One VM's state folded from the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmFold {
    /// Local tmem frames held.
    pub local: i64,
    /// Far-tier entries held.
    pub far: i64,
    /// Traffic on persistent (frontswap) pools.
    pub frontswap: PoolTraffic,
    /// Traffic on ephemeral (cleancache) pools.
    pub ephemeral: PoolTraffic,
    /// Pages of this VM evicted to make room for another put.
    pub evicted: u64,
    /// Frames freed by this VM's flushes and pool destroys.
    pub flushed_pages: u64,
    /// Frames reclaimed over target.
    pub reclaimed: u64,
    /// Migrated-in pages that found no tmem room and spilled to swap.
    pub spilled: u64,
}

impl VmFold {
    fn pool(&mut self, ephemeral: bool) -> &mut PoolTraffic {
        if ephemeral {
            &mut self.ephemeral
        } else {
            &mut self.frontswap
        }
    }

    /// Traffic on both pool kinds together.
    pub fn traffic(&self) -> PoolTraffic {
        let (f, e) = (&self.frontswap, &self.ephemeral);
        PoolTraffic {
            puts: std::array::from_fn(|i| f.puts[i] + e.puts[i]),
            gets: f.gets + e.gets,
            hits: f.hits + e.hits,
            flushes: f.flushes + e.flushes,
        }
    }
}

/// Pages and VMs that crossed hosts, as one host's trace saw them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Migrations {
    /// `MigrateOut` events.
    pub out: u64,
    /// `MigrateIn` events.
    pub into: u64,
    /// Σ `pages + far` exported.
    pub exported: u64,
    /// Σ corrupt pages dropped at export.
    pub purged: u64,
    /// Σ `pages + far` landed in local tmem or the far tier.
    pub landed: u64,
    /// Σ pages that spilled to swap on import.
    pub spilled: u64,
}

/// The one fold over a trace event stream. [`Fold::apply`] reads only the
/// event itself, so folding a recording online (the [`Recorder`] does, for
/// every event, before the ring can drop it) and folding the events parsed
/// back from its JSONL give the same state. Memory is O(VMs + pools +
/// intervals), independent of the number of events.
///
/// Rules: a frame-consuming put is +1 local occupancy for the putting VM;
/// `Evict` is −1 for the victim; a get that frees its frame is −1;
/// `Flush`/`PoolDestroy`/`Reclaim`/`DataPurge` subtract their page counts.
/// A `stored_far` put is +1 far occupancy, `FarGet` −1, `FarFlush` subtracts
/// its count. `MigrateOut` removes the exported and purged pages,
/// `MigrateIn` credits what landed. MM sequence gaps follow the MM's own
/// rule: a fresh snapshot more than one above the previous is a gap, and a
/// crash resets the high-water mark.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fold {
    /// Events folded.
    pub events: u64,
    /// Per-VM state, by VM id.
    pub vms: BTreeMap<u32, VmFold>,
    /// Pools announced ephemeral by `PoolCreate`.
    ephemeral_pools: BTreeSet<u32>,
    /// Injected faults, indexed by `FaultKind as usize`.
    pub faults: [u64; FAULT_KINDS],
    /// VIRQ samples, indexed by `SampleFate as usize`.
    pub samples: [u64; 4],
    /// Netlink stats messages, indexed by `NetlinkFate as usize`.
    pub netlink: [u64; 3],
    /// Relay push attempts, indexed by `PushOutcome as usize`.
    pub pushes: [u64; 4],
    /// Push attempts numbered ≥ 2.
    pub push_retries: u64,
    /// Of those, the real retries: a `Superseded` marker re-reports the old
    /// push's attempt count without making a new attempt.
    pub hypercall_retries: u64,
    /// Relay queue depth at each enqueue.
    pub relay_depth: Histogram,
    /// Stats messages shed at relay capacity.
    pub relay_shed: u64,
    /// MM decisions.
    pub mm_decisions: u64,
    /// MM decisions that transmitted a target vector.
    pub mm_sent: u64,
    /// Snapshots the MM discarded.
    pub mm_discards: u64,
    /// MM crashes.
    pub mm_crashes: u64,
    /// MM restarts.
    pub mm_restarts: u64,
    /// Snapshot-sequence gaps seen by the MM.
    pub seq_gaps: u64,
    last_seq: Option<u64>,
    /// Intervals spent in stale-target fallback.
    pub stale_intervals: u64,
    /// Intervals whose accounting invariant check failed.
    pub invariant_violations: u64,
    /// Per-VM local occupancy at each `IntervalClose`, as `(vm, frames)`
    /// in VM-id order.
    pub intervals: Vec<Vec<(u32, i64)>>,
    /// Scrubber passes.
    pub scrub_passes: u64,
    /// Pages the scrubber checked.
    pub scrub_checked: u64,
    /// Objects the scrubber quarantined.
    pub quarantined: u64,
    /// Cross-host migration flows.
    pub migrations: Migrations,
}

impl Fold {
    /// Fold one event.
    pub fn apply(&mut self, ev: &TraceEvent) {
        self.events += 1;
        // Node-wide events update a throwaway row.
        let mut node = VmFold::default();
        let vm = match ev.vm {
            Some(id) => self.vms.entry(id).or_default(),
            None => &mut node,
        };
        let is_ephemeral = |pool: &u32| self.ephemeral_pools.contains(pool);
        match &ev.payload {
            Payload::PoolCreate { pool, ephemeral } => {
                if *ephemeral {
                    self.ephemeral_pools.insert(*pool);
                }
            }
            Payload::Put { pool, result, .. } => {
                vm.pool(is_ephemeral(pool)).puts[*result as usize] += 1;
                if result.consumed_frame() {
                    vm.local += 1;
                }
                if *result == PutResult::StoredFar {
                    vm.far += 1;
                }
            }
            Payload::Evict { .. } => {
                vm.evicted += 1;
                vm.local -= 1;
            }
            Payload::Get { pool, hit, freed } => {
                let t = vm.pool(is_ephemeral(pool));
                t.gets += 1;
                t.hits += u64::from(*hit);
                vm.local -= i64::from(*freed);
            }
            Payload::Flush { pool, pages } => {
                vm.pool(is_ephemeral(pool)).flushes += 1;
                vm.flushed_pages += pages;
                vm.local -= *pages as i64;
            }
            Payload::PoolDestroy { pages, .. } => {
                vm.flushed_pages += pages;
                vm.local -= *pages as i64;
            }
            Payload::Reclaim { pages, .. } => {
                vm.reclaimed += pages;
                vm.local -= *pages as i64;
            }
            // A silent drop (ephemeral loss, corrupt page, quarantine): the
            // guest issued no hypercall, so only occupancy moves.
            Payload::DataPurge { pages, .. } => vm.local -= *pages as i64,
            // The paired `Get` carried `freed: false`: only far occupancy moves.
            Payload::FarGet { .. } => vm.far -= 1,
            Payload::FarFlush { pages, .. } => vm.far -= *pages as i64,
            Payload::TargetsApplied { .. } | Payload::MigrateDone { .. } => {}
            Payload::VirqSample { fate, .. } => self.samples[*fate as usize] += 1,
            Payload::IntervalClose { stale, ok, .. } => {
                self.stale_intervals += u64::from(*stale);
                self.invariant_violations += u64::from(!*ok);
                let snapshot = self.vms.iter().map(|(&id, v)| (id, v.local)).collect();
                self.intervals.push(snapshot);
            }
            Payload::NetlinkStats { fate, .. } => self.netlink[*fate as usize] += 1,
            Payload::RelayEnqueue { depth, .. } => self.relay_depth.record(*depth),
            Payload::RelayShed { .. } => self.relay_shed += 1,
            Payload::RelayPush {
                attempt, outcome, ..
            } => {
                self.pushes[*outcome as usize] += 1;
                if *attempt >= 2 {
                    self.push_retries += 1;
                    self.hypercall_retries += u64::from(*outcome != PushOutcome::Superseded);
                }
            }
            Payload::MmDecision { seq_in, sent, .. } => {
                self.mm_decisions += 1;
                self.mm_sent += u64::from(*sent);
                if self.last_seq.is_some_and(|last| *seq_in > last + 1) {
                    self.seq_gaps += 1;
                }
                self.last_seq = Some(*seq_in);
            }
            Payload::MmDiscard { .. } => self.mm_discards += 1,
            Payload::MmCrash { .. } => {
                self.mm_crashes += 1;
                self.last_seq = None;
            }
            Payload::MmRestart => self.mm_restarts += 1,
            Payload::Fault { kind } => self.faults[*kind as usize] += 1,
            Payload::Scrub {
                checked,
                quarantined,
                ..
            } => {
                self.scrub_passes += 1;
                self.scrub_checked += checked;
                self.quarantined += quarantined;
            }
            Payload::MigrateOut {
                pages, far, purged, ..
            } => {
                vm.local -= (pages + purged) as i64;
                vm.far -= *far as i64;
                let m = &mut self.migrations;
                m.out += 1;
                m.exported += pages + far;
                m.purged += purged;
            }
            Payload::MigrateIn {
                pages,
                far,
                spilled,
            } => {
                vm.local += *pages as i64;
                vm.far += *far as i64;
                vm.spilled += spilled;
                let m = &mut self.migrations;
                m.into += 1;
                m.landed += pages + far;
                m.spilled += spilled;
            }
        }
    }

    /// Fold a whole event list.
    pub fn of(events: &[TraceEvent]) -> Self {
        let mut fold = Fold::default();
        for ev in events {
            fold.apply(ev);
        }
        fold
    }

    /// Injected faults of one kind.
    pub fn fault(&self, kind: FaultKind) -> u64 {
        self.faults[kind as usize]
    }

    /// The fault ledger these events imply.
    pub fn ledger(&self) -> FaultLedger {
        let sample = |f: SampleFate| self.samples[f as usize];
        let m = &self.migrations;
        FaultLedger {
            samples_delivered: sample(SampleFate::Deliver),
            samples_dropped: sample(SampleFate::Drop),
            samples_delayed: sample(SampleFate::Delay),
            samples_duplicated: sample(SampleFate::Duplicate),
            netlink_dropped: self.netlink[NetlinkFate::Drop as usize],
            netlink_reordered: self.netlink[NetlinkFate::Reorder as usize],
            hypercalls_failed: self.fault(FaultKind::HypercallFail),
            hypercall_retries: self.hypercall_retries,
            hypercalls_abandoned: self.pushes[PushOutcome::Abandoned as usize],
            hypercalls_superseded: self.pushes[PushOutcome::Superseded as usize],
            mm_crashes: self.mm_crashes,
            mm_restarts: self.mm_restarts,
            seq_gaps: self.seq_gaps,
            snapshots_discarded: self.mm_discards,
            stale_intervals: self.stale_intervals,
            invariant_checks: self.intervals.len() as u64,
            invariant_violations: self.invariant_violations,
            bitflips_injected: self.fault(FaultKind::PageBitflip),
            torn_writes_injected: self.fault(FaultKind::TornWrite),
            ephemeral_losses_injected: self.fault(FaultKind::EphemeralLoss),
            put_io_failures_injected: self.fault(FaultKind::PutIoFail),
            brownout_rejections: self.fault(FaultKind::BrownoutReject),
            brownout_ticks: self.fault(FaultKind::BrownoutTick),
            corruptions_detected: self.fault(FaultKind::CorruptDetected),
            corruptions_recovered: self.fault(FaultKind::CorruptRecovered),
            objects_quarantined: self.quarantined,
            scrub_passes: self.scrub_passes,
            scrub_pages_checked: self.scrub_checked,
            migrations_out: m.out,
            migrations_in: m.into,
            migrate_pages: m.exported,
            migrate_purged: m.purged,
            migrate_spilled: m.spilled,
        }
    }

    /// The metrics registry. `cost` supplies the put latencies; without it
    /// the latency histogram stays empty.
    pub fn metrics(&self, cost: Option<&CostModel>) -> TraceMetrics {
        let mut all = PoolTraffic::default();
        let (mut flush_pages, mut evictions, mut reclaimed_pages) = (0, 0, 0);
        for v in self.vms.values() {
            let t = v.traffic();
            for (a, b) in all.puts.iter_mut().zip(t.puts) {
                *a += b;
            }
            all.gets += t.gets;
            all.hits += t.hits;
            flush_pages += v.flushed_pages;
            evictions += v.evicted;
            reclaimed_pages += v.reclaimed;
        }
        let (ok, rejected) = (all.puts_ok(), all.puts_failed());
        let mut put_latency = Histogram::new();
        if let Some(cost) = cost {
            put_latency.record_n(cost.tmem_hypercall.as_nanos(), ok);
            put_latency.record_n(cost.tmem_hypercall_nocopy.as_nanos(), rejected);
        }
        TraceMetrics {
            puts: ok + rejected,
            puts_rejected: rejected,
            gets: all.gets,
            get_hits: all.hits,
            flush_pages,
            evictions,
            reclaimed_pages,
            virq_samples: self.samples.iter().sum(),
            relay_enqueued: self.relay_depth.count(),
            relay_shed: self.relay_shed,
            relay_pushes: self.pushes.iter().sum(),
            relay_retries: self.push_retries,
            mm_decisions: self.mm_decisions,
            faults_injected: self.faults.iter().sum(),
            put_latency,
            relay_depth: self.relay_depth.clone(),
        }
    }
}

/// The per-run event sink: a clock cell, a bounded ring of events, and the
/// [`Fold`] every event passes through first. Owned behind
/// `Rc<RefCell<…>>` by every [`Tracer`] clone in one simulation cell; never
/// crosses threads (only the plain [`TraceData`] extracted at the end does).
#[derive(Debug)]
pub struct Recorder {
    now: SimTime,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    dropped_oldest: u64,
    fold: Fold,
    cost: Option<CostModel>,
}

impl Recorder {
    /// A recorder holding at most `capacity` events. `cost` enables the
    /// put-latency histogram (latencies are read off the cost model).
    pub fn new(capacity: usize, cost: Option<CostModel>) -> Self {
        Recorder {
            now: SimTime::ZERO,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped_oldest: 0,
            fold: Fold::default(),
            cost,
        }
    }

    fn record(&mut self, vm: Option<u32>, payload: Payload) {
        let ev = TraceEvent {
            at: self.now,
            vm,
            payload,
        };
        self.fold.apply(&ev);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped_oldest += 1;
        }
        self.ring.push_back(ev);
    }
}

/// The cheap, cloneable handle every component holds. Disabled tracers
/// carry `None`: [`Tracer::emit`] is then a single branch and the event
/// closure is never evaluated.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<Recorder>>>);

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer backed by a fresh recorder.
    pub fn new(recorder: Recorder) -> Self {
        Tracer(Some(Rc::new(RefCell::new(recorder))))
    }

    /// Build from an optional [`TraceConfig`] (the run-config plumbing).
    pub fn from_config(cfg: Option<&TraceConfig>, cost: &CostModel) -> Self {
        match cfg {
            Some(tc) => Tracer::new(Recorder::new(tc.capacity, Some(cost.clone()))),
            None => Tracer::disabled(),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advance the recorder's clock; every subsequent event is stamped with
    /// `t`. The simulation driver calls this once per dispatched event.
    #[inline]
    pub fn set_now(&self, t: SimTime) {
        if let Some(rec) = &self.0 {
            rec.borrow_mut().now = t;
        }
    }

    /// Emit one event. The closure builds `(vm, payload)` and is only
    /// evaluated when tracing is enabled — call sites pay one branch when
    /// disabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> (Option<u32>, Payload)) {
        if let Some(rec) = &self.0 {
            let (vm, payload) = f();
            rec.borrow_mut().record(vm, payload);
        }
    }

    /// Drain the recorder into a plain, `Send` [`TraceData`]. Returns
    /// `None` for disabled tracers. Other live handles keep pointing at the
    /// (now empty) recorder.
    pub fn finish(&self) -> Option<TraceData> {
        let rec = self.0.as_ref()?;
        let mut rec = rec.borrow_mut();
        let fold = std::mem::take(&mut rec.fold);
        Some(TraceData {
            events: std::mem::take(&mut rec.ring).into_iter().collect(),
            dropped_oldest: std::mem::take(&mut rec.dropped_oldest),
            metrics: fold.metrics(rec.cost.as_ref()),
            fold,
        })
    }
}

/// Identity stamped into a JSONL trace header.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceHeader {
    /// Scenario name.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Subsystem filter applied at write time (`None` = full trace). A
    /// filtered trace is not replayable and is flagged as such here.
    pub filter: Option<String>,
}

/// The extracted, thread-safe result of one recording: the ring's event
/// window, the fold of every event, and the metrics read off that fold.
/// This is what crosses from a worker cell back to the experiment engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceData {
    /// The last events recorded (at most the ring capacity), in emission
    /// order. This is the window the JSONL form writes.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring because capacity was exceeded. They
    /// are still in `fold`.
    pub dropped_oldest: u64,
    /// Aggregated counters and histograms.
    pub metrics: TraceMetrics,
    /// Every recorded event, folded (dropped ones included).
    pub fold: Fold,
}

/// A trace parsed back from JSONL: header fields plus events.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Schema version from the header.
    pub version: u32,
    /// Scenario name from the header.
    pub scenario: String,
    /// Policy name from the header.
    pub policy: String,
    /// Root seed from the header.
    pub seed: u64,
    /// Ring-buffer drops declared by the header.
    pub dropped_oldest: u64,
    /// Write-time subsystem filter, if any.
    pub filter: Option<String>,
    /// Parsed events in file order.
    pub events: Vec<TraceEvent>,
}

impl TraceData {
    /// Serialize as JSONL: one header object, then one compact object per
    /// event, with a fixed key order so equal traces are byte-equal.
    /// `filter` restricts the written events to the listed subsystems (the
    /// recorder always records everything; filtering is a write-time view).
    pub fn to_jsonl(&self, header: &TraceHeader, filter: Option<&[Subsystem]>) -> String {
        let mut out = String::from("{\"schema\":\"smartmem-trace\",\"version\":");
        TRACE_SCHEMA_VERSION.write(&mut out);
        header.scenario.write_field(",\"scenario\":", &mut out);
        header.policy.write_field(",\"policy\":", &mut out);
        header.seed.write_field(",\"seed\":", &mut out);
        self.dropped_oldest.write_field(",\"dropped\":", &mut out);
        let filter_label = filter.map(|subs| {
            subs.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(",")
        });
        filter_label.write_field(",\"filter\":", &mut out);
        out.push_str("}\n");
        for ev in &self.events {
            if let Some(subs) = filter {
                if !subs.contains(&ev.subsystem()) {
                    continue;
                }
            }
            write_event(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace produced by [`TraceData::to_jsonl`]. Strict:
    /// unknown schema names, versions, subsystems or event kinds are
    /// errors, so schema drift is caught at the boundary.
    pub fn parse_jsonl(s: &str) -> Result<ParsedTrace, String> {
        let mut lines = s.lines().enumerate();
        let (_, first) = lines
            .next()
            .ok_or_else(|| "empty trace: missing header line".to_string())?;
        let header = parse_json_object(first).map_err(|e| format!("header: {e}"))?;
        if field::<String>(&header, "schema")? != "smartmem-trace" {
            return Err("header: not a smartmem-trace file".into());
        }
        let version: u32 = field(&header, "version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported trace schema version {version} (expected {TRACE_SCHEMA_VERSION})"
            ));
        }
        let mut events = Vec::new();
        for (i, line) in lines {
            if line.is_empty() {
                continue;
            }
            let obj = parse_json_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(event_from_fields(&obj).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(ParsedTrace {
            version,
            scenario: field(&header, "scenario")?,
            policy: field(&header, "policy")?,
            seed: field(&header, "seed")?,
            dropped_oldest: field(&header, "dropped")?,
            filter: field(&header, "filter")?,
            events,
        })
    }
}

// ---------------------------------------------------------------------------
// JSONL writing
// ---------------------------------------------------------------------------

/// One field type of the JSONL form: how a value is written and read back.
pub(crate) trait Wire: Sized {
    /// Append the value.
    fn write(&self, out: &mut String);

    /// Read the value back; `None` when `v` has the wrong shape.
    fn read(v: &Json) -> Option<Self>;

    /// Append `key` (a `,"name":` prefix) and the value. Optional fields
    /// write nothing when absent.
    fn write_field(&self, key: &str, out: &mut String) {
        out.push_str(key);
        self.write(out);
    }

    /// Read a field that may be absent (`None`).
    fn read_field(v: Option<&Json>) -> Option<Self> {
        Self::read(v?)
    }
}

impl Wire for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json) -> Option<Self> {
        match v {
            Json::U(n) => Some(*n),
            _ => None,
        }
    }
}

impl Wire for u32 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json) -> Option<Self> {
        u32::try_from(u64::read(v)?).ok()
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: &Json) -> Option<Self> {
        match v {
            Json::B(b) => Some(*b),
            _ => None,
        }
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn read(v: &Json) -> Option<Self> {
        match v {
            Json::S(s) => Some(s.clone()),
            _ => None,
        }
    }
}

/// A pair is a two-element array.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }

    fn read(v: &Json) -> Option<Self> {
        match v {
            Json::A(items) => match items.as_slice() {
                [a, b] => Some((A::read(a)?, B::read(b)?)),
                _ => None,
            },
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }

    fn read(v: &Json) -> Option<Self> {
        match v {
            Json::A(items) => items.iter().map(T::read).collect(),
            _ => None,
        }
    }
}

/// An optional field is left out when `None`.
impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut String) {
        if let Some(v) = self {
            v.write(out);
        }
    }

    fn read(v: &Json) -> Option<Self> {
        T::read(v).map(Some)
    }

    fn write_field(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.write_field(key, out);
        }
    }

    fn read_field(v: Option<&Json>) -> Option<Self> {
        match v {
            Some(v) => Self::read(v),
            None => Some(None),
        }
    }
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"t\":");
    ev.at.as_nanos().write(out);
    ev.vm.write_field(",\"vm\":", out);
    ev.subsystem().write_field(",\"sub\":", out);
    ev.payload.write(out);
    out.push('}');
}

// ---------------------------------------------------------------------------
// JSONL parsing (hand-rolled: the build has no JSON crate)
// ---------------------------------------------------------------------------

/// Minimal JSON value for the flat objects the trace format uses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    U(u64),
    B(bool),
    S(String),
    A(Vec<Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(x) if x == b => Ok(()),
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or("unterminated string")? {
                b'"' => return Ok(out),
                b'\\' => match self.bump().ok_or("unterminated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")? as char;
                            code = code * 16 + d.to_digit(16).ok_or("bad \\u escape")?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                },
                b => {
                    // Re-assemble multi-byte UTF-8 sequences byte-wise.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let end = start + len;
                        let slice = self.bytes.get(start..end).ok_or("truncated UTF-8")?;
                        let s = std::str::from_utf8(slice).map_err(|_| "invalid UTF-8")?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'"' => Ok(Json::S(self.string()?)),
            b't' => {
                self.literal("true")?;
                Ok(Json::B(true))
            }
            b'f' => {
                self.literal("false")?;
                Ok(Json::B(false))
            }
            b'[' => {
                self.bump();
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.bump();
                    return Ok(Json::A(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::A(items)),
                        other => {
                            return Err(format!(
                                "expected ',' or ']' in array, found {:?}",
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            b'0'..=b'9' => {
                let mut n = 0u64;
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((d - b'0') as u64))
                        .ok_or("integer overflow")?;
                    self.pos += 1;
                }
                Ok(Json::U(n))
            }
            other => Err(format!("unexpected character '{}'", other as char)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        for &b in lit.as_bytes() {
            if self.bump() != Some(b) {
                return Err(format!("expected literal '{lit}'"));
            }
        }
        Ok(())
    }
}

fn parse_json_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser::new(line);
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.expect(b':')?;
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        match p.bump() {
            Some(b',') => continue,
            Some(b'}') => return Ok(fields),
            other => {
                return Err(format!(
                    "expected ',' or '}}' in object, found {:?}",
                    other.map(|c| c as char)
                ))
            }
        }
    }
}

/// Read field `key` of a parsed object.
fn field<T: Wire>(obj: &[(String, Json)], key: &str) -> Result<T, String> {
    let v = obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    T::read_field(v).ok_or_else(|| match v {
        Some(v) => format!("field '{key}' is malformed: {v:?}"),
        None => format!("missing field '{key}'"),
    })
}

fn event_from_fields(obj: &[(String, Json)]) -> Result<TraceEvent, String> {
    let ev: String = field(obj, "ev")?;
    let payload = Payload::read(&ev, obj)?;
    let sub: String = field(obj, "sub")?;
    let want = payload.subsystem().as_str();
    if sub != want {
        return Err(format!(
            "event '{ev}' belongs to subsystem '{want}', not '{sub}'"
        ));
    }
    Ok(TraceEvent {
        at: SimTime(field(obj, "t")?),
        vm: field(obj, "vm")?,
        payload,
    })
}

/// Parse a `--filter subsys=a,b` value (the part after `subsys=`) into a
/// subsystem list. Rejects unknown names with the valid set in the message.
pub fn parse_subsystem_filter(list: &str) -> Result<Vec<Subsystem>, String> {
    let mut subs = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let sub = Subsystem::from_label(name).ok_or_else(|| {
            format!(
                "unknown subsystem '{name}' (valid: {})",
                Subsystem::ALL
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        if !subs.contains(&sub) {
            subs.push(sub);
        }
    }
    if subs.is_empty() {
        return Err("empty subsystem filter".into());
    }
    Ok(subs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<(Option<u32>, Payload)> {
        vec![
            (
                Some(1),
                Payload::Put {
                    pool: 0,
                    result: PutResult::Stored,
                    used: 10,
                    target: 100,
                },
            ),
            (
                Some(1),
                Payload::Put {
                    pool: 0,
                    result: PutResult::RejectTarget,
                    used: 100,
                    target: 100,
                },
            ),
            (
                Some(2),
                Payload::Get {
                    pool: 1,
                    hit: true,
                    freed: true,
                },
            ),
            (
                None,
                Payload::VirqSample {
                    seq: 1,
                    fate: SampleFate::Drop,
                },
            ),
            (None, Payload::RelayEnqueue { seq: 1, depth: 1 }),
            (
                None,
                Payload::RelayPush {
                    seq: 1,
                    attempt: 2,
                    outcome: PushOutcome::Landed,
                },
            ),
            (
                None,
                Payload::MmDecision {
                    seq_in: 1,
                    push_seq: 1,
                    sent: true,
                    warming: false,
                    targets: vec![(1, 100), (2, 200)],
                    rescale: Some((400, 300)),
                },
            ),
            (
                None,
                Payload::Fault {
                    kind: FaultKind::SampleDrop,
                },
            ),
            (None, Payload::MmRestart),
            (
                Some(1),
                Payload::Put {
                    pool: 0,
                    result: PutResult::RejectIo,
                    used: 10,
                    target: 100,
                },
            ),
            (Some(2), Payload::DataPurge { pool: 1, pages: 3 }),
            (
                None,
                Payload::Scrub {
                    checked: 64,
                    corrupt: 2,
                    quarantined: 1,
                },
            ),
            (
                Some(1),
                Payload::Fault {
                    kind: FaultKind::CorruptDetected,
                },
            ),
        ]
    }

    fn record_all() -> TraceData {
        let tracer = Tracer::new(Recorder::new(1024, Some(CostModel::hdd())));
        for (i, (vm, payload)) in sample_events().into_iter().enumerate() {
            tracer.set_now(SimTime(i as u64 * 1_000));
            tracer.emit(|| (vm, payload));
        }
        tracer.finish().expect("enabled tracer yields data")
    }

    #[test]
    fn disabled_tracer_never_evaluates_the_closure() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.set_now(SimTime(5));
        tracer.emit(|| unreachable!("closure must not run when disabled"));
        assert_eq!(tracer.finish(), None);
    }

    #[test]
    fn jsonl_round_trips_every_payload_kind() {
        let data = record_all();
        let header = TraceHeader {
            scenario: "scenario1".into(),
            policy: "smart-alloc".into(),
            seed: 42,
            filter: None,
        };
        let jsonl = data.to_jsonl(&header, None);
        let parsed = TraceData::parse_jsonl(&jsonl).expect("own output parses");
        assert_eq!(parsed.version, TRACE_SCHEMA_VERSION);
        assert_eq!(parsed.scenario, "scenario1");
        assert_eq!(parsed.policy, "smart-alloc");
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.dropped_oldest, 0);
        assert_eq!(parsed.events, data.events, "lossless round trip");
    }

    #[test]
    fn write_filter_restricts_subsystems() {
        let data = record_all();
        let header = TraceHeader::default();
        let jsonl = data.to_jsonl(&header, Some(&[Subsystem::Tmem]));
        let parsed = TraceData::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.filter.as_deref(), Some("tmem"));
        assert_eq!(parsed.events.len(), 6);
        assert!(parsed
            .events
            .iter()
            .all(|e| e.subsystem() == Subsystem::Tmem));
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let tracer = Tracer::new(Recorder::new(2, None));
        for seq in 0..5 {
            tracer.emit(|| (None, Payload::RelayShed { seq }));
        }
        let data = tracer.finish().unwrap();
        assert_eq!(data.dropped_oldest, 3);
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.fold.events, 5, "the fold sees dropped events too");
        assert_eq!(data.metrics.relay_shed, 5);
        assert_eq!(data.events[0].payload, Payload::RelayShed { seq: 3 });
        assert_eq!(data.events[1].payload, Payload::RelayShed { seq: 4 });
    }

    #[test]
    fn metrics_aggregate_alongside_events() {
        let data = record_all();
        let m = &data.metrics;
        assert_eq!(m.puts, 3);
        assert_eq!(m.puts_rejected, 2, "RejectIo counts as a reject");
        assert_eq!(m.gets, 1);
        assert_eq!(m.get_hits, 1);
        assert_eq!(m.virq_samples, 1);
        assert_eq!(m.relay_enqueued, 1);
        assert_eq!(m.relay_pushes, 1);
        assert_eq!(m.relay_retries, 1, "attempt 2 counts as a retry");
        assert_eq!(m.mm_decisions, 1);
        assert_eq!(m.faults_injected, 2, "data-plane faults count too");
        assert!((m.reject_ratio() - 2.0 / 3.0).abs() < 1e-12);
        // Latencies come from the cost model: one copying put (6 µs), two
        // rejected puts (2 µs).
        assert_eq!(m.put_latency.count(), 3);
        assert_eq!(m.put_latency.min(), Some(2_000));
        assert_eq!(m.put_latency.max(), Some(6_000));
    }

    #[test]
    fn filter_parser_rejects_unknown_names() {
        assert_eq!(
            parse_subsystem_filter("tmem,virq").unwrap(),
            vec![Subsystem::Tmem, Subsystem::Virq]
        );
        assert!(parse_subsystem_filter("bogus").is_err());
        assert!(parse_subsystem_filter("").is_err());
    }

    #[test]
    fn parser_reports_schema_drift() {
        assert!(TraceData::parse_jsonl("").is_err());
        assert!(TraceData::parse_jsonl("{\"schema\":\"other\",\"version\":1}").is_err());
        let wrong_version = format!(
            "{{\"schema\":\"smartmem-trace\",\"version\":{},\"scenario\":\"s\",\"policy\":\"p\",\"seed\":0,\"dropped\":0}}\n",
            TRACE_SCHEMA_VERSION + 1
        );
        assert!(TraceData::parse_jsonl(&wrong_version)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn strings_with_escapes_survive() {
        let s = "a \"quoted\" name\\with\nweird\tchars";
        let mut json = String::new();
        s.to_string().write(&mut json);
        let mut p = Parser::new(&json);
        assert_eq!(p.string().unwrap(), s);
    }

    #[test]
    fn parser_rejects_a_subsystem_other_than_the_kinds() {
        let header = "{\"schema\":\"smartmem-trace\",\"version\":1,\"scenario\":\"s\",\"policy\":\"p\",\"seed\":0,\"dropped\":0}";
        let put = |sub: &str| {
            format!(
                "{header}\n{{\"t\":0,\"vm\":1,\"sub\":\"{sub}\",\"ev\":\"put\",\"pool\":0,\"res\":\"stored\",\"used\":1,\"target\":2}}\n"
            )
        };
        assert!(TraceData::parse_jsonl(&put("tmem")).is_ok());
        let err = TraceData::parse_jsonl(&put("mm")).unwrap_err();
        assert!(err.contains("'tmem'"), "{err}");
    }
}
