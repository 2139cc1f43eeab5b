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
//! Events carry `(SimTime, vm, subsystem, payload)`. A [`Recorder`] folds
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
use serde::{Deserialize, Serialize};
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The tmem datapath (put/get/flush/evict/reclaim).
    Tmem,
    /// Hypervisor control state (target-vector application).
    Hypervisor,
    /// Per-second VIRQ sampling (sample fates, interval closes).
    Virq,
    /// The dom0 TKM netlink relay (enqueue/shed/push/retry).
    Relay,
    /// The user-space Memory Manager (decisions, discards, crashes).
    Mm,
    /// The fault-injection layer (one event per injected fault).
    Fault,
    /// The fleet layer (far-memory tier traffic, VM migrations).
    Fleet,
}

impl Subsystem {
    /// Stable lower-case label used in the JSONL form and `--filter`.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Tmem => "tmem",
            Subsystem::Hypervisor => "hyp",
            Subsystem::Virq => "virq",
            Subsystem::Relay => "relay",
            Subsystem::Mm => "mm",
            Subsystem::Fault => "fault",
            Subsystem::Fleet => "fleet",
        }
    }

    /// Inverse of [`Subsystem::as_str`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "tmem" => Subsystem::Tmem,
            "hyp" => Subsystem::Hypervisor,
            "virq" => Subsystem::Virq,
            "relay" => Subsystem::Relay,
            "mm" => Subsystem::Mm,
            "fault" => Subsystem::Fault,
            "fleet" => Subsystem::Fleet,
            _ => return None,
        })
    }

    /// All subsystems, in schema order.
    pub const ALL: [Subsystem; 7] = [
        Subsystem::Tmem,
        Subsystem::Hypervisor,
        Subsystem::Virq,
        Subsystem::Relay,
        Subsystem::Mm,
        Subsystem::Fault,
        Subsystem::Fleet,
    ];
}

/// Outcome of one tmem put as seen by the admission path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutResult {
    /// Stored into a free frame.
    Stored,
    /// Overwrote an existing copy of the same key (no frame consumed).
    Replaced,
    /// Stored after evicting an ephemeral victim page.
    StoredEvict,
    /// Rejected by Algorithm 1: `tmem_used >= mm_target`.
    RejectTarget,
    /// Admitted by the target check but no free frame existed.
    RejectCapacity,
    /// Admitted by the target check but rejected by the data-fault layer
    /// (injected I/O failure or backend brownout window).
    RejectIo,
    /// Admitted by the target check, found local tmem full, and spilled
    /// into the far-memory tier instead. No local frame consumed.
    StoredFar,
}

impl PutResult {
    /// Every outcome, in discriminant order.
    const ALL: [PutResult; 7] = [
        PutResult::Stored,
        PutResult::Replaced,
        PutResult::StoredEvict,
        PutResult::RejectTarget,
        PutResult::RejectCapacity,
        PutResult::RejectIo,
        PutResult::StoredFar,
    ];

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

    fn as_str(self) -> &'static str {
        match self {
            PutResult::Stored => "stored",
            PutResult::Replaced => "replaced",
            PutResult::StoredEvict => "stored_evict",
            PutResult::RejectTarget => "reject_target",
            PutResult::RejectCapacity => "reject_cap",
            PutResult::RejectIo => "reject_io",
            PutResult::StoredFar => "stored_far",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "stored" => PutResult::Stored,
            "replaced" => PutResult::Replaced,
            "stored_evict" => PutResult::StoredEvict,
            "reject_target" => PutResult::RejectTarget,
            "reject_cap" => PutResult::RejectCapacity,
            "reject_io" => PutResult::RejectIo,
            "stored_far" => PutResult::StoredFar,
            _ => return None,
        })
    }
}

/// Outcome of one `SetTargets` push attempt through the dom0 relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The hypercall went through (fresh or stale-rejected — see the
    /// separate `TargetsApplied` event for which).
    Landed,
    /// The hypercall failed; the push is parked for backoff retry.
    Parked,
    /// A parked push was replaced by a newer target vector.
    Superseded,
    /// The retry budget was exhausted; the push is dropped.
    Abandoned,
}

impl PushOutcome {
    fn as_str(self) -> &'static str {
        match self {
            PushOutcome::Landed => "landed",
            PushOutcome::Parked => "parked",
            PushOutcome::Superseded => "superseded",
            PushOutcome::Abandoned => "abandoned",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "landed" => PushOutcome::Landed,
            "parked" => PushOutcome::Parked,
            "superseded" => PushOutcome::Superseded,
            "abandoned" => PushOutcome::Abandoned,
            _ => return None,
        })
    }
}

/// One injected fault, as decided by the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A VIRQ sample was dropped.
    SampleDrop,
    /// A VIRQ sample was delayed one interval.
    SampleDelay,
    /// A VIRQ sample was duplicated.
    SampleDuplicate,
    /// A netlink stats message was lost.
    NetlinkDrop,
    /// A netlink stats message was reordered.
    NetlinkReorder,
    /// A `SetTargets` hypercall failed.
    HypercallFail,
    /// The MM process crashed.
    MmCrash,
    /// A stored page's contents were bit-flipped.
    PageBitflip,
    /// A put landed torn (contents do not match the integrity summary).
    TornWrite,
    /// An ephemeral page was silently dropped after a successful put.
    EphemeralLoss,
    /// A persistent put failed with an injected backend I/O error.
    PutIoFail,
    /// A put was rejected inside a backend brownout window.
    BrownoutReject,
    /// One sampling interval spent inside a brownout window.
    BrownoutTick,
    /// A checksum mismatch was detected (first detection of that page).
    CorruptDetected,
    /// The guest recovered from a detected corruption (clean miss or
    /// retry/requeue rebuild).
    CorruptRecovered,
}

impl FaultKind {
    /// Stable snake-case label used in the JSONL form.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::SampleDrop => "sample_drop",
            FaultKind::SampleDelay => "sample_delay",
            FaultKind::SampleDuplicate => "sample_dup",
            FaultKind::NetlinkDrop => "netlink_drop",
            FaultKind::NetlinkReorder => "netlink_reorder",
            FaultKind::HypercallFail => "hypercall_fail",
            FaultKind::MmCrash => "mm_crash",
            FaultKind::PageBitflip => "page_bitflip",
            FaultKind::TornWrite => "torn_write",
            FaultKind::EphemeralLoss => "ephemeral_loss",
            FaultKind::PutIoFail => "put_io_fail",
            FaultKind::BrownoutReject => "brownout_reject",
            FaultKind::BrownoutTick => "brownout_tick",
            FaultKind::CorruptDetected => "corrupt_detected",
            FaultKind::CorruptRecovered => "corrupt_recovered",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "sample_drop" => FaultKind::SampleDrop,
            "sample_delay" => FaultKind::SampleDelay,
            "sample_dup" => FaultKind::SampleDuplicate,
            "netlink_drop" => FaultKind::NetlinkDrop,
            "netlink_reorder" => FaultKind::NetlinkReorder,
            "hypercall_fail" => FaultKind::HypercallFail,
            "mm_crash" => FaultKind::MmCrash,
            "page_bitflip" => FaultKind::PageBitflip,
            "torn_write" => FaultKind::TornWrite,
            "ephemeral_loss" => FaultKind::EphemeralLoss,
            "put_io_fail" => FaultKind::PutIoFail,
            "brownout_reject" => FaultKind::BrownoutReject,
            "brownout_tick" => FaultKind::BrownoutTick,
            "corrupt_detected" => FaultKind::CorruptDetected,
            "corrupt_recovered" => FaultKind::CorruptRecovered,
            _ => return None,
        })
    }
}

fn sample_fate_str(f: SampleFate) -> &'static str {
    match f {
        SampleFate::Deliver => "deliver",
        SampleFate::Drop => "drop",
        SampleFate::Delay => "delay",
        SampleFate::Duplicate => "dup",
    }
}

fn sample_fate_from_str(s: &str) -> Option<SampleFate> {
    Some(match s {
        "deliver" => SampleFate::Deliver,
        "drop" => SampleFate::Drop,
        "delay" => SampleFate::Delay,
        "dup" => SampleFate::Duplicate,
        _ => return None,
    })
}

fn netlink_fate_str(f: NetlinkFate) -> &'static str {
    match f {
        NetlinkFate::Deliver => "deliver",
        NetlinkFate::Drop => "drop",
        NetlinkFate::Reorder => "reorder",
    }
}

fn netlink_fate_from_str(s: &str) -> Option<NetlinkFate> {
    Some(match s {
        "deliver" => NetlinkFate::Deliver,
        "drop" => NetlinkFate::Drop,
        "reorder" => NetlinkFate::Reorder,
        _ => return None,
    })
}

/// The typed body of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One tmem put with its Algorithm 1 admission operands: `used` and
    /// `target` are the values of `tmem_used` and `mm_target` the admission
    /// check compared (after any stale-target fallback).
    Put {
        /// Pool the put targeted.
        pool: u32,
        /// Admission/storage outcome.
        result: PutResult,
        /// `tmem_used` operand of the admission check.
        used: u64,
        /// Effective `mm_target` operand of the admission check.
        target: u64,
    },
    /// An ephemeral page was evicted to make room (the event's `vm` is the
    /// *victim* owner; the beneficiary emits a `Put` with
    /// [`PutResult::StoredEvict`]).
    Evict {
        /// Pool the victim page belonged to.
        pool: u32,
    },
    /// One tmem get.
    Get {
        /// Pool queried.
        pool: u32,
        /// Whether the page was present.
        hit: bool,
        /// Whether the hit freed the frame (persistent-pool exclusive get).
        freed: bool,
    },
    /// One flush (single page).
    Flush {
        /// Pool flushed.
        pool: u32,
        /// Frames actually freed (0 when the page was absent).
        pages: u64,
    },
    /// A tmem pool was created. Makes the trace self-describing: replay
    /// learns each pool's kind here, so ephemeral (cleancache) traffic can
    /// be told apart from frontswap traffic without out-of-band context.
    PoolCreate {
        /// Pool created.
        pool: u32,
        /// True for ephemeral (cleancache) pools, false for persistent
        /// (frontswap) pools.
        ephemeral: bool,
    },
    /// A whole object or pool was destroyed.
    PoolDestroy {
        /// Pool destroyed.
        pool: u32,
        /// Frames freed.
        pages: u64,
    },
    /// The hypervisor reclaimed over-target persistent pages back to the
    /// guest (they fall through to disk).
    Reclaim {
        /// Pool reclaimed from.
        pool: u32,
        /// Frames reclaimed.
        pages: u64,
    },
    /// A `SetTargets` hypercall reached the hypervisor.
    TargetsApplied {
        /// Push sequence number.
        seq: u64,
        /// Entries in the target vector.
        entries: u32,
        /// False when the idempotence guard rejected a stale sequence.
        applied: bool,
    },
    /// The hypervisor emitted a VIRQ statistics sample with this fate.
    VirqSample {
        /// Sample sequence number.
        seq: u64,
        /// Fate assigned by the fault layer.
        fate: SampleFate,
    },
    /// One sampling interval closed (after MM drive, reclaim and the
    /// accounting invariant check). The `k`-th `IntervalClose` aligns with
    /// the `k`-th point of every recorded time-series.
    IntervalClose {
        /// Sample sequence number of the interval.
        seq: u64,
        /// Whether the hypervisor spent this interval in stale-target
        /// fallback (only ever true when an MM is attached).
        stale: bool,
        /// Result of the tmem accounting invariant check.
        ok: bool,
    },
    /// A netlink stats message crossed (or failed to cross) the dom0 → MM
    /// edge.
    NetlinkStats {
        /// Sample sequence number carried by the message.
        seq: u64,
        /// Fate assigned by the fault layer.
        fate: NetlinkFate,
    },
    /// The relay enqueued a stats message for the MM.
    RelayEnqueue {
        /// Sample sequence number.
        seq: u64,
        /// Queue depth after the enqueue.
        depth: u64,
    },
    /// The relay shed its oldest queued message at capacity.
    RelayShed {
        /// Sample sequence number of the shed (oldest) message.
        seq: u64,
    },
    /// One `SetTargets` push attempt through the relay.
    RelayPush {
        /// Push sequence number.
        seq: u64,
        /// Attempt number (1 = first try; ≥ 2 = backoff retry).
        attempt: u32,
        /// What happened to the attempt.
        outcome: PushOutcome,
    },
    /// The MM processed one fresh snapshot and decided.
    MmDecision {
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
    },
    /// The MM discarded a duplicate/stale snapshot idempotently.
    MmDiscard {
        /// Sequence of the discarded snapshot.
        seq_in: u64,
    },
    /// The MM process crashed.
    MmCrash {
        /// MM cycle count at the crash.
        cycle: u64,
    },
    /// The watchdog restarted a crashed MM.
    MmRestart,
    /// The fault layer injected a fault.
    Fault {
        /// Which fault fired.
        kind: FaultKind,
    },
    /// The data-fault layer silently removed stored pages (ephemeral loss,
    /// a corrupt ephemeral page dropped on get, a corrupt persistent
    /// victim dropped during reclaim, or a scrubber quarantine). The
    /// event's `vm` is the owner whose occupancy shrank.
    DataPurge {
        /// Pool the pages were removed from.
        pool: u32,
        /// Frames freed.
        pages: u64,
    },
    /// One pool-scrubber pass completed (node-wide).
    Scrub {
        /// Pages checksum-verified.
        checked: u64,
        /// Corrupt pages found by this pass.
        corrupt: u64,
        /// Corrupt objects quarantined by this pass.
        quarantined: u64,
    },
    /// A get missed local tmem and was serviced by the far-memory tier
    /// (the far copy is consumed — exclusive read). Emitted in addition
    /// to the `Get` event, which reports `freed: false` because no
    /// *local* frame was released.
    FarGet {
        /// Pool the far copy belonged to.
        pool: u32,
    },
    /// Far-tier entries were purged by a flush/destroy of their pool.
    FarFlush {
        /// Pool flushed.
        pool: u32,
        /// Far entries removed.
        pages: u64,
    },
    /// A VM began migrating off this host. Emitted on the *source* host's
    /// trace; the pages named here leave this host's accounting.
    MigrateOut {
        /// Clean local tmem pages exported.
        pages: u64,
        /// Far-tier entries exported.
        far: u64,
        /// Corrupt pages found at export and dropped (never transferred).
        purged: u64,
        /// Resident RAM pages transferred alongside.
        ram: u64,
    },
    /// A migrating VM landed on this host. Emitted on the *destination*
    /// host's trace. `pages + far + spilled` equals the source's
    /// `pages + far` — conservation, checked by replay.
    MigrateIn {
        /// Pages stored into the destination's local tmem.
        pages: u64,
        /// Entries stored into the destination's far tier.
        far: u64,
        /// Pages that found no tmem room and spilled to the destination's
        /// swap disk.
        spilled: u64,
    },
    /// A migrated VM resumed on its destination host.
    MigrateDone {
        /// Pause-to-resume downtime in sim-nanoseconds.
        downtime: u64,
    },
}

/// One recorded event: `(SimTime, vm, subsystem, payload)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// VM the event is attributed to (`None` for node-wide control-plane
    /// events).
    pub vm: Option<u32>,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// Typed body.
    pub payload: Payload,
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
const FAULT_KINDS: usize = FaultKind::CorruptRecovered as usize + 1;

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

    fn record(&mut self, vm: Option<u32>, subsystem: Subsystem, payload: Payload) {
        let ev = TraceEvent {
            at: self.now,
            vm,
            subsystem,
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

    /// Emit one event. The closure builds `(vm, subsystem, payload)` and is
    /// only evaluated when tracing is enabled — call sites pay one branch
    /// when disabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> (Option<u32>, Subsystem, Payload)) {
        if let Some(rec) = &self.0 {
            let (vm, subsystem, payload) = f();
            rec.borrow_mut().record(vm, subsystem, payload);
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
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"smartmem-trace\",\"version\":{},\"scenario\":{},\"policy\":{},\"seed\":{},\"dropped\":{}",
            TRACE_SCHEMA_VERSION,
            json_string(&header.scenario),
            json_string(&header.policy),
            header.seed,
            self.dropped_oldest
        );
        let filter_label = filter.map(|subs| {
            subs.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(",")
        });
        if let Some(label) = &filter_label {
            let _ = write!(out, ",\"filter\":{}", json_string(label));
        }
        out.push_str("}\n");
        for ev in &self.events {
            if let Some(subs) = filter {
                if !subs.contains(&ev.subsystem) {
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
        if get_str(&header, "schema")? != "smartmem-trace" {
            return Err("header: not a smartmem-trace file".into());
        }
        let version = get_u64(&header, "version")? as u32;
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
            scenario: get_str(&header, "scenario")?.to_string(),
            policy: get_str(&header, "policy")?.to_string(),
            seed: get_u64(&header, "seed")?,
            dropped_oldest: get_u64(&header, "dropped")?,
            filter: find(&header, "filter").map(|v| match v {
                Json::S(s) => s.clone(),
                other => format!("{other:?}"),
            }),
            events,
        })
    }
}

// ---------------------------------------------------------------------------
// JSONL writing
// ---------------------------------------------------------------------------

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
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
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "{{\"t\":{}", ev.at.as_nanos());
    if let Some(vm) = ev.vm {
        let _ = write!(out, ",\"vm\":{vm}");
    }
    let _ = write!(out, ",\"sub\":\"{}\"", ev.subsystem.as_str());
    match &ev.payload {
        Payload::Put {
            pool,
            result,
            used,
            target,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"put\",\"pool\":{pool},\"res\":\"{}\",\"used\":{used},\"target\":{target}",
                result.as_str()
            );
        }
        Payload::Evict { pool } => {
            let _ = write!(out, ",\"ev\":\"evict\",\"pool\":{pool}");
        }
        Payload::Get { pool, hit, freed } => {
            let _ = write!(
                out,
                ",\"ev\":\"get\",\"pool\":{pool},\"hit\":{hit},\"freed\":{freed}"
            );
        }
        Payload::Flush { pool, pages } => {
            let _ = write!(out, ",\"ev\":\"flush\",\"pool\":{pool},\"pages\":{pages}");
        }
        Payload::PoolCreate { pool, ephemeral } => {
            let _ = write!(
                out,
                ",\"ev\":\"pool_create\",\"pool\":{pool},\"ephemeral\":{ephemeral}"
            );
        }
        Payload::PoolDestroy { pool, pages } => {
            let _ = write!(
                out,
                ",\"ev\":\"pool_destroy\",\"pool\":{pool},\"pages\":{pages}"
            );
        }
        Payload::Reclaim { pool, pages } => {
            let _ = write!(out, ",\"ev\":\"reclaim\",\"pool\":{pool},\"pages\":{pages}");
        }
        Payload::TargetsApplied {
            seq,
            entries,
            applied,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"targets_applied\",\"seq\":{seq},\"entries\":{entries},\"applied\":{applied}"
            );
        }
        Payload::VirqSample { seq, fate } => {
            let _ = write!(
                out,
                ",\"ev\":\"sample\",\"seq\":{seq},\"fate\":\"{}\"",
                sample_fate_str(*fate)
            );
        }
        Payload::IntervalClose { seq, stale, ok } => {
            let _ = write!(
                out,
                ",\"ev\":\"interval\",\"seq\":{seq},\"stale\":{stale},\"ok\":{ok}"
            );
        }
        Payload::NetlinkStats { seq, fate } => {
            let _ = write!(
                out,
                ",\"ev\":\"stats_msg\",\"seq\":{seq},\"fate\":\"{}\"",
                netlink_fate_str(*fate)
            );
        }
        Payload::RelayEnqueue { seq, depth } => {
            let _ = write!(out, ",\"ev\":\"enqueue\",\"seq\":{seq},\"depth\":{depth}");
        }
        Payload::RelayShed { seq } => {
            let _ = write!(out, ",\"ev\":\"shed\",\"seq\":{seq}");
        }
        Payload::RelayPush {
            seq,
            attempt,
            outcome,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"push\",\"seq\":{seq},\"attempt\":{attempt},\"outcome\":\"{}\"",
                outcome.as_str()
            );
        }
        Payload::MmDecision {
            seq_in,
            push_seq,
            sent,
            warming,
            targets,
            rescale,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"decision\",\"seq_in\":{seq_in},\"push_seq\":{push_seq},\"sent\":{sent},\"warming\":{warming},\"targets\":["
            );
            for (i, (vm, tgt)) in targets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{vm},{tgt}]");
            }
            out.push(']');
            if let Some((sum, cap)) = rescale {
                let _ = write!(out, ",\"rescale\":[{sum},{cap}]");
            }
        }
        Payload::MmDiscard { seq_in } => {
            let _ = write!(out, ",\"ev\":\"discard\",\"seq_in\":{seq_in}");
        }
        Payload::MmCrash { cycle } => {
            let _ = write!(out, ",\"ev\":\"crash\",\"cycle\":{cycle}");
        }
        Payload::MmRestart => {
            out.push_str(",\"ev\":\"restart\"");
        }
        Payload::Fault { kind } => {
            let _ = write!(out, ",\"ev\":\"fault\",\"kind\":\"{}\"", kind.as_str());
        }
        Payload::DataPurge { pool, pages } => {
            let _ = write!(
                out,
                ",\"ev\":\"data_purge\",\"pool\":{pool},\"pages\":{pages}"
            );
        }
        Payload::Scrub {
            checked,
            corrupt,
            quarantined,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"scrub\",\"checked\":{checked},\"corrupt\":{corrupt},\"quarantined\":{quarantined}"
            );
        }
        Payload::FarGet { pool } => {
            let _ = write!(out, ",\"ev\":\"far_get\",\"pool\":{pool}");
        }
        Payload::FarFlush { pool, pages } => {
            let _ = write!(
                out,
                ",\"ev\":\"far_flush\",\"pool\":{pool},\"pages\":{pages}"
            );
        }
        Payload::MigrateOut {
            pages,
            far,
            purged,
            ram,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"migrate_out\",\"pages\":{pages},\"far\":{far},\"purged\":{purged},\"ram\":{ram}"
            );
        }
        Payload::MigrateIn {
            pages,
            far,
            spilled,
        } => {
            let _ = write!(
                out,
                ",\"ev\":\"migrate_in\",\"pages\":{pages},\"far\":{far},\"spilled\":{spilled}"
            );
        }
        Payload::MigrateDone { downtime } => {
            let _ = write!(out, ",\"ev\":\"migrate_done\",\"downtime\":{downtime}");
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// JSONL parsing (hand-rolled: the vendored serde is a no-op stub)
// ---------------------------------------------------------------------------

/// Minimal JSON value for the flat objects the trace format uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
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

fn find<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    match find(fields, key) {
        Some(Json::U(n)) => Ok(*n),
        Some(other) => Err(format!("field '{key}' is not an integer: {other:?}")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn get_bool(fields: &[(String, Json)], key: &str) -> Result<bool, String> {
    match find(fields, key) {
        Some(Json::B(b)) => Ok(*b),
        Some(other) => Err(format!("field '{key}' is not a bool: {other:?}")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn get_str<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    match find(fields, key) {
        Some(Json::S(s)) => Ok(s),
        Some(other) => Err(format!("field '{key}' is not a string: {other:?}")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn event_from_fields(obj: &[(String, Json)]) -> Result<TraceEvent, String> {
    let at = SimTime(get_u64(obj, "t")?);
    let vm = match find(obj, "vm") {
        Some(Json::U(n)) => Some(*n as u32),
        Some(other) => return Err(format!("field 'vm' is not an integer: {other:?}")),
        None => None,
    };
    let sub = get_str(obj, "sub")?;
    let subsystem =
        Subsystem::from_label(sub).ok_or_else(|| format!("unknown subsystem '{sub}'"))?;
    let ev = get_str(obj, "ev")?;
    let payload = match ev {
        "put" => {
            let res = get_str(obj, "res")?;
            Payload::Put {
                pool: get_u64(obj, "pool")? as u32,
                result: PutResult::from_str(res)
                    .ok_or_else(|| format!("unknown put result '{res}'"))?,
                used: get_u64(obj, "used")?,
                target: get_u64(obj, "target")?,
            }
        }
        "evict" => Payload::Evict {
            pool: get_u64(obj, "pool")? as u32,
        },
        "get" => Payload::Get {
            pool: get_u64(obj, "pool")? as u32,
            hit: get_bool(obj, "hit")?,
            freed: get_bool(obj, "freed")?,
        },
        "flush" => Payload::Flush {
            pool: get_u64(obj, "pool")? as u32,
            pages: get_u64(obj, "pages")?,
        },
        "pool_create" => Payload::PoolCreate {
            pool: get_u64(obj, "pool")? as u32,
            ephemeral: get_bool(obj, "ephemeral")?,
        },
        "pool_destroy" => Payload::PoolDestroy {
            pool: get_u64(obj, "pool")? as u32,
            pages: get_u64(obj, "pages")?,
        },
        "reclaim" => Payload::Reclaim {
            pool: get_u64(obj, "pool")? as u32,
            pages: get_u64(obj, "pages")?,
        },
        "targets_applied" => Payload::TargetsApplied {
            seq: get_u64(obj, "seq")?,
            entries: get_u64(obj, "entries")? as u32,
            applied: get_bool(obj, "applied")?,
        },
        "sample" => {
            let fate = get_str(obj, "fate")?;
            Payload::VirqSample {
                seq: get_u64(obj, "seq")?,
                fate: sample_fate_from_str(fate)
                    .ok_or_else(|| format!("unknown sample fate '{fate}'"))?,
            }
        }
        "interval" => Payload::IntervalClose {
            seq: get_u64(obj, "seq")?,
            stale: get_bool(obj, "stale")?,
            ok: get_bool(obj, "ok")?,
        },
        "stats_msg" => {
            let fate = get_str(obj, "fate")?;
            Payload::NetlinkStats {
                seq: get_u64(obj, "seq")?,
                fate: netlink_fate_from_str(fate)
                    .ok_or_else(|| format!("unknown netlink fate '{fate}'"))?,
            }
        }
        "enqueue" => Payload::RelayEnqueue {
            seq: get_u64(obj, "seq")?,
            depth: get_u64(obj, "depth")?,
        },
        "shed" => Payload::RelayShed {
            seq: get_u64(obj, "seq")?,
        },
        "push" => {
            let outcome = get_str(obj, "outcome")?;
            Payload::RelayPush {
                seq: get_u64(obj, "seq")?,
                attempt: get_u64(obj, "attempt")? as u32,
                outcome: PushOutcome::from_str(outcome)
                    .ok_or_else(|| format!("unknown push outcome '{outcome}'"))?,
            }
        }
        "decision" => {
            let targets = match find(obj, "targets") {
                Some(Json::A(items)) => items
                    .iter()
                    .map(|item| match item {
                        Json::A(pair) => match pair.as_slice() {
                            [Json::U(vm), Json::U(tgt)] => Ok((*vm as u32, *tgt)),
                            _ => Err("target entry is not a [vm, target] pair".to_string()),
                        },
                        _ => Err("target entry is not an array".to_string()),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("missing or malformed 'targets'".into()),
            };
            let rescale = match find(obj, "rescale") {
                Some(Json::A(pair)) => match pair.as_slice() {
                    [Json::U(sum), Json::U(cap)] => Some((*sum, *cap)),
                    _ => return Err("'rescale' is not a [sum, cap] pair".into()),
                },
                Some(_) => return Err("'rescale' is not an array".into()),
                None => None,
            };
            Payload::MmDecision {
                seq_in: get_u64(obj, "seq_in")?,
                push_seq: get_u64(obj, "push_seq")?,
                sent: get_bool(obj, "sent")?,
                warming: get_bool(obj, "warming")?,
                targets,
                rescale,
            }
        }
        "discard" => Payload::MmDiscard {
            seq_in: get_u64(obj, "seq_in")?,
        },
        "crash" => Payload::MmCrash {
            cycle: get_u64(obj, "cycle")?,
        },
        "restart" => Payload::MmRestart,
        "fault" => {
            let kind = get_str(obj, "kind")?;
            Payload::Fault {
                kind: FaultKind::from_str(kind)
                    .ok_or_else(|| format!("unknown fault kind '{kind}'"))?,
            }
        }
        "data_purge" => Payload::DataPurge {
            pool: get_u64(obj, "pool")? as u32,
            pages: get_u64(obj, "pages")?,
        },
        "scrub" => Payload::Scrub {
            checked: get_u64(obj, "checked")?,
            corrupt: get_u64(obj, "corrupt")?,
            quarantined: get_u64(obj, "quarantined")?,
        },
        "far_get" => Payload::FarGet {
            pool: get_u64(obj, "pool")? as u32,
        },
        "far_flush" => Payload::FarFlush {
            pool: get_u64(obj, "pool")? as u32,
            pages: get_u64(obj, "pages")?,
        },
        "migrate_out" => Payload::MigrateOut {
            pages: get_u64(obj, "pages")?,
            far: get_u64(obj, "far")?,
            purged: get_u64(obj, "purged")?,
            ram: get_u64(obj, "ram")?,
        },
        "migrate_in" => Payload::MigrateIn {
            pages: get_u64(obj, "pages")?,
            far: get_u64(obj, "far")?,
            spilled: get_u64(obj, "spilled")?,
        },
        "migrate_done" => Payload::MigrateDone {
            downtime: get_u64(obj, "downtime")?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(TraceEvent {
        at,
        vm,
        subsystem,
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

    fn sample_events() -> Vec<(Option<u32>, Subsystem, Payload)> {
        vec![
            (
                Some(1),
                Subsystem::Tmem,
                Payload::Put {
                    pool: 0,
                    result: PutResult::Stored,
                    used: 10,
                    target: 100,
                },
            ),
            (
                Some(1),
                Subsystem::Tmem,
                Payload::Put {
                    pool: 0,
                    result: PutResult::RejectTarget,
                    used: 100,
                    target: 100,
                },
            ),
            (
                Some(2),
                Subsystem::Tmem,
                Payload::Get {
                    pool: 1,
                    hit: true,
                    freed: true,
                },
            ),
            (
                None,
                Subsystem::Virq,
                Payload::VirqSample {
                    seq: 1,
                    fate: SampleFate::Drop,
                },
            ),
            (
                None,
                Subsystem::Relay,
                Payload::RelayEnqueue { seq: 1, depth: 1 },
            ),
            (
                None,
                Subsystem::Relay,
                Payload::RelayPush {
                    seq: 1,
                    attempt: 2,
                    outcome: PushOutcome::Landed,
                },
            ),
            (
                None,
                Subsystem::Mm,
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
                Subsystem::Fault,
                Payload::Fault {
                    kind: FaultKind::SampleDrop,
                },
            ),
            (None, Subsystem::Mm, Payload::MmRestart),
            (
                Some(1),
                Subsystem::Tmem,
                Payload::Put {
                    pool: 0,
                    result: PutResult::RejectIo,
                    used: 10,
                    target: 100,
                },
            ),
            (
                Some(2),
                Subsystem::Tmem,
                Payload::DataPurge { pool: 1, pages: 3 },
            ),
            (
                None,
                Subsystem::Tmem,
                Payload::Scrub {
                    checked: 64,
                    corrupt: 2,
                    quarantined: 1,
                },
            ),
            (
                Some(1),
                Subsystem::Fault,
                Payload::Fault {
                    kind: FaultKind::CorruptDetected,
                },
            ),
        ]
    }

    fn record_all() -> TraceData {
        let tracer = Tracer::new(Recorder::new(1024, Some(CostModel::hdd())));
        for (i, (vm, sub, payload)) in sample_events().into_iter().enumerate() {
            tracer.set_now(SimTime(i as u64 * 1_000));
            tracer.emit(|| (vm, sub, payload));
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
        assert!(parsed.events.iter().all(|e| e.subsystem == Subsystem::Tmem));
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let tracer = Tracer::new(Recorder::new(2, None));
        for seq in 0..5 {
            tracer.emit(|| (None, Subsystem::Virq, Payload::RelayShed { seq }));
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
        let json = json_string(s);
        let mut p = Parser::new(&json);
        assert_eq!(p.string().unwrap(), s);
    }
}
