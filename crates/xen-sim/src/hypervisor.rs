//! The hypervisor: Algorithm 1 enforcement over the tmem backend.
//!
//! The paper's Algorithm 1 (`hypervisor_op`) is implemented verbatim in
//! [`Hypervisor::put`]:
//!
//! ```text
//! if op == PUT:
//!     if tmem_used >= mm_target:        return E_TMEM
//!     else if node_info.free_tmem == 0: return E_TMEM
//!     else: allocate; tmem_used += 1; puts_succ += 1; return S_TMEM
//!     puts_total += 1                   (counted regardless of outcome)
//! else if op == FLUSH:
//!     deallocate; tmem_used -= 1;       return S_TMEM
//! ```
//!
//! A VM *can* hold more tmem than its target (paper §III-B): targets are
//! revised continuously and may drop below current use; the VM then simply
//! cannot acquire more pages until it releases enough or its target rises.
//! Exclusive gets and flushes release pages; additionally the hypervisor
//! "can reclaim tmem pages from a VM very slowly" (§III-B) — implemented as
//! [`Hypervisor::reclaim_over_target_into`], a per-interval trickle of a VM's
//! oldest persistent pages to its swap device while it exceeds its target.

use crate::host::{FarConfig, FarTier};
use crate::vm::VmConfig;
use sim_core::faults::{DataFaultInjector, DataFaultLedger, FaultProfile, PutFate};
use sim_core::time::SimTime;
use sim_core::trace::{FaultKind, Payload, PutResult, Tracer};
use std::collections::BTreeMap;
use tmem::backend::{PoolKind, PutOutcome, ScrubReport, TmemBackend};
use tmem::error::{ReturnCode, TmemError};
use tmem::key::{ObjectId, PageIndex, PoolId, VmId};
use tmem::page::PagePayload;
use tmem::stats::{MemStats, MmTarget, NodeInfo, StatsMsg, VmDataHyp};

/// Sampling intervals a VM's targets stay trusted without hearing from the
/// MM. Beyond this the hypervisor treats targets as stale and enforces the
/// graceful-degradation fallback instead (see [`Hypervisor::targets_stale`]).
pub const DEFAULT_TARGET_TTL: u64 = 5;

/// Outcome of a [`Hypervisor::get_checked`] lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetOutcome<P> {
    /// The page, verified against its put-time checksum.
    Hit(P),
    /// The page, served from the host's far-memory tier after a local miss.
    /// Far hits are exclusive (the far copy is removed) and cost
    /// `CostModel::far_access` instead of a plain hypercall.
    FarHit(P),
    /// No page under this key.
    Miss,
    /// The stored page failed its integrity check. Persistent pools keep
    /// the page in place, so retries deterministically observe the same
    /// outcome until the guest flushes it (bounded retry/requeue recovery);
    /// ephemeral pools have already dropped it, so the next get is a clean
    /// miss.
    Corrupt,
}

/// The simulated hypervisor: tmem backend + per-VM Table I state + target
/// enforcement.
#[derive(Debug)]
pub struct Hypervisor<P> {
    backend: TmemBackend<P>,
    vm_data: BTreeMap<VmId, VmDataHyp>,
    vms: BTreeMap<VmId, VmConfig>,
    /// Initial target handed to newly registered VMs. Greedy runs use the
    /// full node capacity ("VMs compete for tmem in a greedy way by
    /// default"); managed runs start VMs at the policy's choice (usually 0)
    /// until the first MM cycle installs real targets.
    default_initial_target: u64,
    set_target_calls: u64,
    /// Monotonic sample counter; stamps every `sample()` snapshot.
    sample_seq: u64,
    /// Sample seq at which the MM last proved liveness (a target push or an
    /// explicit keepalive). Targets older than [`DEFAULT_TARGET_TTL`]
    /// samples are stale.
    last_mm_refresh_seq: u64,
    /// Highest target-push sequence number applied (idempotence guard).
    last_target_seq: u64,
    /// Pushes ignored because their seq was stale or duplicate.
    stale_target_msgs: u64,
    /// Flight-recorder handle (disabled by default; one branch per op).
    tracer: Tracer,
    /// Data-plane fault layer. `None` (the default) keeps every datapath
    /// operation byte-identical to a fault-free build: no RNG, no donor
    /// retention, one `Option` check per op.
    data_faults: Option<DataFaultInjector>,
    /// Far-memory tier. `None` (the default) keeps the datapath
    /// byte-identical to a host without far memory: one `Option` check on
    /// the capacity-reject and miss paths, nothing else.
    far: Option<FarTier<P>>,
}

impl<P: PagePayload> Hypervisor<P> {
    /// A hypervisor owning `tmem_pages` page frames of pooled idle/fallow
    /// memory. `default_initial_target` is the target installed for a VM at
    /// registration, before the MM has spoken.
    pub fn new(tmem_pages: u64, default_initial_target: u64) -> Self {
        Hypervisor {
            backend: TmemBackend::new(tmem_pages),
            vm_data: BTreeMap::new(),
            vms: BTreeMap::new(),
            default_initial_target,
            set_target_calls: 0,
            sample_seq: 0,
            last_mm_refresh_seq: 0,
            last_target_seq: 0,
            stale_target_msgs: 0,
            tracer: Tracer::disabled(),
            data_faults: None,
            far: None,
        }
    }

    /// Attach a far-memory tier of `cfg.capacity_pages` pages. Persistent
    /// puts rejected for local capacity spill here, and gets that miss
    /// locally are served (exclusively) from it.
    pub fn set_far_tier(&mut self, cfg: FarConfig) {
        self.far = Some(FarTier::new(cfg.capacity_pages));
    }

    /// Pages currently held in the far tier (0 without one).
    pub fn far_used(&self) -> u64 {
        self.far.as_ref().map_or(0, |f| f.used())
    }

    /// Far-tier pages held for `vm` (0 without a tier).
    pub fn far_used_by(&self, vm: VmId) -> u64 {
        self.far.as_ref().map_or(0, |f| f.used_by(vm))
    }

    /// Attach a flight-recorder handle; the tmem datapath and the target
    /// plumbing then emit structured events into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Install the data-plane fault layer for this run. A profile with no
    /// data-plane faults installs nothing, so fault-free runs keep the
    /// unfaulted datapath. Corruption probabilities additionally arm the
    /// backend's donor retention so injected corruptions have wrong bytes
    /// to cross-wire.
    pub fn set_data_faults(&mut self, profile: &FaultProfile, seed: u64) {
        if !profile.has_data_plane() {
            return;
        }
        if profile.page_bitflip > 0.0 || profile.torn_write > 0.0 {
            self.backend.arm_corruption();
        }
        self.data_faults = Some(DataFaultInjector::new(profile.clone(), seed));
    }

    /// The data-plane fault ledger, when the layer is installed.
    pub fn data_fault_ledger(&self) -> Option<&DataFaultLedger> {
        self.data_faults.as_ref().map(|d| d.ledger())
    }

    /// Close one sampling interval on the data-fault clock (brownout
    /// windows, scrub cadence). Emits one `BrownoutTick` fault event per
    /// interval spent browned out so the ledger replays from the trace.
    pub fn tick_data_faults(&mut self) {
        let Some(d) = self.data_faults.as_mut() else {
            return;
        };
        if d.tick_interval() {
            self.tracer.emit(|| {
                (
                    None,
                    Payload::Fault {
                        kind: FaultKind::BrownoutTick,
                    },
                )
            });
        }
    }

    /// Whether the periodic scrubber is due at the interval that just
    /// closed ([`Hypervisor::tick_data_faults`] advances the clock).
    pub fn data_scrub_due(&self) -> bool {
        self.data_faults.as_ref().is_some_and(|d| d.scrub_due())
    }

    /// Mirror the backend's monotonic detection counter into the data-fault
    /// ledger, emitting one `CorruptDetected` event per new detection. The
    /// backend counts each corrupt page once regardless of how many ops
    /// observe it, so this converges on exactly one ledger entry and one
    /// event per detected corruption.
    fn emit_new_detections(&mut self, vm: Option<u32>) {
        let total = self.backend.integrity().detections;
        let newly = match self.data_faults.as_mut() {
            Some(d) if total > d.ledger().corruptions_detected => {
                let n = total - d.ledger().corruptions_detected;
                d.ledger_mut().corruptions_detected = total;
                n
            }
            _ => return,
        };
        for _ in 0..newly {
            self.tracer.emit(|| {
                (
                    vm,
                    Payload::Fault {
                        kind: FaultKind::CorruptDetected,
                    },
                )
            });
        }
    }

    /// Guest-side recovery callback: the kernel finished its bounded
    /// retry/requeue of a corrupt persistent page (flushed it and requeued
    /// a clean copy from its own memory). No-op without the fault layer so
    /// ledger and trace stay in lockstep.
    pub fn note_corrupt_recovered(&mut self, vm: VmId) {
        let Some(d) = self.data_faults.as_mut() else {
            return;
        };
        d.ledger_mut().corruptions_recovered += 1;
        self.tracer.emit(|| {
            (
                Some(vm.0),
                Payload::Fault {
                    kind: FaultKind::CorruptRecovered,
                },
            )
        });
    }

    /// Register a VM (domain creation). Idempotent per id.
    pub fn register_vm(&mut self, config: VmConfig) {
        let id = config.id;
        self.vms.insert(id, config);
        self.vm_data
            .entry(id)
            .or_insert_with(|| VmDataHyp::new(id, self.default_initial_target));
    }

    /// Remove a VM from this host (outbound migration / domain teardown).
    /// The VM's pools must already be gone ([`Hypervisor::migrate_export`]
    /// or [`Hypervisor::destroy_pool`]); after this the host's samples and
    /// `node_info.vm_count` no longer include the VM. Returns its config so
    /// the destination host can re-register it.
    pub fn unregister_vm(&mut self, vm: VmId) -> Option<VmConfig> {
        assert_eq!(
            self.backend.used_by(vm),
            0,
            "unregistering {vm} while it still holds tmem pages"
        );
        self.vm_data.remove(&vm);
        self.vms.remove(&vm)
    }

    /// Live pools owned by `vm`, in pool-id order (see
    /// [`TmemBackend::pools_owned_by`]).
    pub fn pools_owned_by(&self, vm: VmId) -> Vec<(PoolId, PoolKind)> {
        self.backend.pools_owned_by(vm)
    }

    /// Create a tmem pool owned by `vm` (guest TKM initialization). The
    /// `PoolCreate` event makes the trace self-describing: replay learns
    /// each pool's kind here and can separate frontswap traffic from
    /// cleancache traffic without out-of-band context.
    pub fn new_pool(&mut self, vm: VmId, kind: PoolKind) -> Result<PoolId, TmemError> {
        assert!(
            self.vm_data.contains_key(&vm),
            "pool created for unregistered {vm}"
        );
        let pool = self.backend.new_pool(vm, kind)?;
        self.tracer.emit(|| {
            (
                Some(vm.0),
                Payload::PoolCreate {
                    pool: pool.0,
                    ephemeral: kind == PoolKind::Ephemeral,
                },
            )
        });
        Ok(pool)
    }

    /// Algorithm 1, `op == PUT`.
    ///
    /// Returns `Ok(outcome)` on `S_TMEM`; `Err(ReturnCode::Failure)` is the
    /// `E_TMEM` path (the guest falls back to its swap device).
    pub fn put(
        &mut self,
        pool: PoolId,
        object: ObjectId,
        index: PageIndex,
        payload: P,
    ) -> Result<PutOutcome, ReturnCode> {
        let (owner, kind) = match self.backend.pool_info(pool) {
            Some(info) => info,
            None => return Err(ReturnCode::Failure),
        };
        let stale = self.targets_stale();
        let floor = self.fallback_floor();
        let data = self
            .vm_data
            .get_mut(&owner)
            .expect("pool owner must be registered");
        // Line 15: puts_total incremented whether or not the put succeeds.
        data.puts_total.incr();

        // Line 5: target check against the VM's current use. When the MM
        // has gone silent past the TTL the stored target is stale and is no
        // longer trusted as a ceiling below the fair-share floor (graceful
        // degradation; see `targets_stale`).
        let target = if stale {
            data.mm_target.max(floor)
        } else {
            data.mm_target
        };
        let tmem_used = self.backend.used_by(owner);
        if tmem_used >= target {
            data.tmem_used = tmem_used;
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::Put {
                        pool: pool.0,
                        result: PutResult::RejectTarget,
                        used: tmem_used,
                        target,
                    },
                )
            });
            return Err(ReturnCode::Failure);
        }
        // Data-plane fault layer, after admission: a brownout window
        // rejects the put as a backend I/O failure; otherwise the injector
        // assigns this put its fate. Inactive layer ⇒ no RNG, one branch.
        let fate = match self.data_faults.as_mut() {
            Some(d) => {
                if d.in_brownout() {
                    d.ledger_mut().brownout_rejections += 1;
                    data.tmem_used = tmem_used;
                    self.tracer.emit(|| {
                        (
                            Some(owner.0),
                            Payload::Fault {
                                kind: FaultKind::BrownoutReject,
                            },
                        )
                    });
                    self.tracer.emit(|| {
                        (
                            Some(owner.0),
                            Payload::Put {
                                pool: pool.0,
                                result: PutResult::RejectIo,
                                used: tmem_used,
                                target,
                            },
                        )
                    });
                    return Err(ReturnCode::Failure);
                }
                match kind {
                    PoolKind::Persistent => d.persistent_put_fate(),
                    PoolKind::Ephemeral => d.ephemeral_put_fate(),
                }
            }
            None => PutFate::Deliver,
        };
        if fate == PutFate::IoFail {
            let d = self.data_faults.as_mut().expect("IoFail implies injector");
            d.ledger_mut().put_io_failures_injected += 1;
            data.tmem_used = tmem_used;
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::Fault {
                        kind: FaultKind::PutIoFail,
                    },
                )
            });
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::Put {
                        pool: pool.0,
                        result: PutResult::RejectIo,
                        used: tmem_used,
                        target,
                    },
                )
            });
            return Err(ReturnCode::Failure);
        }
        // Line 7: node free-page check. Replacement puts and ephemeral
        // recycling are resolved by the backend, so only translate a
        // backend NoCapacity into E_TMEM here. With a far tier installed a
        // persistent payload is cloned up front so the capacity-reject path
        // can spill it; hosts without one skip the clone entirely.
        let far_copy = match (&self.far, kind) {
            (Some(far), PoolKind::Persistent) if far.has_room() => Some(payload.clone()),
            _ => None,
        };
        match self.backend.put(pool, object, index, payload) {
            Ok(outcome) => {
                // Lines 10-13.
                data.puts_succ.incr();
                data.tmem_used = self.backend.used_by(owner);
                if let PutOutcome::StoredAfterEviction(victim) = outcome {
                    // The evicted ephemeral page belonged to some VM whose
                    // accounting must reflect the loss.
                    if let Some((victim_owner, _)) = self.backend.pool_info(victim.pool) {
                        if let Some(v) = self.vm_data.get_mut(&victim_owner) {
                            v.tmem_used = self.backend.used_by(victim_owner);
                        }
                        self.tracer.emit(|| {
                            (
                                Some(victim_owner.0),
                                Payload::Evict {
                                    pool: victim.pool.0,
                                },
                            )
                        });
                    }
                }
                self.tracer.emit(|| {
                    let result = match outcome {
                        PutOutcome::Stored => PutResult::Stored,
                        PutOutcome::Replaced => PutResult::Replaced,
                        PutOutcome::StoredAfterEviction(_) => PutResult::StoredEvict,
                        PutOutcome::StoredFar => unreachable!("backend never stores far"),
                    };
                    (
                        Some(owner.0),
                        Payload::Put {
                            pool: pool.0,
                            result,
                            used: tmem_used,
                            target,
                        },
                    )
                });
                if fate != PutFate::Deliver {
                    self.apply_post_store_fault(fate, pool, owner, object, index);
                }
                // An eviction inside the put may have surfaced a corrupt
                // ephemeral page; mirror any new detections.
                self.emit_new_detections(Some(owner.0));
                Ok(outcome)
            }
            Err(TmemError::NoCapacity) => {
                data.tmem_used = tmem_used;
                // Local tmem is full. A host with a far-memory tier spills
                // persistent pages there instead of bouncing the guest to
                // its swap disk; ephemeral pages are not worth fabric
                // round-trips (re-reading the file is comparable).
                if let Some(p) = far_copy {
                    let far = self.far.as_mut().expect("far_copy implies a far tier");
                    if far.store(pool, owner, object, index, p) {
                        let data = self
                            .vm_data
                            .get_mut(&owner)
                            .expect("pool owner must be registered");
                        data.puts_succ.incr();
                        self.tracer.emit(|| {
                            (
                                Some(owner.0),
                                Payload::Put {
                                    pool: pool.0,
                                    result: PutResult::StoredFar,
                                    used: tmem_used,
                                    target,
                                },
                            )
                        });
                        return Ok(PutOutcome::StoredFar);
                    }
                }
                self.tracer.emit(|| {
                    (
                        Some(owner.0),
                        Payload::Put {
                            pool: pool.0,
                            result: PutResult::RejectCapacity,
                            used: tmem_used,
                            target,
                        },
                    )
                });
                Err(ReturnCode::Failure)
            }
            Err(e) => panic!("unexpected tmem backend error on put: {e}"),
        }
    }

    /// Apply a non-`Deliver` fate to a page that was just stored: corrupt
    /// its contents in place (bitflip/torn write) or silently drop it
    /// (ephemeral loss). Out of line — fault injection is never the hot
    /// path. Fates that cannot land (no donor yet, page replaced-away)
    /// inject nothing and count nothing.
    #[cold]
    #[inline(never)]
    fn apply_post_store_fault(
        &mut self,
        fate: PutFate,
        pool: PoolId,
        owner: VmId,
        object: ObjectId,
        index: PageIndex,
    ) {
        match fate {
            PutFate::Bitflip | PutFate::Torn => {
                if self.backend.corrupt_page(pool, object, index) {
                    let kind = if fate == PutFate::Bitflip {
                        FaultKind::PageBitflip
                    } else {
                        FaultKind::TornWrite
                    };
                    let d = self.data_faults.as_mut().expect("fate implies injector");
                    if fate == PutFate::Bitflip {
                        d.ledger_mut().bitflips_injected += 1;
                    } else {
                        d.ledger_mut().torn_writes_injected += 1;
                    }
                    self.tracer
                        .emit(|| (Some(owner.0), Payload::Fault { kind }));
                }
            }
            PutFate::Lose => {
                if self
                    .backend
                    .flush_page(pool, object, index)
                    .unwrap_or(false)
                {
                    let d = self.data_faults.as_mut().expect("fate implies injector");
                    d.ledger_mut().ephemeral_losses_injected += 1;
                    if let Some(v) = self.vm_data.get_mut(&owner) {
                        v.tmem_used = self.backend.used_by(owner);
                    }
                    self.tracer.emit(|| {
                        (
                            Some(owner.0),
                            Payload::Fault {
                                kind: FaultKind::EphemeralLoss,
                            },
                        )
                    });
                    self.tracer.emit(|| {
                        (
                            Some(owner.0),
                            Payload::DataPurge {
                                pool: pool.0,
                                pages: 1,
                            },
                        )
                    });
                }
            }
            PutFate::Deliver | PutFate::IoFail => unreachable!("handled before the store"),
        }
    }

    /// `tmem_get`. Persistent (frontswap) hits free the frame. Integrity
    /// failures surface as `None` here; recovery-aware callers use
    /// [`Hypervisor::get_checked`] to distinguish corruption from a miss.
    pub fn get(&mut self, pool: PoolId, object: ObjectId, index: PageIndex) -> Option<P> {
        match self.get_checked(pool, object, index) {
            GetOutcome::Hit(p) | GetOutcome::FarHit(p) => Some(p),
            GetOutcome::Miss | GetOutcome::Corrupt => None,
        }
    }

    /// `tmem_get` with integrity-aware outcomes: the guest kernel's
    /// recovery state machine needs to distinguish "no page" (refetch from
    /// disk) from "corrupt page" (bounded retry, then flush + requeue).
    pub fn get_checked(
        &mut self,
        pool: PoolId,
        object: ObjectId,
        index: PageIndex,
    ) -> GetOutcome<P> {
        let Some((owner, kind)) = self.backend.pool_info(pool) else {
            return GetOutcome::Miss;
        };
        let data = self
            .vm_data
            .get_mut(&owner)
            .expect("pool owner must be registered");
        data.gets_total.incr();
        let out = match self.backend.get(pool, object, index) {
            Ok(p) => {
                data.gets_succ.incr();
                data.tmem_used = self.backend.used_by(owner);
                GetOutcome::Hit(p)
            }
            Err(TmemError::Corrupt) => {
                if kind == PoolKind::Ephemeral {
                    // The backend dropped the corrupt page.
                    data.tmem_used = self.backend.used_by(owner);
                }
                GetOutcome::Corrupt
            }
            // A local miss may still be a far-tier hit: the page was
            // spilled at put time. Far hits are exclusive (the far copy is
            // removed) but free no *local* frame, so the Get event carries
            // `freed: false` and a FarGet event attributes the fabric hit.
            Err(_) => match self.far.as_mut().and_then(|f| f.take(pool, object, index)) {
                Some(p) => {
                    data.gets_succ.incr();
                    GetOutcome::FarHit(p)
                }
                None => GetOutcome::Miss,
            },
        };
        let hit = matches!(out, GetOutcome::Hit(_) | GetOutcome::FarHit(_));
        let far_hit = matches!(out, GetOutcome::FarHit(_));
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::Get {
                    pool: pool.0,
                    hit,
                    freed: hit && !far_hit && kind == PoolKind::Persistent,
                },
            )
        });
        if far_hit {
            self.tracer
                .emit(|| (Some(owner.0), Payload::FarGet { pool: pool.0 }));
        }
        if matches!(out, GetOutcome::Corrupt) {
            self.on_corrupt_get(pool, owner, kind);
        }
        out
    }

    /// Ledger/trace bookkeeping for a get that surfaced corruption. An
    /// ephemeral drop is both the purge and the recovery (the guest's next
    /// get is a clean miss and it refetches from disk); a persistent page
    /// stays put, so only the (deduplicated) detection is recorded here.
    #[cold]
    #[inline(never)]
    fn on_corrupt_get(&mut self, pool: PoolId, owner: VmId, kind: PoolKind) {
        self.emit_new_detections(Some(owner.0));
        if kind == PoolKind::Ephemeral {
            if let Some(d) = self.data_faults.as_mut() {
                d.ledger_mut().corruptions_recovered += 1;
            }
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::DataPurge {
                        pool: pool.0,
                        pages: 1,
                    },
                )
            });
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::Fault {
                        kind: FaultKind::CorruptRecovered,
                    },
                )
            });
        }
    }

    /// Algorithm 1, `op == FLUSH` (single page).
    pub fn flush_page(&mut self, pool: PoolId, object: ObjectId, index: PageIndex) -> ReturnCode {
        let Some((owner, _)) = self.backend.pool_info(pool) else {
            return ReturnCode::Failure;
        };
        let data = self
            .vm_data
            .get_mut(&owner)
            .expect("pool owner must be registered");
        data.flushes.incr();
        // A flush of an absent key (e.g. one the scrubber already
        // quarantined) succeeds but removes nothing — the event must carry
        // the real page count or occupancy replay would double-count.
        let (code, removed) = match self.backend.flush_page(pool, object, index) {
            Ok(removed) => {
                data.tmem_used = self.backend.used_by(owner);
                (ReturnCode::Success, removed)
            }
            Err(_) => (ReturnCode::Failure, false),
        };
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::Flush {
                    pool: pool.0,
                    pages: removed as u64,
                },
            )
        });
        // The key may live in the far tier instead (spilled put); flush
        // semantics cover it too. Far removal is traced separately so
        // occupancy replay can keep local and far ledgers distinct.
        if let Some(far) = self.far.as_mut() {
            if far.purge_page(pool, object, index) {
                self.tracer.emit(|| {
                    (
                        Some(owner.0),
                        Payload::FarFlush {
                            pool: pool.0,
                            pages: 1,
                        },
                    )
                });
            }
        }
        // Flushing a corrupt page that nothing had observed yet still
        // counts as a detection.
        self.emit_new_detections(Some(owner.0));
        code
    }

    /// `tmem_flush_object`: invalidate a whole object; returns pages freed.
    pub fn flush_object(&mut self, pool: PoolId, object: ObjectId) -> u64 {
        let Some((owner, _)) = self.backend.pool_info(pool) else {
            return 0;
        };
        let data = self
            .vm_data
            .get_mut(&owner)
            .expect("pool owner must be registered");
        data.flushes.incr();
        let freed = self.backend.flush_object(pool, object).unwrap_or(0);
        data.tmem_used = self.backend.used_by(owner);
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::Flush {
                    pool: pool.0,
                    pages: freed,
                },
            )
        });
        if let Some(far) = self.far.as_mut() {
            let far_freed = far.purge_object(pool, object);
            if far_freed > 0 {
                self.tracer.emit(|| {
                    (
                        Some(owner.0),
                        Payload::FarFlush {
                            pool: pool.0,
                            pages: far_freed,
                        },
                    )
                });
            }
        }
        self.emit_new_detections(Some(owner.0));
        freed
    }

    /// `tmem_destroy_pool`: VM teardown / module unload; returns pages freed.
    pub fn destroy_pool(&mut self, pool: PoolId) -> u64 {
        let Some((owner, _)) = self.backend.pool_info(pool) else {
            return 0;
        };
        let freed = self.backend.destroy_pool(pool).unwrap_or(0);
        if let Some(data) = self.vm_data.get_mut(&owner) {
            data.tmem_used = self.backend.used_by(owner);
        }
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::PoolDestroy {
                    pool: pool.0,
                    pages: freed,
                },
            )
        });
        if let Some(far) = self.far.as_mut() {
            let far_freed = far.purge_pool(pool);
            if far_freed > 0 {
                self.tracer.emit(|| {
                    (
                        Some(owner.0),
                        Payload::FarFlush {
                            pool: pool.0,
                            pages: far_freed,
                        },
                    )
                });
            }
        }
        self.emit_new_detections(Some(owner.0));
        freed
    }

    /// Slow reclaim (paper §III-B: "the hypervisor can reclaim tmem pages
    /// from a VM very slowly"): if `vm` uses more tmem than its target,
    /// remove up to `max_pages` of its **oldest** persistent pages and
    /// append their keys to `out`. The caller (runner) writes them to the
    /// VM's swap device and informs the guest kernel. The runner calls this
    /// once per VM per sampling interval, so at fleet scale (64+ VMs)
    /// reusing one buffer replaces thousands of short-lived allocations per
    /// simulated second.
    pub fn reclaim_over_target_into(
        &mut self,
        pool: PoolId,
        max_pages: u64,
        out: &mut Vec<(ObjectId, PageIndex)>,
    ) {
        let Some((owner, kind)) = self.backend.pool_info(pool) else {
            return;
        };
        if kind != PoolKind::Persistent {
            return;
        }
        let target = self.effective_target(owner);
        let data = self
            .vm_data
            .get_mut(&owner)
            .expect("pool owner must be registered");
        let used = self.backend.used_by(owner);
        if used <= target {
            return;
        }
        let excess = used - target;
        let start = out.len();
        let dropped_before = self.backend.integrity().corrupt_dropped;
        self.backend
            .reclaim_oldest_persistent_into(pool, excess.min(max_pages), out);
        data.tmem_used = self.backend.used_by(owner);
        let pages = (out.len() - start) as u64;
        if pages > 0 {
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::Reclaim {
                        pool: pool.0,
                        pages,
                    },
                )
            });
        }
        // Corrupt victims were flushed but withheld from the swap
        // writeback: a silent occupancy drop, attributed to the owner.
        let dropped = self.backend.integrity().corrupt_dropped - dropped_before;
        if dropped > 0 {
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::DataPurge {
                        pool: pool.0,
                        pages: dropped,
                    },
                )
            });
        }
        self.emit_new_detections(Some(owner.0));
    }

    /// Install new targets from the MM (`SetTargets` hypercall). Stores them
    /// "and keeps them until the MM modifies them" (Algorithm 1 line 3).
    ///
    /// Versioned and idempotent: a push whose `seq` is at or below the last
    /// applied one is a duplicate or a reordered stale message and is
    /// ignored (returns `false`) — re-applying the same push twice must be a
    /// no-op, and an old vector must never overwrite a newer one. Applying targets also counts as proof of MM liveness
    /// (refreshes the staleness TTL). Per-VM targets above node capacity
    /// are clamped (no policy can meaningfully target more than the pool).
    pub fn apply_targets(&mut self, seq: u64, targets: &[MmTarget]) -> bool {
        self.set_target_calls += 1;
        if seq <= self.last_target_seq {
            self.stale_target_msgs += 1;
            self.tracer.emit(|| {
                (
                    None,
                    Payload::TargetsApplied {
                        seq,
                        entries: targets.len() as u32,
                        applied: false,
                    },
                )
            });
            return false;
        }
        self.last_target_seq = seq;
        let capacity = self.backend.capacity();
        for t in targets {
            if let Some(data) = self.vm_data.get_mut(&t.vm_id) {
                data.mm_target = t.mm_target.min(capacity);
            }
        }
        self.last_mm_refresh_seq = self.sample_seq;
        self.tracer.emit(|| {
            (
                None,
                Payload::TargetsApplied {
                    seq,
                    entries: targets.len() as u32,
                    applied: true,
                },
            )
        });
        true
    }

    /// MM liveness heartbeat: the privileged domain confirms the MM
    /// processed a snapshot this interval (even when target transmission was
    /// suppressed as unchanged). Refreshes the target-staleness TTL.
    pub fn keepalive(&mut self) {
        self.last_mm_refresh_seq = self.sample_seq;
    }

    /// Whether the stored targets have outlived their TTL: the MM has not
    /// proven liveness for more than [`DEFAULT_TARGET_TTL`] sampling intervals —
    /// crashed, or its relay channel is down. While stale, Algorithm 1
    /// stops trusting targets as ceilings below the per-VM fair-share floor
    /// (`capacity / vm_count`): VMs degrade to bounded greedy competition
    /// instead of being starved by a stale (possibly zero) target, and slow
    /// reclaim stops pulling VMs below that floor.
    pub fn targets_stale(&self) -> bool {
        self.sample_seq.saturating_sub(self.last_mm_refresh_seq) > DEFAULT_TARGET_TTL
    }

    /// The per-VM fallback floor while targets are stale: an equal share of
    /// node capacity.
    fn fallback_floor(&self) -> u64 {
        self.backend.capacity() / (self.vm_data.len() as u64).max(1)
    }

    /// The target Algorithm 1 actually enforces for `vm` right now: the
    /// MM-installed target while fresh, or `max(target, fair-share floor)`
    /// once stale.
    pub fn effective_target(&self, vm: VmId) -> u64 {
        let Some(data) = self.vm_data.get(&vm) else {
            return 0;
        };
        if self.targets_stale() {
            data.mm_target.max(self.fallback_floor())
        } else {
            data.mm_target
        }
    }

    /// Number of `SetTargets` hypercalls received — the paper's policies
    /// suppress no-change transmissions, which tests assert through this.
    pub fn set_target_calls(&self) -> u64 {
        self.set_target_calls
    }

    /// Pushes ignored as duplicate/stale by the idempotence guard.
    pub fn stale_target_msgs(&self) -> u64 {
        self.stale_target_msgs
    }

    /// Close the sampling interval and produce the sequence-stamped
    /// `memstats` snapshot that the VIRQ delivers to the privileged domain.
    pub fn sample(&mut self, at: SimTime) -> StatsMsg {
        self.sample_seq += 1;
        let vms: Vec<_> = self
            .vm_data
            .values_mut()
            .map(|d| d.close_interval())
            .collect();
        StatsMsg {
            seq: self.sample_seq,
            stats: MemStats {
                at,
                node: self.node_info(),
                vms,
            },
        }
    }

    /// Current `node_info`.
    pub fn node_info(&self) -> NodeInfo {
        NodeInfo {
            total_tmem: self.backend.capacity(),
            free_tmem: self.backend.free_pages(),
            vm_count: self.vm_data.len() as u32,
        }
    }

    /// Current target for a VM (tests and figure recorders).
    pub fn target_of(&self, vm: VmId) -> Option<u64> {
        self.vm_data.get(&vm).map(|d| d.mm_target)
    }

    /// Pages of tmem currently used by a VM (figure recorders).
    pub fn tmem_used_by(&self, vm: VmId) -> u64 {
        self.backend.used_by(vm)
    }

    /// Read-only access to the backend (tests, invariant checks).
    pub fn backend(&self) -> &TmemBackend<P> {
        &self.backend
    }

    /// One scrubber/auditor pass over the whole backend: verify every
    /// stored page, quarantine corrupt objects, audit accounting. Emits one
    /// `DataPurge` per quarantined object (occupancy attribution) and one
    /// node-wide `Scrub` summary event, and panics if the accounting audit
    /// fails — a corrupted store must never keep running silently.
    pub fn scrub(&mut self) -> ScrubReport {
        let report = self.backend.scrub();
        assert!(
            report.accounting_ok,
            "tmem accounting invariants violated during scrub"
        );
        for q in &report.quarantined {
            if let Some(v) = self.vm_data.get_mut(&q.owner) {
                v.tmem_used = self.backend.used_by(q.owner);
            }
            let (owner, pool, pages) = (q.owner.0, q.pool.0, q.pages);
            self.tracer
                .emit(|| (Some(owner), Payload::DataPurge { pool, pages }));
        }
        if let Some(d) = self.data_faults.as_mut() {
            let l = d.ledger_mut();
            l.scrub_passes += 1;
            l.scrub_pages_checked += report.pages_checked;
            l.objects_quarantined += report.quarantined.len() as u64;
        }
        self.emit_new_detections(None);
        let (checked, corrupt, quarantined) = (
            report.pages_checked,
            report.corrupt_pages,
            report.quarantined.len() as u64,
        );
        self.tracer.emit(|| {
            (
                None,
                Payload::Scrub {
                    checked,
                    corrupt,
                    quarantined,
                },
            )
        });
        report
    }

    /// Rip one persistent pool out of this host for live migration: every
    /// clean page (local and far) is returned in key order for the
    /// destination to re-admit; corrupt pages are *purged at the source* —
    /// never shipped, because re-checksumming wrong bytes on the
    /// destination would launder the corruption into a "clean" page. The
    /// pool itself is destroyed. The caller emits the `MigrateOut` event
    /// (it knows the transfer context); detections surfaced by the export
    /// are mirrored to ledger and trace here like any other op.
    pub fn migrate_export(&mut self, pool: PoolId) -> Option<PoolExport<P>> {
        let (owner, kind) = self.backend.pool_info(pool)?;
        assert_eq!(
            kind,
            PoolKind::Persistent,
            "only persistent (frontswap) pools migrate"
        );
        let (local, purged) = self.backend.export_pool(pool).ok()?;
        if let Some(data) = self.vm_data.get_mut(&owner) {
            data.tmem_used = self.backend.used_by(owner);
        }
        let far = self
            .far
            .as_mut()
            .map(|f| f.export_pool(pool))
            .unwrap_or_default();
        self.emit_new_detections(Some(owner.0));
        Some(PoolExport {
            owner,
            local,
            far,
            purged,
        })
    }

    /// Admit migrated pages into `pool` on this (destination) host,
    /// bypassing the target check — the pages were already admitted on the
    /// source and dropping them would lose guest data. Local tmem fills
    /// first, then the far tier; pages that fit nowhere are returned as
    /// spill keys for the caller to write to the VM's swap device (the
    /// swap-consistent overflow path). Imports are infrastructure traffic,
    /// not guest hypercalls: no put counters move and no `Put` events are
    /// emitted — the caller's `MigrateIn` event carries the occupancy.
    pub fn import_pages(
        &mut self,
        pool: PoolId,
        pages: Vec<(ObjectId, PageIndex, P)>,
    ) -> ImportOutcome {
        let (owner, kind) = self
            .backend
            .pool_info(pool)
            .expect("import into a missing pool");
        assert_eq!(kind, PoolKind::Persistent, "imports target frontswap pools");
        let mut stored = 0u64;
        let mut stored_far = 0u64;
        let mut spilled = Vec::new();
        for (object, index, payload) in pages {
            match self.backend.put(pool, object, index, payload.clone()) {
                Ok(PutOutcome::Stored) => stored += 1,
                Ok(PutOutcome::StoredAfterEviction(victim)) => {
                    // A crowded destination recycles an ephemeral victim to
                    // make room, exactly like a guest put would — mirror the
                    // accounting and the `Evict` event so replay stays exact.
                    stored += 1;
                    if let Some((victim_owner, _)) = self.backend.pool_info(victim.pool) {
                        if let Some(v) = self.vm_data.get_mut(&victim_owner) {
                            v.tmem_used = self.backend.used_by(victim_owner);
                        }
                        self.tracer.emit(|| {
                            (
                                Some(victim_owner.0),
                                Payload::Evict {
                                    pool: victim.pool.0,
                                },
                            )
                        });
                    }
                }
                Ok(other) => {
                    // The destination pool is fresh, so a Replaced outcome
                    // means unaccounted side effects.
                    panic!("import produced side-effecting outcome {other:?}")
                }
                Err(TmemError::NoCapacity) => {
                    let to_far = self
                        .far
                        .as_mut()
                        .is_some_and(|f| f.store(pool, owner, object, index, payload));
                    if to_far {
                        stored_far += 1;
                    } else {
                        spilled.push((object, index));
                    }
                }
                Err(e) => panic!("unexpected tmem backend error on import: {e}"),
            }
        }
        if let Some(data) = self.vm_data.get_mut(&owner) {
            data.tmem_used = self.backend.used_by(owner);
        }
        ImportOutcome {
            stored,
            stored_far,
            spilled,
        }
    }
}

/// Everything [`Hypervisor::migrate_export`] rips out of the source host
/// for one migrating pool.
#[derive(Debug)]
pub struct PoolExport<P> {
    /// The VM that owned the pool.
    pub owner: VmId,
    /// Clean local pages in `(object, index)` order.
    pub local: Vec<(ObjectId, PageIndex, P)>,
    /// Clean far-tier pages in `(object, index)` order.
    pub far: Vec<(ObjectId, PageIndex, P)>,
    /// Corrupt pages dropped at export (detected, never shipped).
    pub purged: u64,
}

/// Where [`Hypervisor::import_pages`] landed a migrated page set.
#[derive(Debug)]
pub struct ImportOutcome {
    /// Pages admitted into local tmem.
    pub stored: u64,
    /// Pages admitted into the far tier.
    pub stored_far: u64,
    /// Keys that fit nowhere; the caller writes them to the VM's swap.
    pub spilled: Vec<(ObjectId, PageIndex)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmem::page::Fingerprint;

    fn hv(cap: u64, target: u64) -> (Hypervisor<Fingerprint>, PoolId) {
        let mut h = Hypervisor::new(cap, target);
        h.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = h.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        (h, pool)
    }

    fn fp(i: u64) -> Fingerprint {
        Fingerprint::of(i, 0)
    }

    #[test]
    fn put_respects_target_before_capacity() {
        // Capacity 10 but target 3: the 4th put must fail with E_TMEM even
        // though the node has free pages (Algorithm 1 line 5 precedes 7).
        let (mut h, pool) = hv(10, 3);
        for i in 0..3 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        assert!(h.put(pool, ObjectId(0), 3, fp(3)).is_err());
        assert_eq!(h.node_info().free_tmem, 7, "free pages remain unused");
    }

    #[test]
    fn put_fails_when_node_full_even_below_target() {
        let (mut h, pool) = hv(2, 100);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        h.put(pool, ObjectId(0), 1, fp(1)).unwrap();
        assert!(h.put(pool, ObjectId(0), 2, fp(2)).is_err());
    }

    #[test]
    fn puts_total_counts_failures_too() {
        let (mut h, pool) = hv(10, 1);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        let _ = h.put(pool, ObjectId(0), 1, fp(1));
        let _ = h.put(pool, ObjectId(0), 2, fp(2));
        let stats = h.sample(SimTime::from_secs(1)).stats;
        let vm = &stats.vms[0];
        assert_eq!(vm.puts_total, 3);
        assert_eq!(vm.puts_succ, 1);
        assert_eq!(vm.failed_puts(), 2);
    }

    #[test]
    fn target_ttl_expires_strictly_after_five_silent_intervals() {
        // The stored targets go stale only once the MM has been silent for
        // MORE than DEFAULT_TARGET_TTL (5) sampling intervals: the boundary
        // interval itself is still fresh.
        let (mut h, _pool) = hv(10, 10);
        assert!(h.apply_targets(
            1,
            &[MmTarget {
                vm_id: VmId(1),
                mm_target: 4,
            }]
        ));
        for k in 1..=DEFAULT_TARGET_TTL {
            h.sample(SimTime::from_secs(k));
            assert!(
                !h.targets_stale(),
                "interval {k}: targets must stay fresh through the TTL"
            );
        }
        h.sample(SimTime::from_secs(DEFAULT_TARGET_TTL + 1));
        assert!(h.targets_stale(), "interval 6: one past the TTL is stale");
        // A fresh push clears staleness immediately.
        assert!(h.apply_targets(
            2,
            &[MmTarget {
                vm_id: VmId(1),
                mm_target: 4,
            }]
        ));
        assert!(!h.targets_stale());
    }

    #[test]
    fn vm_may_exceed_lowered_target_but_cannot_grow() {
        let (mut h, pool) = hv(10, 5);
        for i in 0..5 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        // MM lowers the target below current use.
        h.apply_targets(
            1,
            &[MmTarget {
                vm_id: VmId(1),
                mm_target: 2,
            }],
        );
        assert_eq!(h.tmem_used_by(VmId(1)), 5, "existing pages are kept");
        assert!(h.put(pool, ObjectId(0), 9, fp(9)).is_err(), "no growth");
        // Exclusive gets release pages; once below target, puts work again.
        for i in 0..4 {
            h.get(pool, ObjectId(0), i).unwrap();
        }
        assert_eq!(h.tmem_used_by(VmId(1)), 1);
        assert!(h.put(pool, ObjectId(0), 10, fp(10)).is_ok());
    }

    #[test]
    fn get_releases_frames_and_counts() {
        let (mut h, pool) = hv(4, 4);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        assert_eq!(h.get(pool, ObjectId(0), 0), Some(fp(0)));
        assert_eq!(h.get(pool, ObjectId(0), 0), None, "exclusive get");
        let s = h.sample(SimTime::from_secs(1)).stats;
        assert_eq!(s.vms[0].gets_total, 2);
        assert_eq!(s.vms[0].gets_succ, 1);
        assert_eq!(s.vms[0].tmem_used, 0);
    }

    #[test]
    fn flush_decrements_usage() {
        let (mut h, pool) = hv(4, 4);
        h.put(pool, ObjectId(3), 0, fp(0)).unwrap();
        h.put(pool, ObjectId(3), 1, fp(1)).unwrap();
        assert_eq!(h.flush_page(pool, ObjectId(3), 0), ReturnCode::Success);
        assert_eq!(h.tmem_used_by(VmId(1)), 1);
        assert_eq!(h.flush_object(pool, ObjectId(3)), 1);
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
    }

    #[test]
    fn sample_resets_interval_counters() {
        let (mut h, pool) = hv(4, 4);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        let s1 = h.sample(SimTime::from_secs(1));
        assert_eq!(s1.seq, 1, "samples are sequence-stamped");
        assert_eq!(s1.stats.vms[0].puts_total, 1);
        let s2 = h.sample(SimTime::from_secs(2));
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.stats.vms[0].puts_total, 0, "interval counters reset");
        assert_eq!(s2.stats.vms[0].tmem_used, 1, "gauges persist");
    }

    #[test]
    fn cumulative_failed_puts_accumulate_across_intervals() {
        let (mut h, pool) = hv(10, 0);
        for i in 0..3 {
            let _ = h.put(pool, ObjectId(0), i, fp(i as u64));
        }
        let s1 = h.sample(SimTime::from_secs(1)).stats;
        assert_eq!(s1.vms[0].cumul_puts_failed, 3);
        let _ = h.put(pool, ObjectId(0), 9, fp(9));
        let s2 = h.sample(SimTime::from_secs(2)).stats;
        assert_eq!(s2.vms[0].cumul_puts_failed, 4);
    }

    #[test]
    fn set_targets_ignores_unknown_vms() {
        let (mut h, _) = hv(4, 4);
        h.apply_targets(
            1,
            &[MmTarget {
                vm_id: VmId(99),
                mm_target: 1,
            }],
        );
        assert_eq!(h.target_of(VmId(99)), None);
        assert_eq!(h.set_target_calls(), 1);
    }

    #[test]
    fn brownout_windows_reject_admitted_puts() {
        let (mut h, pool) = hv(100, 100);
        let mut profile = FaultProfile::none();
        profile.brownout_every = 4;
        profile.brownout_for = 2;
        h.set_data_faults(&profile, 7);
        // The window is the tail of each period: intervals with
        // `interval % every >= every - brownout_for`, i.e. 2,3 then 6,7.
        let mut rejected = Vec::new();
        for interval in 1..=8u32 {
            h.tick_data_faults();
            if h.put(pool, ObjectId(0), interval, fp(interval as u64))
                .is_err()
            {
                rejected.push(interval);
            }
        }
        assert_eq!(rejected, vec![2, 3, 6, 7]);
        let ledger = h.data_fault_ledger().unwrap();
        assert_eq!(ledger.brownout_rejections, 4);
        assert_eq!(ledger.brownout_ticks, 4);
    }

    #[test]
    fn injected_corruption_is_detected_never_returned() {
        let (mut h, pool) = hv(100, 100);
        let mut profile = FaultProfile::none();
        profile.page_bitflip = 1.0; // every admitted put corrupts
        h.set_data_faults(&profile, 7);
        // First put has no distinct-checksum donor yet; keep putting until
        // an injection lands.
        for i in 0..4u32 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        let ledger = h.data_fault_ledger().unwrap();
        assert!(ledger.bitflips_injected >= 3, "donor present from put 2 on");
        let injected = ledger.bitflips_injected;
        // Every corrupted page surfaces as Corrupt (never wrong bytes, page
        // held in place for retries), clean ones as verified hits.
        let mut corrupt = 0u64;
        for i in 0..4u32 {
            match h.get_checked(pool, ObjectId(0), i) {
                GetOutcome::Hit(p) => assert_eq!(p, fp(i as u64)),
                GetOutcome::Corrupt => {
                    assert_eq!(h.get_checked(pool, ObjectId(0), i), GetOutcome::Corrupt);
                    corrupt += 1;
                }
                GetOutcome::Miss => panic!("page {i} vanished"),
                GetOutcome::FarHit(_) => panic!("no far tier installed"),
            }
        }
        assert_eq!(corrupt, injected);
        assert_eq!(
            h.data_fault_ledger().unwrap().corruptions_detected,
            injected
        );
    }

    #[test]
    fn scrub_quarantines_and_ledgers_detected_corruption() {
        let (mut h, pool) = hv(100, 100);
        let mut profile = FaultProfile::none();
        profile.torn_write = 1.0;
        profile.scrub_every = 1;
        h.set_data_faults(&profile, 7);
        for i in 0..3u32 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        h.tick_data_faults();
        assert!(h.data_scrub_due());
        let report = h.scrub();
        assert_eq!(report.pages_checked, 3);
        let ledger = h.data_fault_ledger().unwrap();
        assert_eq!(report.corrupt_pages, ledger.torn_writes_injected);
        assert_eq!(ledger.objects_quarantined, 1);
        assert_eq!(ledger.scrub_passes, 1);
        assert_eq!(ledger.scrub_pages_checked, 3);
        assert_eq!(ledger.corruptions_detected, ledger.torn_writes_injected);
        // Quarantine removed the whole object and fixed up accounting.
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
        // A second pass over the clean store finds nothing.
        let again = h.scrub();
        assert_eq!(again.corrupt_pages, 0);
        assert!(again.quarantined.is_empty());
    }

    #[test]
    fn ephemeral_loss_is_invisible_to_the_put_caller() {
        let mut h: Hypervisor<Fingerprint> = Hypervisor::new(100, 100);
        h.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = h.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        let mut profile = FaultProfile::none();
        profile.ephemeral_loss = 1.0;
        h.set_data_faults(&profile, 7);
        // The put succeeds from the guest's perspective...
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        // ...but the page is already gone: a clean miss, cleancache-legal.
        assert_eq!(h.get_checked(pool, ObjectId(0), 0), GetOutcome::Miss);
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
        assert_eq!(h.data_fault_ledger().unwrap().ephemeral_losses_injected, 1);
    }

    #[test]
    fn fault_free_profile_installs_no_data_layer() {
        let (mut h, pool) = hv(10, 10);
        h.set_data_faults(&FaultProfile::none(), 7);
        assert!(h.data_fault_ledger().is_none());
        assert!(!h.data_scrub_due());
        h.tick_data_faults();
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        assert_eq!(h.get(pool, ObjectId(0), 0), Some(fp(0)));
    }

    #[test]
    fn destroy_pool_zeroes_usage() {
        let (mut h, pool) = hv(8, 8);
        for i in 0..6 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        assert_eq!(h.destroy_pool(pool), 6);
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
        assert_eq!(h.node_info().free_tmem, 8);
    }
}
