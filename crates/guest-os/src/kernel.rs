//! The guest kernel: paged address space, PFRA and the swap datapath.
//!
//! This is the guest half of the paper's Fig. 1. The workload touches
//! virtual pages; on memory pressure the clock-hand PFRA picks victims and
//! the swap-out path tries frontswap (a tmem put hypercall) before falling
//! back to the shared virtual disk. Page faults on swapped pages go the
//! reverse way: tmem get (exclusive — the hypervisor frees the frame) or a
//! disk read with cluster read-ahead.
//!
//! ### Page content integrity
//!
//! Pages carry a version that bumps on the first write after every load;
//! the fingerprint `(vm, page, version)` travels through tmem and is
//! verified on every get, so a lost, stale or cross-wired page panics the
//! simulation instead of silently corrupting results.
//!
//! With data-plane fault injection enabled the hypervisor may legitimately
//! answer a frontswap get with *corrupt* (integrity check failed; the page
//! is held in place) or *miss* (the scrubber quarantined the page's
//! object). Neither ever surfaces wrong bytes to the guest: corrupt gets
//! are retried a bounded [`TMEM_GET_RETRIES`] times, then the poisoned
//! copy is flushed and the page is requeued as freshly zero-filled (the
//! application re-create path); misses requeue immediately. The
//! fingerprint assertion above still guards every page that *does* round
//! trip.

use crate::addr::VirtPage;
use crate::machine::Machine;
use tmem::error::ReturnCode;
use tmem::key::{ObjectId, PageIndex, PoolId, VmId};
use tmem::page::Fingerprint;
use xen_sim::GetOutcome;

/// Where a virtual page's contents currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageLoc {
    /// Never touched: no frame, zero-fill on first access.
    Untouched,
    /// In a RAM frame.
    Resident(u32),
    /// In the hypervisor's tmem pool (frontswap put succeeded).
    InTmem,
    /// On the swap device.
    OnDisk,
    /// Freed by the owning process; touching it again is a bug.
    Freed,
}

/// Sentinel for "no swap slot assigned".
const NO_SLOT: u32 = u32::MAX;

/// How many times a corrupt frontswap get is retried before the guest
/// gives up, flushes the poisoned copy and zero-refills the page. Bounded
/// so a stuck-corrupt page costs O(1) hypercalls per fault, never a loop.
pub const TMEM_GET_RETRIES: u32 = 2;

/// 16 bytes per virtual page: page tables are the one per-page host cost
/// every workload pays, so slot and frame fields are packed to `u32`.
#[derive(Debug, Clone, Copy)]
struct PageMeta {
    loc: PageLoc,
    /// Content version; bumps on the first write after each load so stale
    /// backing copies are detectable.
    version: u32,
    /// Swap slot holding this page's disk copy (`NO_SLOT` when none).
    /// Slots are allocated in eviction order, as Linux's swap allocator
    /// does, so temporally-clustered evictions are physically adjacent.
    slot: u32,
}

/// One RAM frame; `Option<Frame>` is 8 bytes (the `bool`s give the niche).
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The virtual page held; [`GuestKernel::alloc`] keeps every page
    /// index within `u32`.
    vpage: u32,
    /// Second-chance bit for the clock PFRA.
    referenced: bool,
    /// Written since load: eviction must write the page out.
    dirty: bool,
    /// A valid copy still exists on the swap device (populated by disk
    /// swap-in; cleared on write). Lets clean evictions drop the page free.
    disk_copy: bool,
}

/// Static configuration of one guest kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestConfig {
    /// The VM this kernel runs in.
    pub vm: VmId,
    /// Guest RAM in pages.
    pub ram_pages: u64,
    /// Pages reserved for the kernel, page cache floor and daemons —
    /// unavailable to the workload.
    pub os_reserved_pages: u64,
    /// Swap-in read-ahead window (pages), Linux's page-cluster behaviour.
    pub readahead_pages: u32,
    /// Whether frontswap (tmem) is enabled; `false` is the paper's
    /// `no-tmem` baseline.
    pub frontswap_enabled: bool,
}

impl GuestConfig {
    /// Frames usable by workload pages.
    pub fn usable_frames(&self) -> u64 {
        assert!(
            self.ram_pages > self.os_reserved_pages,
            "OS reservation exceeds RAM"
        );
        self.ram_pages - self.os_reserved_pages
    }
}

/// Per-kernel event counters (complementing the hypervisor's Table I view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// First-touch (zero-fill) faults.
    pub minor_faults: u64,
    /// Faults satisfied from tmem.
    pub tmem_faults: u64,
    /// Faults satisfied from disk.
    pub disk_faults: u64,
    /// Pages brought in by read-ahead alongside a disk fault.
    pub readahead_pages: u64,
    /// Evictions stored to tmem (successful frontswap puts).
    pub evictions_to_tmem: u64,
    /// Evictions written to the swap device (failed or disabled frontswap).
    pub evictions_to_disk: u64,
    /// Clean evictions dropped for free (valid disk copy existed).
    pub evictions_free: u64,
    /// Frontswap puts that failed (`E_TMEM`).
    pub failed_puts: u64,
    /// tmem flushes issued while freeing memory.
    pub tmem_flushes: u64,
    /// Pages the hypervisor slow-reclaimed from tmem to this VM's swap.
    pub reclaimed_pages: u64,
    /// Frontswap gets that failed the hypervisor's integrity check
    /// (recovered by flush + zero-refill after bounded retries).
    pub tmem_corrupt_faults: u64,
    /// Retry hypercalls issued against corrupt tmem pages (bounded by
    /// [`TMEM_GET_RETRIES`] per corrupt fault).
    pub tmem_corrupt_retries: u64,
    /// tmem-resident pages that came back as misses (object quarantined by
    /// the scrubber); recovered by zero-refill.
    pub tmem_lost_pages: u64,
}

/// One VM's guest kernel.
#[derive(Debug)]
pub struct GuestKernel {
    config: GuestConfig,
    /// Frontswap pool, once the TKM registered one.
    pool: Option<PoolId>,
    pages: Vec<PageMeta>,
    frames: Vec<Option<Frame>>,
    free_frames: Vec<u32>,
    clock_hand: usize,
    /// Swap-slot allocator cursor (monotonic; slots model eviction-order
    /// physical adjacency, not reuse).
    next_slot: u32,
    /// Live slots → virtual page, ordered, for slot-window read-ahead.
    slot_to_page: std::collections::BTreeMap<u32, u32>,
    /// One past the last slot read from disk — a fault starting here is a
    /// sequential stream continuation.
    next_seq_slot: u32,
    /// One past the last virtual page read from disk (VMA stream).
    next_seq_vpage: u64,
    stats: KernelStats,
}

impl GuestKernel {
    /// Boot a kernel with the given configuration.
    pub fn new(config: GuestConfig) -> Self {
        let n_frames = usize::try_from(config.usable_frames()).expect("frame count fits usize");
        GuestKernel {
            config,
            pool: None,
            pages: Vec::new(),
            frames: vec![None; n_frames],
            free_frames: (0..n_frames as u32).rev().collect(),
            clock_hand: 0,
            next_slot: 0,
            slot_to_page: std::collections::BTreeMap::new(),
            next_seq_slot: NO_SLOT,
            next_seq_vpage: u64::MAX,
            stats: KernelStats::default(),
        }
    }

    /// Attach the frontswap pool created by the guest TKM.
    pub fn attach_frontswap(&mut self, pool: PoolId) {
        assert!(
            self.config.frontswap_enabled,
            "attaching frontswap to a no-tmem guest"
        );
        self.pool = Some(pool);
    }

    /// This kernel's configuration.
    pub fn config(&self) -> &GuestConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        (self.frames.len() - self.free_frames.len()) as u64
    }

    /// Allocate `len` pages of anonymous memory (lazy, like `mmap`):
    /// returns the base page; nothing is faulted in yet. Panics, before
    /// growing the page table, if the address space would pass `u32` pages.
    pub fn alloc(&mut self, len: u64) -> VirtPage {
        let base = self.pages.len() as u64;
        assert!(
            base.checked_add(len).is_some_and(|end| end <= 1 << 32),
            "guest address space exceeds u32 pages"
        );
        self.pages.extend(std::iter::repeat_n(
            PageMeta {
                loc: PageLoc::Untouched,
                version: 0,
                slot: NO_SLOT,
            },
            usize::try_from(len).expect("allocation fits usize"),
        ));
        VirtPage(base)
    }

    /// Touch one page (read or write), driving the full fault/swap
    /// datapath and charging the step budget.
    pub fn touch(&mut self, page: VirtPage, write: bool, m: &mut Machine<'_>) {
        let vp = usize::try_from(page.0).expect("page index fits usize");
        assert!(vp < self.pages.len(), "touch of unallocated page {page}");
        match self.pages[vp].loc {
            PageLoc::Resident(f) => {
                m.budget.charge_compute(m.cost.ram_page_touch);
                let frame = self.frames[f as usize]
                    .as_mut()
                    .expect("resident page must have a live frame");
                frame.referenced = true;
                if write && !frame.dirty {
                    frame.dirty = true;
                    frame.disk_copy = false;
                    self.pages[vp].version = self.pages[vp].version.wrapping_add(1);
                    self.release_slot(vp);
                }
            }
            PageLoc::Untouched => {
                m.budget
                    .charge_compute(m.cost.page_fault_overhead + m.cost.zero_fill);
                m.budget.faults += 1;
                self.stats.minor_faults += 1;
                let f = self.obtain_frame(m);
                self.install(vp, f, write, false);
                if write {
                    self.pages[vp].version = self.pages[vp].version.wrapping_add(1);
                }
            }
            PageLoc::InTmem => {
                m.budget
                    .charge_compute(m.cost.page_fault_overhead + m.cost.tmem_hypercall);
                m.budget.faults += 1;
                let pool = self.pool.expect("page in tmem without a pool");
                let (obj, idx) = self.key_of(vp as u64);
                let outcome = m.hyp.get_checked(pool, obj, idx);
                if matches!(outcome, GetOutcome::FarHit(_)) {
                    // A far hit pays the fabric access on top of the
                    // hypercall charged above.
                    m.budget.charge_compute(m.cost.far_access);
                }
                match outcome {
                    GetOutcome::Hit(got) | GetOutcome::FarHit(got) => {
                        self.stats.tmem_faults += 1;
                        let expect = self.fingerprint(vp as u64);
                        assert_eq!(got, expect, "tmem returned stale/corrupt data for {page}");
                        let f = self.obtain_frame(m);
                        // Exclusive get: the tmem copy is gone; no disk
                        // copy either.
                        self.install(vp, f, write, false);
                        if write {
                            self.pages[vp].version = self.pages[vp].version.wrapping_add(1);
                            let frame = self.frames[f as usize].as_mut().expect("just installed");
                            frame.dirty = true;
                        }
                    }
                    GetOutcome::Corrupt => self.recover_corrupt_tmem_page(vp, write, m),
                    GetOutcome::Miss => {
                        // The hypervisor no longer has the page — its
                        // object was quarantined by the pool scrubber. The
                        // data is unrecoverable but the loss is *detected*:
                        // requeue the page as freshly zero-filled.
                        self.stats.tmem_lost_pages += 1;
                        self.refill_lost_page(vp, m);
                    }
                }
            }
            PageLoc::OnDisk => {
                m.budget.charge_compute(m.cost.page_fault_overhead);
                m.budget.faults += 1;
                self.stats.disk_faults += 1;
                // Read-ahead combines Linux's two swap-in heuristics:
                //
                // * VMA read-ahead — virtually-consecutive on-disk pages
                //   (sequential re-scans of big arrays),
                // * physical cluster read-ahead — pages whose swap slots
                //   follow the faulted one; slots were allocated in
                //   eviction order, so this batches pages pushed out
                //   together whatever their virtual addresses.
                let slot = self.pages[vp].slot;
                debug_assert_ne!(slot, NO_SLOT, "on-disk page without a slot");
                let window = u64::from(self.config.readahead_pages);
                let mut batch: Vec<u64> = vec![vp as u64];
                let mut next = vp as u64 + 1;
                while (batch.len() as u64) < window
                    && (next as usize) < self.pages.len()
                    && self.pages[next as usize].loc == PageLoc::OnDisk
                {
                    batch.push(next);
                    next += 1;
                }
                let mut last_slot = slot;
                if (batch.len() as u64) < window {
                    let room = window - batch.len() as u64;
                    let end = slot.saturating_add(room as u32);
                    for (&s, &bvp) in self.slot_to_page.range(slot + 1..end) {
                        let bvp = u64::from(bvp);
                        if self.pages[bvp as usize].loc == PageLoc::OnDisk && !batch.contains(&bvp)
                        {
                            batch.push(bvp);
                            last_slot = s;
                        }
                    }
                }
                // Stream detection: the request continues either the
                // virtual or the physical stream → sequential positioning.
                let sequential = slot == self.next_seq_slot || vp as u64 == self.next_seq_vpage;
                self.next_seq_slot = last_slot + 1;
                self.next_seq_vpage = next;
                let wait = m
                    .disk
                    .read(m.approx_now(), batch.len() as u64, sequential, m.cost);
                m.budget.charge_io(wait);
                self.stats.readahead_pages += batch.len() as u64 - 1;
                for (i, &bvp) in batch.iter().enumerate() {
                    if i > 0 && self.pages[bvp as usize].loc != PageLoc::OnDisk {
                        // A read-ahead neighbour was evicted by an earlier
                        // install in this same batch; skip it.
                        continue;
                    }
                    let f = self.obtain_frame(m);
                    let is_faulted_page = i == 0;
                    // Disk swap-in leaves the swap copy valid (swap cache),
                    // so the slot mapping is retained.
                    self.install(bvp as usize, f, is_faulted_page && write, true);
                    if !is_faulted_page {
                        // Read-ahead pages start on the inactive list: if
                        // the guess was wrong they are the first evicted
                        // and never displace the working set.
                        self.frames[f as usize]
                            .as_mut()
                            .expect("just installed")
                            .referenced = false;
                    }
                    if is_faulted_page && write {
                        self.pages[bvp as usize].version =
                            self.pages[bvp as usize].version.wrapping_add(1);
                        let frame = self.frames[f as usize].as_mut().expect("just installed");
                        frame.disk_copy = false;
                        self.release_slot(bvp as usize);
                    }
                }
            }
            PageLoc::Freed => panic!("touch of freed page {page}"),
        }
    }

    /// Free `[base, base+len)` (process exit / `munmap`): releases frames,
    /// flushes tmem copies (frontswap invalidation on swap-slot free) and
    /// drops disk copies.
    pub fn free_range(&mut self, base: VirtPage, len: u64, m: &mut Machine<'_>) {
        for vp in base.range(len) {
            let vp = usize::try_from(vp).expect("page index fits usize");
            assert!(vp < self.pages.len(), "free of unallocated page");
            match self.pages[vp].loc {
                PageLoc::Resident(f) => {
                    self.frames[f as usize] = None;
                    self.free_frames.push(f);
                }
                PageLoc::InTmem => {
                    let pool = self.pool.expect("page in tmem without a pool");
                    let (obj, idx) = self.key_of(vp as u64);
                    m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
                    let rc = m.hyp.flush_page(pool, obj, idx);
                    debug_assert_eq!(rc, ReturnCode::Success);
                    self.stats.tmem_flushes += 1;
                }
                PageLoc::OnDisk | PageLoc::Untouched => {}
                PageLoc::Freed => panic!("double free of page vp{vp:#x}"),
            }
            self.release_slot(vp);
            self.pages[vp] = PageMeta {
                loc: PageLoc::Freed,
                version: 0,
                slot: NO_SLOT,
            };
        }
    }

    /// Tear down the whole guest at VM shutdown: frees every allocation.
    pub fn teardown(&mut self, m: &mut Machine<'_>) {
        let total = self.pages.len() as u64;
        // Walk pages directly (free_range asserts on double-free).
        for vp in 0..total {
            if self.pages[vp as usize].loc != PageLoc::Freed {
                self.free_range(VirtPage(vp), 1, m);
            }
        }
    }

    /// The hypervisor slow-reclaimed these tmem pages and wrote them to
    /// this VM's swap device: relocate them `InTmem` → `OnDisk` with fresh
    /// slots. The disk traffic is the hypervisor's (async write-back), so
    /// nothing is charged to the guest; the caller charges the shared disk.
    pub fn tmem_reclaimed(&mut self, keys: &[(u64, u32)]) {
        for &(obj, idx) in keys {
            let vp = ((obj << 20) | u64::from(idx)) as usize;
            assert!(vp < self.pages.len(), "reclaimed key out of range");
            assert_eq!(
                self.pages[vp].loc,
                PageLoc::InTmem,
                "hypervisor reclaimed a page the guest does not have in tmem"
            );
            self.assign_slot(vp);
            self.pages[vp].loc = PageLoc::OnDisk;
            self.stats.reclaimed_pages += 1;
        }
    }

    /// Bounded recovery for a frontswap get that failed the hypervisor's
    /// integrity check. Persistent corrupt pages stay in place hypervisor
    /// side, so the guest retries the hypercall [`TMEM_GET_RETRIES`] times
    /// (a real driver would re-issue on `-EIO`), then gives up: flush the
    /// poisoned copy, report the fault recovered, and requeue the page as
    /// freshly zero-filled. The guest never sees wrong bytes.
    #[cold]
    fn recover_corrupt_tmem_page(&mut self, vp: usize, write: bool, m: &mut Machine<'_>) {
        self.stats.tmem_corrupt_faults += 1;
        let pool = self.pool.expect("page in tmem without a pool");
        let (obj, idx) = self.key_of(vp as u64);
        for _ in 0..TMEM_GET_RETRIES {
            m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
            self.stats.tmem_corrupt_retries += 1;
            match m.hyp.get_checked(pool, obj, idx) {
                GetOutcome::Hit(got) | GetOutcome::FarHit(got) => {
                    // The page healed between attempts — unreachable with
                    // the current in-place injector, but the retry loop
                    // takes yes for an answer.
                    let expect = self.fingerprint(vp as u64);
                    assert_eq!(got, expect, "tmem returned stale data on retry");
                    self.stats.tmem_faults += 1;
                    let f = self.obtain_frame(m);
                    self.install(vp, f, write, false);
                    if write {
                        self.pages[vp].version = self.pages[vp].version.wrapping_add(1);
                        let frame = self.frames[f as usize].as_mut().expect("just installed");
                        frame.dirty = true;
                    }
                    return;
                }
                GetOutcome::Corrupt => continue,
                GetOutcome::Miss => break, // page evaporated mid-recovery
            }
        }
        // Retries exhausted: drop the poisoned copy and start over.
        m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
        let _ = m.hyp.flush_page(pool, obj, idx);
        self.stats.tmem_flushes += 1;
        m.hyp.note_corrupt_recovered(self.config.vm);
        self.refill_lost_page(vp, m);
    }

    /// Requeue a page whose backing copy is unrecoverable (corrupt past
    /// the retry bound, or quarantined): zero-fill a fresh frame, mark it
    /// dirty so eviction writes the regenerated content out, and bump the
    /// version so any stale copy elsewhere stays detectable.
    fn refill_lost_page(&mut self, vp: usize, m: &mut Machine<'_>) {
        m.budget.charge_compute(m.cost.zero_fill);
        let f = self.obtain_frame(m);
        self.install(vp, f, true, false);
        self.pages[vp].version = self.pages[vp].version.wrapping_add(1);
    }

    /// Give page `vp` the next swap slot. Panics once every `u32` slot but
    /// the `NO_SLOT` sentinel has been handed out.
    fn assign_slot(&mut self, vp: usize) {
        let slot = self.next_slot;
        assert_ne!(slot, NO_SLOT, "swap slot counter overflowed u32");
        self.next_slot += 1;
        self.pages[vp].slot = slot;
        self.slot_to_page.insert(slot, vp as u32);
    }

    /// Drop a page's swap-slot mapping (write invalidation, free, or
    /// overwrite by a new write-out).
    fn release_slot(&mut self, vp: usize) {
        let slot = self.pages[vp].slot;
        if slot != NO_SLOT {
            self.slot_to_page.remove(&slot);
            self.pages[vp].slot = NO_SLOT;
        }
    }

    /// Content version of `page`, for tests that compare load paths.
    #[cfg(test)]
    pub(crate) fn page_version(&self, page: VirtPage) -> u32 {
        self.pages[page.0 as usize].version
    }

    fn fingerprint(&self, vp: u64) -> Fingerprint {
        let gid = (u64::from(self.config.vm.0) << 40) | vp;
        Fingerprint::of(gid, u64::from(self.pages[vp as usize].version))
    }

    /// Map a virtual page to its tmem key parts. Frontswap derives the
    /// object id and page index from the page's swap address; grouping 2^20
    /// pages per object keeps objects bounded.
    fn key_of(&self, vp: u64) -> (ObjectId, PageIndex) {
        (ObjectId(vp >> 20), (vp & 0xF_FFFF) as PageIndex)
    }

    fn install(&mut self, vp: usize, f: u32, dirty: bool, disk_copy: bool) {
        self.frames[f as usize] = Some(Frame {
            vpage: vp as u32,
            referenced: true,
            dirty,
            disk_copy,
        });
        self.pages[vp].loc = PageLoc::Resident(f);
    }

    /// Get a free frame, evicting a victim if necessary.
    fn obtain_frame(&mut self, m: &mut Machine<'_>) -> u32 {
        if let Some(f) = self.free_frames.pop() {
            return f;
        }
        self.evict_one(m)
    }

    /// Clock (second-chance) PFRA: sweep frames, clearing referenced bits,
    /// until an unreferenced victim is found; then push it out through the
    /// swap path and return its frame.
    fn evict_one(&mut self, m: &mut Machine<'_>) -> u32 {
        let n = self.frames.len();
        assert!(n > 0, "cannot evict from a zero-frame guest");
        // At most two full sweeps: the first clears every referenced bit,
        // the second must find a victim.
        for _ in 0..=2 * n {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % n;
            let Some(frame) = self.frames[idx].as_mut() else {
                continue;
            };
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let victim = *frame;
            self.swap_out(idx as u32, victim, m);
            return idx as u32;
        }
        unreachable!("clock sweep failed to find a victim");
    }

    /// Push one victim page out: free-drop if a clean disk copy exists,
    /// otherwise frontswap put → disk write fallback (paper Fig. 1 path).
    fn swap_out(&mut self, f: u32, victim: Frame, m: &mut Machine<'_>) {
        let vp = victim.vpage as usize;
        debug_assert_eq!(self.pages[vp].loc, PageLoc::Resident(f));
        if !victim.dirty && victim.disk_copy {
            // Clean page with a valid swap copy: drop for free (the slot
            // mapping was retained by the swap cache).
            debug_assert_ne!(self.pages[vp].slot, NO_SLOT);
            self.stats.evictions_free += 1;
            self.pages[vp].loc = PageLoc::OnDisk;
            self.frames[f as usize] = None;
            return;
        }
        if self.config.frontswap_enabled {
            let pool = self.pool.expect("frontswap enabled but no pool attached");
            let (obj, idx) = self.key_of(vp as u64);
            let payload = self.fingerprint(vp as u64);
            match m.hyp.put(pool, obj, idx, payload) {
                Ok(outcome) => {
                    debug_assert!(
                        !matches!(outcome, tmem::backend::PutOutcome::Replaced),
                        "frontswap should never overwrite a live key"
                    );
                    if matches!(outcome, tmem::backend::PutOutcome::StoredFar) {
                        // Spilled to the far tier: the page crossed the
                        // fabric instead of being a local copy.
                        m.budget.charge_compute(m.cost.far_access);
                    } else {
                        m.budget.charge_compute(m.cost.tmem_hypercall);
                    }
                    self.stats.evictions_to_tmem += 1;
                    self.pages[vp].loc = PageLoc::InTmem;
                    self.frames[f as usize] = None;
                    return;
                }
                Err(_) => {
                    // E_TMEM: no copy happened — cheap hypercall — and the
                    // page falls through to the disk path.
                    m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
                    self.stats.failed_puts += 1;
                }
            }
        }
        // Clustered asynchronous write-back to a freshly allocated slot;
        // throttle only on backlog.
        let throttle = m.disk.write_page(m.approx_now(), m.cost);
        if throttle > sim_core::time::SimDuration::ZERO {
            m.budget.charge_io(throttle);
        }
        self.release_slot(vp);
        self.assign_slot(vp);
        self.stats.evictions_to_disk += 1;
        self.pages[vp].loc = PageLoc::OnDisk;
        self.frames[f as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StepBudget;
    use crate::disk::SharedDisk;
    use sim_core::cost::CostModel;
    use sim_core::time::{SimDuration, SimTime};
    use tmem::backend::PoolKind;
    use xen_sim::hypervisor::Hypervisor;
    use xen_sim::vm::VmConfig;

    struct Rig {
        hyp: Hypervisor<Fingerprint>,
        disk: SharedDisk,
        cost: CostModel,
    }

    impl Rig {
        fn new(tmem_pages: u64, target: u64) -> (Rig, GuestKernel) {
            let mut hyp = Hypervisor::new(tmem_pages, target);
            hyp.register_vm(VmConfig::new(VmId(1), "VM1", 64 * 4096, 1));
            let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
            let mut kernel = GuestKernel::new(GuestConfig {
                vm: VmId(1),
                ram_pages: 12,
                os_reserved_pages: 4,
                readahead_pages: 4,
                frontswap_enabled: true,
            });
            kernel.attach_frontswap(pool);
            (
                Rig {
                    hyp,
                    disk: SharedDisk::default(),
                    cost: CostModel::hdd(),
                },
                kernel,
            )
        }

        fn step<'a>(&'a mut self, budget: &'a mut StepBudget) -> Machine<'a> {
            Machine {
                hyp: &mut self.hyp,
                disk: &mut self.disk,
                cost: &self.cost,
                now: SimTime::ZERO,
                budget,
            }
        }
    }

    fn big_budget() -> StepBudget {
        StepBudget::new(SimDuration::from_secs(3600))
    }

    #[test]
    fn page_tables_are_packed() {
        assert_eq!(std::mem::size_of::<PageMeta>(), 16);
        assert_eq!(std::mem::size_of::<Option<Frame>>(), 8);
    }

    #[test]
    #[should_panic(expected = "guest address space exceeds u32 pages")]
    fn alloc_past_u32_pages_panics_before_growing() {
        let (_rig, mut k) = Rig::new(100, 100);
        k.alloc(1);
        // One page past the limit: the assert fires before the page table
        // grows, so this allocates nothing.
        k.alloc(1 << 32);
    }

    #[test]
    #[should_panic(expected = "swap slot counter overflowed u32")]
    fn swap_slot_counter_overflow_panics() {
        // Zero tmem target: every eviction takes a swap slot.
        let (mut rig, mut k) = Rig::new(100, 0);
        k.next_slot = NO_SLOT - 1;
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
    }

    #[test]
    fn first_touch_is_a_minor_fault() {
        let (mut rig, mut k) = Rig::new(100, 100);
        let base = k.alloc(4);
        let mut b = big_budget();
        k.touch(base, true, &mut rig.step(&mut b));
        assert_eq!(k.stats().minor_faults, 1);
        assert_eq!(k.resident_pages(), 1);
        // Second touch is a plain resident hit.
        k.touch(base, false, &mut rig.step(&mut b));
        assert_eq!(k.stats().minor_faults, 1);
    }

    #[test]
    fn pressure_spills_to_tmem_and_faults_back() {
        let (mut rig, mut k) = Rig::new(100, 100);
        // 8 usable frames; touch 12 pages → 4 evictions, all to tmem.
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        assert_eq!(k.stats().evictions_to_tmem, 4);
        assert_eq!(rig.hyp.tmem_used_by(VmId(1)), 4);
        // Touch an evicted page: tmem fault, exclusive get frees the frame.
        k.touch(base, true, &mut rig.step(&mut b));
        assert_eq!(k.stats().tmem_faults, 1);
        assert_eq!(
            rig.hyp.tmem_used_by(VmId(1)),
            4,
            "get freed one, evict stored one"
        );
    }

    #[test]
    fn zero_target_forces_disk_and_reads_come_back() {
        let (mut rig, mut k) = Rig::new(100, 0);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        assert_eq!(k.stats().evictions_to_tmem, 0);
        assert_eq!(k.stats().failed_puts, 4);
        assert_eq!(k.stats().evictions_to_disk, 4);
        // Fault one back from disk.
        let mut b2 = big_budget();
        k.touch(base, false, &mut rig.step(&mut b2));
        assert_eq!(k.stats().disk_faults, 1);
        assert!(b2.blocked, "disk read must block the step");
        assert!(b2.io_wait >= rig.cost.disk_request(1));
    }

    #[test]
    fn readahead_pulls_neighbours() {
        let (mut rig, mut k) = Rig::new(100, 0);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        // Pages 0..4 were evicted to disk contiguously; faulting page 0
        // should read ahead pages 1..4 too (readahead_pages = 4).
        let before = k.stats().disk_faults;
        let mut b2 = big_budget();
        k.touch(base, false, &mut rig.step(&mut b2));
        assert_eq!(k.stats().disk_faults, before + 1);
        assert_eq!(k.stats().readahead_pages, 3);
        // Touching a read-ahead neighbour is now a resident hit.
        let mut b3 = big_budget();
        k.touch(base.offset(1), false, &mut rig.step(&mut b3));
        assert_eq!(k.stats().disk_faults, before + 1, "no extra disk fault");
    }

    #[test]
    fn clean_disk_backed_page_drops_free() {
        let (mut rig, mut k) = Rig::new(100, 0);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        // Fault page 0 back (read-only) — it keeps its disk copy.
        k.touch(base, false, &mut rig.step(&mut b));
        // Now push it out again by touching enough other pages; it must be
        // dropped for free, not rewritten.
        let free_before = k.stats().evictions_free;
        for i in 4..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        assert!(k.stats().evictions_free > free_before);
    }

    #[test]
    fn write_after_disk_load_invalidates_the_disk_copy() {
        let (mut rig, mut k) = Rig::new(100, 0);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        // Fault back with a WRITE: version bumps, disk copy invalid.
        k.touch(base, true, &mut rig.step(&mut b));
        let disk_evictions_before = k.stats().evictions_to_disk;
        for i in 4..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        // Page 0's eviction must be a real write-out, not a free drop, and
        // the content must round-trip with the new version when touched.
        assert!(k.stats().evictions_to_disk > disk_evictions_before);
        k.touch(base, false, &mut rig.step(&mut b));
    }

    #[test]
    fn free_range_flushes_tmem_and_releases_frames() {
        let (mut rig, mut k) = Rig::new(100, 100);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        assert_eq!(rig.hyp.tmem_used_by(VmId(1)), 4);
        k.free_range(base, 12, &mut rig.step(&mut b));
        assert_eq!(rig.hyp.tmem_used_by(VmId(1)), 0, "flushes freed tmem");
        assert_eq!(k.stats().tmem_flushes, 4);
        assert_eq!(k.resident_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "touch of freed page")]
    fn touching_freed_memory_panics() {
        let (mut rig, mut k) = Rig::new(100, 100);
        let base = k.alloc(1);
        let mut b = big_budget();
        k.touch(base, true, &mut rig.step(&mut b));
        k.free_range(base, 1, &mut rig.step(&mut b));
        k.touch(base, false, &mut rig.step(&mut b));
    }

    #[test]
    fn content_survives_many_eviction_cycles() {
        // Hammer a working set larger than RAM; the fingerprint assertions
        // inside `touch` verify every page that round-trips through tmem.
        let (mut rig, mut k) = Rig::new(6, 6);
        let base = k.alloc(20);
        let mut b = big_budget();
        for round in 0..5 {
            for i in 0..20 {
                k.touch(base.offset(i), round % 2 == 0, &mut rig.step(&mut b));
            }
        }
        assert!(k.stats().tmem_faults > 0);
        assert!(k.stats().disk_faults > 0, "tmem capacity 6 < working set");
    }

    #[test]
    fn no_tmem_guest_never_hypercalls() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(100, 100);
        hyp.register_vm(VmConfig::new(VmId(2), "VM2", 64 * 4096, 1));
        let mut k = GuestKernel::new(GuestConfig {
            vm: VmId(2),
            ram_pages: 10,
            os_reserved_pages: 2,
            readahead_pages: 4,
            frontswap_enabled: false,
        });
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let base = k.alloc(16);
        let mut b = big_budget();
        let mut m = Machine {
            hyp: &mut hyp,
            disk: &mut disk,
            cost: &cost,
            now: SimTime::ZERO,
            budget: &mut b,
        };
        for i in 0..16 {
            k.touch(base.offset(i), true, &mut m);
        }
        assert_eq!(k.stats().evictions_to_disk, 8);
        assert_eq!(hyp.tmem_used_by(VmId(2)), 0);
        let s = hyp.sample(SimTime::from_secs(1));
        assert_eq!(
            s.stats.vms[0].puts_total, 0,
            "no hypercalls without frontswap"
        );
    }

    #[test]
    fn corrupt_tmem_gets_recover_with_bounded_retries() {
        let (mut rig, mut k) = Rig::new(100, 100);
        let mut profile = sim_core::faults::FaultProfile::none();
        profile.page_bitflip = 1.0; // corrupt every admitted put (donor permitting)
        rig.hyp.set_data_faults(&profile, 7);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        assert_eq!(k.stats().evictions_to_tmem, 4);
        assert!(
            rig.hyp.data_fault_ledger().unwrap().bitflips_injected >= 3,
            "a donor exists from the second put on"
        );
        // Fault everything back in. Corrupted pages must come back through
        // the bounded-retry recovery path — never as wrong bytes (the
        // fingerprint assertion inside `touch` would panic).
        for i in 0..12 {
            k.touch(base.offset(i), false, &mut rig.step(&mut b));
        }
        let s = *k.stats();
        assert!(s.tmem_corrupt_faults >= 3);
        assert_eq!(
            s.tmem_corrupt_retries,
            s.tmem_corrupt_faults * u64::from(TMEM_GET_RETRIES),
            "every corrupt fault retries exactly the bound, then requeues"
        );
        assert_eq!(
            s.tmem_flushes, s.tmem_corrupt_faults,
            "each recovery flushes the poisoned copy exactly once"
        );
        let ledger = rig.hyp.data_fault_ledger().unwrap();
        assert_eq!(ledger.corruptions_recovered, s.tmem_corrupt_faults);
        assert!(ledger.corruptions_detected >= s.tmem_corrupt_faults);
    }

    #[test]
    fn quarantined_object_pages_come_back_as_detected_losses() {
        let (mut rig, mut k) = Rig::new(100, 100);
        let mut profile = sim_core::faults::FaultProfile::none();
        profile.torn_write = 1.0;
        profile.scrub_every = 1;
        rig.hyp.set_data_faults(&profile, 7);
        let base = k.alloc(12);
        let mut b = big_budget();
        for i in 0..12 {
            k.touch(base.offset(i), true, &mut rig.step(&mut b));
        }
        assert_eq!(rig.hyp.tmem_used_by(VmId(1)), 4);
        // The scrubber quarantines the whole (single) frontswap object.
        let report = rig.hyp.scrub();
        assert_eq!(
            report.quarantined.len(),
            1,
            "all guest pages share object 0"
        );
        assert_eq!(rig.hyp.tmem_used_by(VmId(1)), 0);
        // The guest still believes those 4 pages live in tmem; touching
        // them surfaces clean, detected losses and zero-refills.
        for i in 0..12 {
            k.touch(base.offset(i), false, &mut rig.step(&mut b));
        }
        // Exactly the 4 quarantined pages surface as losses; re-evictions
        // during this loop are still torn (profile stays armed) and come
        // back through the corrupt-recovery path instead.
        assert_eq!(k.stats().tmem_lost_pages, 4);
    }

    #[test]
    fn teardown_frees_everything() {
        let (mut rig, mut k) = Rig::new(100, 100);
        let a = k.alloc(6);
        let _b2 = k.alloc(6);
        let mut b = big_budget();
        for i in 0..6 {
            k.touch(a.offset(i), true, &mut rig.step(&mut b));
        }
        k.teardown(&mut rig.step(&mut b));
        assert_eq!(k.resident_pages(), 0);
        assert_eq!(rig.hyp.tmem_used_by(VmId(1)), 0);
    }
}
