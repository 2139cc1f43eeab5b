//! Typed arrays routed through the simulated paging layer.
//!
//! Workloads compute *real* results (PageRank iterations, ALS updates,
//! usemem checksums) over [`PagedVec`]s: element data lives in host memory,
//! but every element access first touches the guest virtual page(s) holding
//! that element, driving faults, frontswap puts/gets and disk I/O exactly as
//! the real application would.
//!
//! The `stride` parameter decouples *logical* element size from *memory*
//! footprint: CloudSuite's workloads run on Spark, whose JVM object overhead
//! inflates a logical 8-byte value to tens or hundreds of bytes of heap.
//! Setting `stride` to the paper-observed bytes-per-element reproduces the
//! application's memory footprint without inventing fake elements.
//!
//! A dataset generated host-side is handed over with
//! [`PagedVec::from_vec`], so its elements live in host memory exactly
//! once; the workload's load phase then write-touches each element
//! ([`PagedVec::touch_write`]) to drive the same guest traffic as storing it.

use crate::addr::VirtPage;
use crate::kernel::GuestKernel;
use crate::machine::Machine;
use tmem::page::PAGE_SIZE;

/// A fixed-length typed array backed by simulated guest pages.
#[derive(Debug)]
pub struct PagedVec<T> {
    base: VirtPage,
    stride: usize,
    data: Vec<T>,
    freed: bool,
}

impl<T: Clone + Default> PagedVec<T> {
    /// Allocate `len` elements, each occupying `stride` bytes of guest
    /// address space (`stride >= 1`; elements may straddle page
    /// boundaries). Initializes host data to `T::default()` — the guest
    /// pages themselves stay untouched until accessed.
    pub fn new(kernel: &mut GuestKernel, len: usize, stride: usize) -> Self {
        Self::from_vec(kernel, vec![T::default(); len], stride)
    }

    /// Allocate the same guest pages as [`new`](Self::new) would for
    /// `data.len()` elements and adopt `data` as the host contents. The
    /// guest pages stay untouched: the caller's load phase write-touches
    /// each element, as it would when storing it.
    pub fn from_vec(kernel: &mut GuestKernel, data: Vec<T>, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least one byte");
        let base = kernel.alloc(Self::footprint_pages(data.len(), stride));
        PagedVec {
            base,
            stride,
            data,
            freed: false,
        }
    }

    /// Pages of guest address space needed for `len` elements of `stride`
    /// bytes.
    pub fn footprint_pages(len: usize, stride: usize) -> u64 {
        ((len as u64) * (stride as u64)).div_ceil(PAGE_SIZE as u64)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Guest pages this vector occupies.
    pub fn pages(&self) -> u64 {
        Self::footprint_pages(self.data.len(), self.stride)
    }

    /// First guest page of element `i`.
    pub fn page_of(&self, i: usize) -> VirtPage {
        self.base
            .offset((i * self.stride) as u64 / PAGE_SIZE as u64)
    }

    /// Read element `i`, touching its page(s).
    pub fn get(&self, i: usize, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> T {
        self.touch_elem(i, false, kernel, m);
        self.data[i].clone()
    }

    /// Write element `i`, touching its page(s) for writing.
    pub fn set(&mut self, i: usize, v: T, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.touch_elem(i, true, kernel, m);
        self.data[i] = v;
    }

    /// Touch element `i`'s page(s) for writing and keep its value: the
    /// guest-side cost of storing an element that [`from_vec`](Self::from_vec)
    /// already placed in host memory.
    pub fn touch_write(&mut self, i: usize, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.touch_elem(i, true, kernel, m);
    }

    /// Read element `i` without simulating the memory access. For
    /// *verification only* (e.g. checking PageRank convergence after the
    /// run); using it inside a workload would hide references from the
    /// simulation.
    pub fn peek(&self, i: usize) -> &T {
        &self.data[i]
    }

    /// Release the underlying guest pages. Must be called exactly once
    /// before drop (process exit frees memory through the kernel, which
    /// needs the machine context — Rust's `Drop` cannot carry it).
    pub fn free(mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        kernel.free_range(self.base, self.pages(), m);
        self.freed = true;
    }

    fn touch_elem(&self, i: usize, write: bool, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        assert!(i < self.data.len(), "PagedVec index out of bounds");
        let start = i * self.stride;
        let end = start + self.stride - 1;
        let first = start / PAGE_SIZE;
        let last = end / PAGE_SIZE;
        for p in first..=last {
            kernel.touch(self.base.offset(p as u64), write, m);
        }
    }
}

impl<T> Drop for PagedVec<T> {
    fn drop(&mut self) {
        // Leaking guest pages would silently distort memory pressure, so a
        // vector dropped without `free` is a bug — but only in tests:
        // panicking in drop during unwind would abort, so just debug-log.
        if !self.freed && !std::thread::panicking() {
            debug_assert!(self.freed, "PagedVec dropped without free()");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StepBudget;
    use crate::disk::SharedDisk;
    use crate::kernel::GuestConfig;
    use sim_core::cost::CostModel;
    use sim_core::time::{SimDuration, SimTime};
    use tmem::backend::PoolKind;
    use tmem::key::VmId;
    use tmem::page::Fingerprint;
    use xen_sim::hypervisor::Hypervisor;
    use xen_sim::vm::VmConfig;

    struct Rig {
        hyp: Hypervisor<Fingerprint>,
        disk: SharedDisk,
        cost: CostModel,
        kernel: GuestKernel,
    }

    fn rig(frames: u64) -> Rig {
        let mut hyp = Hypervisor::new(1000, 1000);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages: frames + 2,
            os_reserved_pages: 2,
            readahead_pages: 4,
            frontswap_enabled: true,
        });
        kernel.attach_frontswap(pool);
        Rig {
            hyp,
            disk: SharedDisk::default(),
            cost: CostModel::hdd(),
            kernel,
        }
    }

    macro_rules! machine {
        ($rig:expr, $budget:expr) => {
            Machine {
                hyp: &mut $rig.hyp,
                disk: &mut $rig.disk,
                cost: &$rig.cost,
                now: SimTime::ZERO,
                budget: $budget,
            }
        };
    }

    #[test]
    fn footprint_rounds_up() {
        assert_eq!(PagedVec::<u64>::footprint_pages(1, 8), 1);
        assert_eq!(PagedVec::<u64>::footprint_pages(512, 8), 1);
        assert_eq!(PagedVec::<u64>::footprint_pages(513, 8), 2);
        assert_eq!(PagedVec::<u64>::footprint_pages(100, 4096), 100);
    }

    #[test]
    fn values_survive_paging_pressure() {
        let mut r = rig(8);
        let mut b = StepBudget::new(SimDuration::from_secs(3600));
        // 32 pages of u64s with one element per page: 4× RAM.
        let mut v: PagedVec<u64> = PagedVec::new(&mut r.kernel, 32, PAGE_SIZE);
        for i in 0..32 {
            let mut m = machine!(r, &mut b);
            v.set(i, i as u64 * 100, &mut r.kernel, &mut m);
        }
        for i in 0..32 {
            let mut m = machine!(r, &mut b);
            assert_eq!(v.get(i, &mut r.kernel, &mut m), i as u64 * 100);
        }
        assert!(r.kernel.stats().evictions_to_tmem > 0, "pressure happened");
        let mut m = machine!(r, &mut b);
        v.free(&mut r.kernel, &mut m);
        assert_eq!(r.hyp.tmem_used_by(VmId(1)), 0);
    }

    #[test]
    fn from_vec_load_matches_new_plus_set() {
        // 3000-byte elements straddle pages; 36 pages over 8 frames.
        let data: Vec<u64> = (0..48).map(|i| i * 7 + 1).collect();
        let load = |adopt: bool| {
            let mut r = rig(8);
            let mut b = StepBudget::new(SimDuration::from_secs(3600));
            let mut v = if adopt {
                PagedVec::from_vec(&mut r.kernel, data.clone(), 3000)
            } else {
                PagedVec::new(&mut r.kernel, data.len(), 3000)
            };
            for (i, &x) in data.iter().enumerate() {
                let mut m = machine!(r, &mut b);
                if adopt {
                    v.touch_write(i, &mut r.kernel, &mut m);
                } else {
                    v.set(i, x, &mut r.kernel, &mut m);
                }
            }
            let stats = *r.kernel.stats();
            let loaded = b.clone();
            let versions: Vec<u32> = (0..v.pages())
                .map(|p| r.kernel.page_version(v.page_of(0).offset(p)))
                .collect();
            let values: Vec<u64> = (0..data.len())
                .map(|i| v.get(i, &mut r.kernel, &mut machine!(r, &mut b)))
                .collect();
            v.free(&mut r.kernel, &mut machine!(r, &mut b));
            (stats, loaded, versions, values)
        };
        let (stats, _, versions, values) = load(true);
        assert!(stats.evictions_to_tmem > 0, "the load ran under pressure");
        assert!(versions.iter().all(|&v| v > 0), "every page was written");
        assert_eq!(values, data);
        assert_eq!(load(true), load(false));
    }

    #[test]
    fn stride_inflates_footprint() {
        let mut r = rig(64);
        // 100 logical u32s at 256 bytes/element → 7 pages, not 1.
        let v: PagedVec<u32> = PagedVec::new(&mut r.kernel, 100, 256);
        assert_eq!(v.pages(), 7);
        assert_eq!(v.page_of(0), v.page_of(15), "16 elements share a page");
        assert_ne!(v.page_of(0), v.page_of(16));
        let mut b = StepBudget::new(SimDuration::from_secs(3600));
        let mut m = machine!(r, &mut b);
        v.free(&mut r.kernel, &mut m);
    }

    #[test]
    fn straddling_elements_touch_both_pages() {
        let mut r = rig(64);
        // 3000-byte elements: element 1 spans pages 0 and 1.
        let mut v: PagedVec<u8> = PagedVec::new(&mut r.kernel, 4, 3000);
        let mut b = StepBudget::new(SimDuration::from_secs(3600));
        {
            let mut m = machine!(r, &mut b);
            v.set(1, 7, &mut r.kernel, &mut m);
        }
        assert_eq!(r.kernel.stats().minor_faults, 2, "two pages faulted");
        let mut m = machine!(r, &mut b);
        v.free(&mut r.kernel, &mut m);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut r = rig(8);
        let v: PagedVec<u64> = PagedVec::new(&mut r.kernel, 4, 8);
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = machine!(r, &mut b);
        let _ = v.get(4, &mut r.kernel, &mut m);
    }
}
