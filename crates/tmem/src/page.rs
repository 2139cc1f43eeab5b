//! Page payloads.
//!
//! The backend is generic over the payload type it stores per page. Two
//! implementations are provided:
//!
//! * [`PageBuf`] — a real 4 KiB byte buffer (cheaply clonable: an
//!   `Arc<[u8]>`). Unit, integration and property tests use it to prove
//!   byte-exact round-trips through put/get.
//! * [`Fingerprint`] — a 64-bit content fingerprint. Scenario-scale
//!   simulations store gigabytes of simulated pages; carrying real buffers
//!   would multiply host memory use for no benefit, while a fingerprint
//!   still catches any lost, duplicated or mixed-up page (the guest verifies
//!   the fingerprint of every page it gets back).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Size of one page, in bytes. x86 base pages, as in the paper's testbed.
pub const PAGE_SIZE: usize = 4096;

/// Marker trait for types the backend can store per page.
///
/// `Clone` is required because ephemeral (cleancache) gets return a copy
/// while leaving the stored page in place; `Eq` lets tests and guests verify
/// round-trips; `Hash` feeds the per-page integrity summary the backend
/// records at put time and re-verifies on every get/flush/scrub.
pub trait PagePayload: Clone + Eq + Hash + std::fmt::Debug {
    /// Cheap integrity summary of the payload: a deterministic 64-bit
    /// checksum (Fx over the `Hash` stream — process-independent, so
    /// simulation outputs never depend on a per-process hasher seed).
    fn checksum(&self) -> u64 {
        let mut h = crate::fastmap::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}
impl<T: Clone + Eq + Hash + std::fmt::Debug> PagePayload for T {}

/// A real page of data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageBuf(Arc<[u8]>);

impl PageBuf {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Self::filled(0)
    }

    /// Build a page from exactly [`PAGE_SIZE`] bytes.
    ///
    /// # Panics
    /// Panics if `data` is not exactly one page long — a short "page" would
    /// silently corrupt a guest, so this is a programming error.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            PAGE_SIZE,
            "page payload must be {PAGE_SIZE} bytes"
        );
        PageBuf(data.into())
    }

    /// A page filled with a repeating byte pattern (test helper).
    pub fn filled(byte: u8) -> Self {
        PageBuf(vec![byte; PAGE_SIZE].into())
    }

    /// Borrow the page contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Fingerprint of this page's contents (FNV-1a over the bytes), for
    /// cross-checking against [`Fingerprint`] payloads.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.0.iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Fingerprint(h)
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::zeroed()
    }
}

/// Handle to a page slot inside a [`PageArena`].
///
/// The backend's flat key map stores these 4-byte handles instead of the
/// payloads themselves, so map entries stay small and payload storage is
/// stable (never moved by a rehash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotHandle(u32);

/// Slab of page payload slots with a free list.
///
/// `alloc` reuses the most recently freed slot before growing the slab, so
/// steady-state put/flush churn touches a small, warm set of slots and
/// never calls into the global allocator (beyond amortized `Vec` growth up
/// to the high-water mark of live pages). Payloads are addressed by
/// [`SlotHandle`]; the arena itself knows nothing about tmem keys.
#[derive(Debug)]
pub struct PageArena<P> {
    slots: Vec<Option<P>>,
    free_list: Vec<u32>,
}

impl<P> Default for PageArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PageArena<P> {
    /// An empty arena.
    pub fn new() -> Self {
        PageArena {
            slots: Vec::new(),
            free_list: Vec::new(),
        }
    }

    /// Number of live (allocated) slots.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free_list.len()
    }

    /// High-water mark: total slots ever grown (live + free).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Store `payload` in a slot, reusing a freed one when available.
    #[inline]
    pub fn alloc(&mut self, payload: P) -> SlotHandle {
        match self.free_list.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none(), "free list slot was live");
                self.slots[i as usize] = Some(payload);
                SlotHandle(i)
            }
            None => {
                let i = self.slots.len();
                assert!(i < u32::MAX as usize, "page arena slot space exhausted");
                self.slots.push(Some(payload));
                SlotHandle(i as u32)
            }
        }
    }

    /// Release a slot, returning its payload.
    ///
    /// # Panics
    /// Panics if the slot is already free — a double free means the caller's
    /// key map and the arena disagree, which would corrupt accounting.
    #[inline]
    pub fn free(&mut self, handle: SlotHandle) -> P {
        let payload = self.slots[handle.0 as usize]
            .take()
            .expect("double free of arena slot");
        self.free_list.push(handle.0);
        payload
    }

    /// Borrow the payload in a live slot.
    #[inline]
    pub fn get(&self, handle: SlotHandle) -> &P {
        self.slots[handle.0 as usize]
            .as_ref()
            .expect("stale arena handle")
    }

    /// Mutably borrow the payload in a live slot.
    #[inline]
    pub fn get_mut(&mut self, handle: SlotHandle) -> &mut P {
        self.slots[handle.0 as usize]
            .as_mut()
            .expect("stale arena handle")
    }
}

/// A compact stand-in for page contents: a 64-bit fingerprint.
///
/// Guests in scenario simulations construct a fingerprint from the page's
/// identity and a per-page version counter, so stale data (a page returned
/// from tmem after the guest overwrote and re-put it) is detected exactly
/// like corruption would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Derive a fingerprint from a page identity and version.
    pub fn of(page_id: u64, version: u64) -> Self {
        // SplitMix64 finalizer: cheap, well-mixed.
        let mut z = page_id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(version);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Fingerprint(z ^ (z >> 31))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_page_sized_and_zero() {
        let p = PageBuf::zeroed();
        assert_eq!(p.as_slice().len(), PAGE_SIZE);
        assert!(p.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "must be 4096 bytes")]
    fn short_page_panics() {
        PageBuf::from_bytes(b"short".to_vec());
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        assert_ne!(
            PageBuf::filled(1).fingerprint(),
            PageBuf::filled(2).fingerprint()
        );
        assert_eq!(
            PageBuf::filled(7).fingerprint(),
            PageBuf::filled(7).fingerprint()
        );
    }

    #[test]
    fn arena_reuses_freed_slots_lifo() {
        let mut a: PageArena<u64> = PageArena::new();
        let h1 = a.alloc(1);
        let h2 = a.alloc(2);
        assert_eq!(a.live(), 2);
        assert_eq!(*a.get(h1), 1);
        assert_eq!(a.free(h1), 1);
        assert_eq!(a.live(), 1);
        // The freed slot is reused before the slab grows.
        let h3 = a.alloc(3);
        assert_eq!(h3, h1);
        assert_eq!(a.slot_count(), 2);
        *a.get_mut(h2) = 20;
        assert_eq!(*a.get(h2), 20);
        assert_eq!(a.free(h2), 20);
        assert_eq!(a.free(h3), 3);
        assert_eq!(a.live(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn arena_double_free_panics() {
        let mut a: PageArena<u64> = PageArena::new();
        let h = a.alloc(7);
        a.free(h);
        a.free(h);
    }

    #[test]
    fn arena_holds_real_pages() {
        let mut a: PageArena<PageBuf> = PageArena::new();
        let h = a.alloc(PageBuf::filled(0xCD));
        assert_eq!(a.get(h).as_slice()[0], 0xCD);
        assert_eq!(a.free(h), PageBuf::filled(0xCD));
    }

    #[test]
    fn fingerprint_of_identity_and_version() {
        let a = Fingerprint::of(10, 0);
        let b = Fingerprint::of(10, 1);
        let c = Fingerprint::of(11, 0);
        assert_ne!(a, b, "version bump must change the fingerprint");
        assert_ne!(a, c, "page identity must change the fingerprint");
        assert_eq!(a, Fingerprint::of(10, 0));
    }
}
