//! The host-local far-memory tier.
//!
//! A host in the fleet owns, besides its local tmem page frames, a slab of
//! *far memory*: CXL/NVM-class capacity that is slower than a tmem hypercall
//! but far faster than the swap disk (see `CostModel::far_access`). The
//! hypervisor spills persistent puts here when the local backend is full
//! (`NoCapacity`), and serves gets out of it when the local lookup misses —
//! turning what would have been disk round-trips into fabric accesses.
//!
//! Design constraints, in descending order of importance:
//!
//! * **Determinism.** The store is a `BTreeMap` keyed by the full tmem key,
//!   so iteration (purges, exports) is in key order — byte-identical across
//!   runs and job counts. The tier draws no RNG anywhere.
//! * **Exclusivity.** Far pages follow frontswap semantics: a far hit
//!   removes the page (`take`), exactly like a persistent tmem get.
//! * **Simplicity.** The tier sits outside MM targets, slow reclaim, the
//!   scrubber and data-plane fault injection; it is a capacity overflow
//!   valve, not a second policy domain. These simplifications are
//!   documented in `DESIGN.md` §6.

use std::collections::BTreeMap;
use tmem::key::{ObjectId, PageIndex, PoolId, VmId};

/// Configuration of one host's far-memory tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarConfig {
    /// Capacity in pages. Zero disables spilling (the tier exists but never
    /// admits a page).
    pub capacity_pages: u64,
}

/// The far-memory tier: a deterministic overflow store for persistent tmem
/// pages, owned by one host's hypervisor.
#[derive(Debug)]
pub struct FarTier<P> {
    capacity: u64,
    /// Full-key ordered store; `BTreeMap` so every bulk walk (purge,
    /// export) is deterministic.
    pages: BTreeMap<(PoolId, ObjectId, PageIndex), P>,
    /// Pages held per owning VM (occupancy attribution for reports and
    /// replay verification).
    vm_used: BTreeMap<VmId, u64>,
    /// Owning VM per pool, recorded on first store so purges can settle
    /// per-VM accounting without a backend lookup.
    pool_owner: BTreeMap<PoolId, VmId>,
}

impl<P> FarTier<P> {
    /// An empty tier with the given capacity.
    pub fn new(capacity_pages: u64) -> Self {
        FarTier {
            capacity: capacity_pages,
            pages: BTreeMap::new(),
            vm_used: BTreeMap::new(),
            pool_owner: BTreeMap::new(),
        }
    }

    /// Total capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Pages currently stored.
    pub fn used(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Whether one more page fits.
    pub fn has_room(&self) -> bool {
        self.used() < self.capacity
    }

    /// Pages held for `vm`.
    pub fn used_by(&self, vm: VmId) -> u64 {
        self.vm_used.get(&vm).copied().unwrap_or(0)
    }

    /// Store a page. Returns `false` (rejecting the page) when the tier is
    /// full; replaces in place if the key already exists (mirroring the
    /// local backend's replace semantics, though frontswap never does this).
    pub fn store(
        &mut self,
        pool: PoolId,
        owner: VmId,
        object: ObjectId,
        index: PageIndex,
        payload: P,
    ) -> bool {
        let key = (pool, object, index);
        if let std::collections::btree_map::Entry::Occupied(mut e) = self.pages.entry(key) {
            e.insert(payload);
            return true;
        }
        if !self.has_room() {
            return false;
        }
        self.pages.insert(key, payload);
        *self.vm_used.entry(owner).or_insert(0) += 1;
        self.pool_owner.entry(pool).or_insert(owner);
        true
    }

    /// Exclusive lookup: removes and returns the page if present.
    pub fn take(&mut self, pool: PoolId, object: ObjectId, index: PageIndex) -> Option<P> {
        let payload = self.pages.remove(&(pool, object, index))?;
        self.debit_pool(pool, 1);
        Some(payload)
    }

    /// Drop one page if present (guest flush). Returns whether a page was
    /// removed.
    pub fn purge_page(&mut self, pool: PoolId, object: ObjectId, index: PageIndex) -> bool {
        match self.pages.remove(&(pool, object, index)) {
            Some(_) => {
                self.debit_pool(pool, 1);
                true
            }
            None => false,
        }
    }

    /// Drop every page of one object (guest flush-object). Returns pages
    /// removed.
    pub fn purge_object(&mut self, pool: PoolId, object: ObjectId) -> u64 {
        let keys: Vec<_> = self
            .pages
            .range((pool, object, PageIndex::MIN)..=(pool, object, PageIndex::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in &keys {
            self.pages.remove(k);
        }
        let n = keys.len() as u64;
        self.debit_pool(pool, n);
        n
    }

    /// Drop every page of one pool (pool destruction). Returns pages
    /// removed.
    pub fn purge_pool(&mut self, pool: PoolId) -> u64 {
        let keys: Vec<_> = self
            .pages
            .range((pool, ObjectId(0), PageIndex::MIN)..=(pool, ObjectId(u64::MAX), PageIndex::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in &keys {
            self.pages.remove(k);
        }
        let n = keys.len() as u64;
        self.debit_pool(pool, n);
        self.pool_owner.remove(&pool);
        n
    }

    /// Remove and return every page of one pool in key order (VM
    /// migration). Unlike [`FarTier::purge_pool`] the payloads survive, to
    /// be re-imported on the destination host.
    pub fn export_pool(&mut self, pool: PoolId) -> Vec<(ObjectId, PageIndex, P)> {
        let keys: Vec<_> = self
            .pages
            .range((pool, ObjectId(0), PageIndex::MIN)..=(pool, ObjectId(u64::MAX), PageIndex::MAX))
            .map(|(&k, _)| k)
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in &keys {
            let payload = self.pages.remove(k).expect("key came from the map");
            out.push((k.1, k.2, payload));
        }
        self.debit_pool(pool, out.len() as u64);
        self.pool_owner.remove(&pool);
        out
    }

    fn debit_pool(&mut self, pool: PoolId, n: u64) {
        if n == 0 {
            return;
        }
        let owner = *self
            .pool_owner
            .get(&pool)
            .expect("page removed from a pool the tier never stored for");
        let used = self
            .vm_used
            .get_mut(&owner)
            .expect("owner must have a usage entry");
        *used = used.checked_sub(n).expect("far-tier usage underflow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(o: u64, i: u32) -> (ObjectId, PageIndex) {
        (ObjectId(o), i)
    }

    #[test]
    fn store_take_roundtrip_is_exclusive() {
        let mut far: FarTier<u64> = FarTier::new(4);
        let (o, i) = key(1, 0);
        assert!(far.store(PoolId(1), VmId(1), o, i, 42));
        assert_eq!(far.used(), 1);
        assert_eq!(far.used_by(VmId(1)), 1);
        assert_eq!(far.take(PoolId(1), o, i), Some(42));
        assert_eq!(far.take(PoolId(1), o, i), None, "far gets are exclusive");
        assert_eq!(far.used(), 0);
        assert_eq!(far.used_by(VmId(1)), 0);
    }

    #[test]
    fn full_tier_rejects_new_pages() {
        let mut far: FarTier<u64> = FarTier::new(2);
        assert!(far.store(PoolId(1), VmId(1), ObjectId(0), 0, 1));
        assert!(far.store(PoolId(1), VmId(1), ObjectId(0), 1, 2));
        assert!(!far.has_room());
        assert!(!far.store(PoolId(1), VmId(1), ObjectId(0), 2, 3));
        assert_eq!(far.used(), 2);
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut far: FarTier<u64> = FarTier::new(0);
        assert!(!far.has_room());
        assert!(!far.store(PoolId(1), VmId(1), ObjectId(0), 0, 1));
    }

    #[test]
    fn purges_settle_per_vm_accounting() {
        let mut far: FarTier<u64> = FarTier::new(16);
        for i in 0..3 {
            far.store(PoolId(1), VmId(1), ObjectId(0), i, u64::from(i));
            far.store(PoolId(2), VmId(2), ObjectId(0), i, u64::from(i));
        }
        far.store(PoolId(1), VmId(1), ObjectId(7), 0, 99);
        assert!(far.purge_page(PoolId(1), ObjectId(0), 1));
        assert!(!far.purge_page(PoolId(1), ObjectId(0), 1), "already gone");
        assert_eq!(far.used_by(VmId(1)), 3);
        assert_eq!(far.purge_object(PoolId(1), ObjectId(0)), 2);
        assert_eq!(far.used_by(VmId(1)), 1);
        assert_eq!(far.purge_pool(PoolId(2)), 3);
        assert_eq!(far.used_by(VmId(2)), 0);
        assert_eq!(far.used(), 1, "only pool 1 object 7 remains");
    }

    #[test]
    fn export_returns_key_ordered_contents_and_empties_the_pool() {
        let mut far: FarTier<u64> = FarTier::new(16);
        // Insert out of order; export must come back sorted by (object, idx).
        far.store(PoolId(3), VmId(5), ObjectId(2), 1, 21);
        far.store(PoolId(3), VmId(5), ObjectId(0), 9, 9);
        far.store(PoolId(3), VmId(5), ObjectId(2), 0, 20);
        far.store(PoolId(4), VmId(6), ObjectId(0), 0, 77);
        let exported = far.export_pool(PoolId(3));
        let keys: Vec<_> = exported.iter().map(|&(o, i, _)| (o, i)).collect();
        assert_eq!(keys, vec![key(0, 9), key(2, 0), key(2, 1)]);
        assert_eq!(far.used_by(VmId(5)), 0);
        assert_eq!(far.used(), 1, "other pools untouched");
    }
}
