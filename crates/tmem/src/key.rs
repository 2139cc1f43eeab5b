//! Identifiers: VMs, pools and the three-element tmem page key.
//!
//! Per the paper (§II-B): "Every tmem page is identified by a three-element
//! tuple (its key), consisting of the pool identifier, a 64-bit object
//! identifier and a 32-bit offset or page identifier."

use std::fmt;

/// A virtual machine identifier, as assigned by the hypervisor
/// (`vm_data_hyp[id].vm_id` in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VM{}", self.0)
    }
}

/// A tmem pool identifier. Pools are created per guest kernel module
/// initialization and owned by exactly one VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool{}", self.0)
    }
}

/// The 64-bit object identifier, extracted by the guest kernel from the
/// address of the page (frontswap: swap type; cleancache: inode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// The 32-bit page index within an object (frontswap: swap offset;
/// cleancache: page offset in file).
pub type PageIndex = u32;

/// The full three-element tmem key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TmemKey {
    /// Pool the page belongs to (implies the owning VM).
    pub pool: PoolId,
    /// Object identifier within the pool.
    pub object: ObjectId,
    /// Page index within the object.
    pub index: PageIndex,
}

impl TmemKey {
    /// Build a key from its three components.
    pub fn new(pool: PoolId, object: ObjectId, index: PageIndex) -> Self {
        TmemKey {
            pool,
            object,
            index,
        }
    }
}

impl fmt::Display for TmemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/obj{:x}/{}", self.pool, self.object.0, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_are_value_types() {
        let a = TmemKey::new(PoolId(1), ObjectId(0xdead), 7);
        let b = TmemKey::new(PoolId(1), ObjectId(0xdead), 7);
        let c = TmemKey::new(PoolId(1), ObjectId(0xdead), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn display_formats_are_readable() {
        let k = TmemKey::new(PoolId(2), ObjectId(255), 3);
        assert_eq!(k.to_string(), "pool2/objff/3");
        assert_eq!(VmId(1).to_string(), "VM1");
    }
}
