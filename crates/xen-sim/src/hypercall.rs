//! Hypercall vocabulary.
//!
//! Guests reach tmem exclusively through hypercalls (paper Fig. 1). The
//! simulator dispatches these as direct method calls on
//! [`crate::Hypervisor`], but the *kinds* are materialized as types so that
//! the cost model can price them and tests can assert on issued traffic.

use tmem::key::{ObjectId, PageIndex, PoolId};

/// The tmem operation kinds of the guest-facing interface, plus the two
/// custom SmarTmem control operations (§III-C: "a series of custom-made
/// hypercalls were also developed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypercallKind {
    /// `tmem_put`: copy one page from guest memory into tmem.
    Put,
    /// `tmem_get`: copy one page from tmem into guest memory.
    Get,
    /// `tmem_flush_page`: invalidate one page.
    FlushPage,
    /// `tmem_flush_object`: invalidate all pages of an object.
    FlushObject,
    /// `tmem_new_pool`: register a pool for the calling VM.
    NewPool,
    /// `tmem_destroy_pool`: drop a pool and all its pages.
    DestroyPool,
    /// SmarTmem control: the privileged domain fetches the latest
    /// statistics snapshot (paired with the VIRQ).
    FetchStats,
    /// SmarTmem control: the privileged domain installs new per-VM targets.
    SetTargets,
}

impl HypercallKind {
    /// Whether the hypercall copies a page of data (prices differently in
    /// the cost model).
    pub fn copies_page(self) -> bool {
        matches!(self, HypercallKind::Put | HypercallKind::Get)
    }
}

/// A fully-addressed tmem data operation (used in traces and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmemOp {
    /// Operation kind (only the data-path kinds appear in traces).
    pub kind: HypercallKind,
    /// Target pool.
    pub pool: PoolId,
    /// Target object.
    pub object: ObjectId,
    /// Target page index.
    pub index: PageIndex,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_data_movers_copy_pages() {
        assert!(HypercallKind::Put.copies_page());
        assert!(HypercallKind::Get.copies_page());
        assert!(!HypercallKind::FlushPage.copies_page());
        assert!(!HypercallKind::SetTargets.copies_page());
    }
}
