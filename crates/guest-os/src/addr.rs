//! Guest virtual addresses at page granularity.

use std::fmt;
use std::ops::Range;

/// A guest virtual page number. The guest model works entirely at page
/// granularity: byte offsets exist only inside [`crate::paged::PagedVec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtPage(pub u64);

impl VirtPage {
    /// The page `n` pages after this one.
    pub fn offset(self, n: u64) -> VirtPage {
        VirtPage(self.0 + n)
    }

    /// Half-open page range `[self, self + len)`.
    pub fn range(self, len: u64) -> Range<u64> {
        self.0..self.0 + len
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vp{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_and_range() {
        let p = VirtPage(10);
        assert_eq!(p.offset(5), VirtPage(15));
        assert_eq!(p.range(3), 10..13);
        assert_eq!(p.to_string(), "vp0xa");
    }
}
