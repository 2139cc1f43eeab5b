//! Error and return codes for tmem operations.

use std::fmt;

/// Hypercall-level return code, mirroring Table I's `S_TMEM` / `E_TMEM`
/// values: "Value used in the hypervisor indicating that a put (or other
/// tmem op.) has succeeded / cannot succeed."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnCode {
    /// The operation succeeded (`S_TMEM`).
    Success,
    /// The operation could not succeed (`E_TMEM`): capacity exhausted or
    /// target exceeded. The guest must fall back to its swap device.
    Failure,
}

impl ReturnCode {
    /// True for `S_TMEM`.
    pub fn is_success(self) -> bool {
        matches!(self, ReturnCode::Success)
    }
}

/// Structured errors from the backend. `ReturnCode` is what crosses the
/// simulated hypercall boundary; `TmemError` is what Rust callers see, with
/// enough detail for tests to assert on causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmemError {
    /// No free page frames in the tmem pool (and, for ephemeral pools,
    /// nothing evictable either).
    NoCapacity,
    /// The referenced pool does not exist (stale id or destroyed pool).
    NoSuchPool,
    /// The referenced page does not exist in the pool.
    NoSuchPage,
    /// The pool id space is exhausted.
    PoolLimit,
    /// The stored page failed its integrity check: its contents no longer
    /// match the checksum recorded at put time. The backend never returns
    /// the corrupt payload — persistent pages stay in place (so retries
    /// deterministically observe the same error until the page is flushed
    /// or scrubbed), ephemeral pages are dropped so the next get is a
    /// clean miss.
    Corrupt,
}

impl fmt::Display for TmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmemError::NoCapacity => write!(f, "no free tmem pages"),
            TmemError::NoSuchPool => write!(f, "no such tmem pool"),
            TmemError::NoSuchPage => write!(f, "no such tmem page"),
            TmemError::PoolLimit => write!(f, "tmem pool id space exhausted"),
            TmemError::Corrupt => write!(f, "tmem page failed integrity check"),
        }
    }
}

impl std::error::Error for TmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn return_code_predicates() {
        assert!(ReturnCode::Success.is_success());
        assert!(!ReturnCode::Failure.is_success());
    }

    #[test]
    fn errors_render_messages() {
        assert_eq!(TmemError::NoCapacity.to_string(), "no free tmem pages");
        assert!(TmemError::NoSuchPool.to_string().contains("pool"));
    }
}
