//! CPU contention model.
//!
//! The paper's testbed exposes two physical cores to Xen while three
//! single-vCPU guests (plus dom0) run. When more vCPUs are runnable than
//! cores exist, Xen's credit scheduler time-slices them, so each guest's
//! compute stretches by roughly `runnable / cores`. That first-order
//! approximation is what this model applies to the compute component of a
//! quantum (I/O wait time is never dilated — a vCPU blocked on the disk
//! holds no core).

/// Proportional-share CPU dilation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuModel {
    /// Physical cores available to guest vCPUs.
    pub cores: u32,
}

impl CpuModel {
    /// A node with `cores` physical cores.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "a node needs at least one core");
        CpuModel { cores }
    }

    /// Dilation factor for compute time when `runnable_vcpus` vCPUs are
    /// runnable: 1.0 while undersubscribed, `runnable / cores` beyond.
    pub fn dilation(&self, runnable_vcpus: u32) -> f64 {
        if runnable_vcpus <= self.cores {
            1.0
        } else {
            f64::from(runnable_vcpus) / f64::from(self.cores)
        }
    }
}

impl Default for CpuModel {
    /// The paper's VirtualBox environment: two processor cores.
    fn default() -> Self {
        CpuModel::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undersubscribed_runs_at_full_speed() {
        let m = CpuModel::new(2);
        assert_eq!(m.dilation(0), 1.0);
        assert_eq!(m.dilation(1), 1.0);
        assert_eq!(m.dilation(2), 1.0);
    }

    #[test]
    fn oversubscription_dilates_proportionally() {
        let m = CpuModel::new(2);
        assert_eq!(m.dilation(3), 1.5);
        assert_eq!(m.dilation(4), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_is_rejected() {
        CpuModel::new(0);
    }

    #[test]
    fn default_matches_paper_testbed() {
        assert_eq!(CpuModel::default().cores, 2);
    }
}
