//! Virtual machine descriptors.

use tmem::key::VmId;

/// Static configuration of one VM, as a scenario creates it (Table II's "VM
/// Parameters" column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmConfig {
    /// Hypervisor-assigned identity.
    pub id: VmId,
    /// Human-readable name for reports ("VM1", "VM2", ...).
    pub name: String,
    /// Guest RAM, in bytes (e.g. 1 GiB for Scenario 1, 512 MiB for
    /// Scenario 2).
    pub ram_bytes: u64,
    /// Number of virtual CPUs (always 1 in the paper's scenarios).
    pub vcpus: u32,
}

impl VmConfig {
    /// Convenience constructor used by the scenario builders.
    pub fn new(id: VmId, name: impl Into<String>, ram_bytes: u64, vcpus: u32) -> Self {
        VmConfig {
            id,
            name: name.into(),
            ram_bytes,
            vcpus,
        }
    }

    /// Guest RAM in 4 KiB pages.
    pub fn ram_pages(&self) -> u64 {
        self.ram_bytes / tmem::page::PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_pages_divides_by_page_size() {
        let vm = VmConfig::new(VmId(1), "VM1", 1 << 30, 1);
        assert_eq!(vm.ram_pages(), 262_144);
    }
}
