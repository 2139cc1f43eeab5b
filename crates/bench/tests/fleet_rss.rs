//! Peak-RSS guard for the fleet family: host memory must stay sub-linear
//! in the *simulated* footprint. The data-oblivious payload design
//! (8-byte fingerprints instead of 4 KiB page bodies) is what makes a
//! 64-VM × 32 GiB-footprint cell runnable on a workstation at all; this
//! test pins that property with a hard budget so a payload or accounting
//! regression cannot silently reintroduce O(footprint) host memory.

use scenarios::config::RunConfig;
use scenarios::runner::run_scenario;
use scenarios::spec::{Arrival, FleetParams, ScenarioKind, WorkloadMix};
use scenarios::PolicyKind;
use sim_core::time::SimDuration;
use smartmem_bench::measure::{measure, peak_rss_kb};

/// `MemAvailable` from `/proc/meminfo`, in KiB.
fn mem_available_kb() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// 64 VMs × 512 MiB = 32 GiB of simulated footprint must fit in 1 GiB of
/// host memory (measured: ~0.45 GiB for the paging mix with 16-byte page
/// metadata and 8-byte frames, ~0.57 GiB with the wider 24/16-byte
/// layout; the budget leaves slack for allocator and platform variance,
/// while any O(footprint) regression — storing page bodies, cloning
/// per-page state — lands far above it).
const HOST_BUDGET_KIB: u64 = 1024 * 1024;

#[test]
#[ignore = "64-VM x 32 GiB cell (~2 min in debug, needs ~2 GiB host headroom); CI runs the slow suite via --ignored"]
fn fleet_64vm_32gib_footprint_stays_under_host_budget() {
    // Early skip on small hosts (e.g. a laptop running the slow suite):
    // the point is the budget assertion, not an OOM kill.
    match mem_available_kb() {
        Some(avail) if avail >= 2 * 1024 * 1024 => {}
        Some(avail) => {
            eprintln!(
                "skipping: only {} MiB available, need ~2 GiB headroom to \
                 measure the budget safely",
                avail / 1024
            );
            return;
        }
        None => {
            eprintln!("skipping: /proc/meminfo unavailable on this platform");
            return;
        }
    }

    // The paging mix keeps every simulated byte data-oblivious (usemem
    // blocks are pure page-index state; no workload materializes
    // footprint-sized host data the way in-memory-analytics' rating table
    // does), so host RSS measures the simulator, not the workload corpus.
    let params = FleetParams {
        vms: 64,
        footprint_mb: 512,
        mix: WorkloadMix::Paging,
        arrival: Arrival::Staggered { gap_ms: 250 },
    };
    // Peak RSS is reached once every VM's block is resident; truncating
    // the tail of the run bounds test time without moving the peak.
    let cfg = RunConfig {
        seed: 42,
        max_sim_time: SimDuration::from_secs(1800),
        ..RunConfig::default()
    };
    let m = measure(|| run_scenario(ScenarioKind::Scenario5(params), PolicyKind::Greedy, &cfg));
    let peak = peak_rss_kb().expect("Linux host (meminfo was readable above)");
    let simulated_kib = 64u64 * 512 * 1024;
    eprintln!("peak RSS {} MiB", peak / 1024);
    assert!(
        m.value.events > 0,
        "cell must actually have run: {:?}",
        m.value.events
    );
    assert!(
        peak < HOST_BUDGET_KIB,
        "peak RSS {} MiB breaches the {} MiB budget for {} MiB of simulated \
         footprint — host memory is no longer sub-linear in simulated bytes",
        peak / 1024,
        HOST_BUDGET_KIB / 1024,
        simulated_kib / 1024,
    );
    assert!(
        peak < simulated_kib / 4,
        "peak RSS {} MiB is not sub-linear in the {} MiB simulated footprint",
        peak / 1024,
        simulated_kib / 1024,
    );
}
