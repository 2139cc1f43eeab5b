//! Peak-RSS guard for the balanced fleet mix. Its in-memory-analytics and
//! graph-analytics VMs carry real datasets (ratings, CSR arrays) that feed
//! their results, so this cell measures what a dataset costs the host: a
//! second host copy of any dataset, or wider guest page tables, lands above
//! the budget. The guard lives in its own test file, so it gets its own
//! process and its own `VmHWM`.

use scenarios::config::RunConfig;
use scenarios::dsl::resolve_scenario;
use scenarios::PolicyKind;
use smartmem_bench::measure::peak_rss_kb;
use std::path::Path;

/// `run fleet:16:32 smart-alloc:2 --seed 42` peaks at 45 MiB in this test
/// process (debug profile, as `cargo test`; 2-core x86-64 Linux host) with
/// each dataset held once and 16-byte page metadata. A second host copy of
/// each dataset plus the 24-byte layout put it at 67 MiB. The budget sits
/// midway.
const HOST_BUDGET_KIB: u64 = 56 * 1024;

#[test]
#[ignore = "peak-RSS budget of a 16-VM balanced cell (~10 s in debug); CI runs the slow suite via --ignored"]
fn fleet_16vm_balanced_mix_stays_under_host_budget() {
    let cfg = RunConfig {
        seed: 42,
        ..RunConfig::default()
    };
    let doc = resolve_scenario("fleet:16:32", &cfg, Path::new("")).expect("fleet spelling");
    let result = doc.cell(PolicyKind::SmartAlloc { p: 2.0 }, cfg).run();
    assert!(
        result.host_results[0].events > 0,
        "cell must actually have run"
    );
    let Some(peak) = peak_rss_kb() else {
        eprintln!("skipping: no VmHWM in /proc/self/status on this platform");
        return;
    };
    eprintln!("peak RSS {} MiB", peak / 1024);
    assert!(
        peak < HOST_BUDGET_KIB,
        "peak RSS {} MiB breaches the {} MiB budget of the 16-VM balanced \
         cell: is a workload dataset held twice on the host?",
        peak / 1024,
        HOST_BUDGET_KIB / 1024,
    );
}
