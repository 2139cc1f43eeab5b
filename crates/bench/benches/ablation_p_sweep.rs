//! Ablation: smart-alloc's `P` parameter swept across Scenario 1 and
//! Scenario 2 — the paper finds different optima (0.75% vs 6%), and this
//! harness shows the whole curve.

use scenarios::figures::{completion_bars, running_time_groups};
use scenarios::spec::ScenarioKind;
use smartmem_core::PolicyKind;

fn main() {
    let cfg = smartmem_bench::bench_config();
    let reps = smartmem_bench::bench_reps();
    smartmem_bench::banner("ablation-P", "smart-alloc P sweep (mean over all VM runs)");
    let ps = [0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 6.0, 10.0];
    for kind in [ScenarioKind::Scenario1, ScenarioKind::Scenario2] {
        println!("--- {} ---", kind.name());
        let policies: Vec<PolicyKind> = ps.iter().map(|&p| PolicyKind::SmartAlloc { p }).collect();
        let groups = running_time_groups(kind, &policies, &cfg, reps, completion_bars);
        for g in &groups {
            let mean: f64 =
                g.bars.iter().map(|b| b.mean_s).sum::<f64>() / g.bars.len().max(1) as f64;
            println!("{:<20} mean {mean:>8.2}s", g.policy);
        }
    }
}
