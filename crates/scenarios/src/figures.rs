//! Per-figure experiment harnesses.
//!
//! [`FIGURES`] defines the paper's Figs. 3–10 (§V) as data — scenario,
//! policies and fold — and [`produce`] runs any of them. Running-time
//! figures (3, 5, 9) repeat each scenario × policy `reps` times (the paper
//! uses five) and report mean ± standard deviation per VM per run; the
//! usemem figure (7) reports per-allocation spans; occupancy figures (4, 6,
//! 8, 10) record per-interval tmem usage and target series for the paper's
//! chosen policies.
//!
//! All (policy × rep) grids run through [`crate::batch::run_cells`] with
//! `RunConfig::jobs` workers: each cell is an independent simulation, bar
//! rep `N` seeded `derive(seed, "repN")` and series panels at the root
//! seed, results come back in grid order, and the folding below consumes
//! them in exactly the order the serial loops would — so output is
//! byte-identical at any job count.

use crate::batch::{run_cells, Cell};
use crate::config::RunConfig;
use crate::dsl::expand_cells;
use crate::runner::{ClusterConfig, RunResult, SeriesBundle, VmResult};
use crate::spec::{build_scenario, usemem_alloc_label, ProgramStep, ScenarioKind, WorkloadSpec};
use sim_core::metrics::Summary;
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;
use smartmem_core::PolicyKind;

/// One bar of a running-time figure: a (VM, run) cell under one policy.
#[derive(Debug, Clone)]
pub struct BarStat {
    /// Bar label, e.g. "VM1/run1" or "VM2@160MB".
    pub label: String,
    /// Mean running time over repetitions, seconds.
    pub mean_s: f64,
    /// Sample standard deviation, seconds.
    pub std_s: f64,
    /// Repetitions that produced this bar.
    pub n: u64,
}

/// All bars for one policy.
#[derive(Debug, Clone)]
pub struct BarGroup {
    /// Policy display name.
    pub policy: String,
    /// Bars in VM/run order.
    pub bars: Vec<BarStat>,
}

/// A complete running-time figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Paper figure id ("fig3", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// One group per policy.
    pub groups: Vec<BarGroup>,
}

/// A recorded occupancy run for one policy (Figs. 4, 6, 8, 10).
#[derive(Debug)]
pub struct SeriesFigure {
    /// Paper figure id.
    pub id: String,
    /// Human title.
    pub title: String,
    /// `(policy name, series)` panels, in paper order.
    pub panels: Vec<(String, SeriesBundle)>,
    /// VM names, for labelling columns.
    pub vm_names: Vec<String>,
}

/// How a figure folds its runs into plotted data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Running-time bars: one per (VM, completed run), over `reps`
    /// repetitions.
    RunBars,
    /// Usemem running-time bars: one per allocation, the span from each
    /// `alloc:<MiB>` milestone to the matching `block:<MiB>` completion.
    UsememSpans,
    /// Per-interval tmem occupancy and target series, one panel per policy.
    Series,
}

/// One figure of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct FigureDef {
    /// Paper figure id ("fig3", ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The Table II scenario the figure runs.
    pub scenario: ScenarioKind,
    /// Policies in paper order; `None` runs the scenario's paper set
    /// (baselines plus its smart-alloc `P` sweep).
    pub policies: Option<&'static [PolicyKind]>,
    /// How runs become plotted data.
    pub fold: Fold,
}

impl FigureDef {
    /// The policies this figure runs, in paper order.
    pub fn policies(&self) -> Vec<PolicyKind> {
        self.policies.map_or_else(
            || PolicyKind::paper_set(self.scenario.paper_smart_ps()),
            <[PolicyKind]>::to_vec,
        )
    }
}

/// Figs. 3–10, in paper order.
pub const FIGURES: &[FigureDef] = &[
    FigureDef {
        id: "fig3",
        title: "Running times for Scenario 1 (3×1GB VMs, in-memory-analytics ×2)",
        scenario: ScenarioKind::Scenario1,
        policies: None,
        fold: Fold::RunBars,
    },
    FigureDef {
        id: "fig4",
        title: "Tmem capacity per VM, Scenario 1: (a) greedy (b) smart-alloc P=0.75%",
        scenario: ScenarioKind::Scenario1,
        policies: Some(&[PolicyKind::Greedy, PolicyKind::SmartAlloc { p: 0.75 }]),
        fold: Fold::Series,
    },
    FigureDef {
        id: "fig5",
        title: "Running times for Scenario 2 (3×512MB VMs, graph-analytics, VM3 +30s)",
        scenario: ScenarioKind::Scenario2,
        policies: None,
        fold: Fold::RunBars,
    },
    FigureDef {
        id: "fig6",
        title: "Tmem use per VM, Scenario 2: (a) greedy (b) smart-alloc P=6%",
        scenario: ScenarioKind::Scenario2,
        policies: Some(&[PolicyKind::Greedy, PolicyKind::SmartAlloc { p: 6.0 }]),
        fold: Fold::Series,
    },
    FigureDef {
        id: "fig7",
        title: "Running times for the Usemem scenario (per allocation, MiB scaled)",
        scenario: ScenarioKind::UsememScenario,
        policies: None,
        fold: Fold::UsememSpans,
    },
    FigureDef {
        id: "fig8",
        title: "Tmem use per VM, usemem: (a) greedy (b) reconf-static (c) smart-alloc P=2%",
        scenario: ScenarioKind::UsememScenario,
        policies: Some(&[
            PolicyKind::Greedy,
            PolicyKind::ReconfStatic,
            PolicyKind::SmartAlloc { p: 2.0 },
        ]),
        fold: Fold::Series,
    },
    FigureDef {
        id: "fig9",
        title: "Running times for Scenario 3 (graph-analytics ×2 + in-memory-analytics)",
        scenario: ScenarioKind::Scenario3,
        policies: None,
        fold: Fold::RunBars,
    },
    FigureDef {
        id: "fig10",
        title:
            "Tmem use per VM, Scenario 3: (a) greedy (b) static (c) reconf-static (d) smart-alloc P=4%",
        scenario: ScenarioKind::Scenario3,
        policies: Some(&[
            PolicyKind::Greedy,
            PolicyKind::StaticAlloc,
            PolicyKind::ReconfStatic,
            PolicyKind::SmartAlloc { p: 4.0 },
        ]),
        fold: Fold::Series,
    },
];

/// The figure with paper id `id` ("fig3", ...), if the paper has one.
pub fn find(id: &str) -> Option<&'static FigureDef> {
    FIGURES.iter().find(|d| d.id == id)
}

/// A produced figure: running-time bars or occupancy series.
#[derive(Debug)]
pub enum Figure {
    /// Figs. 3, 5, 7, 9.
    Bars(FigureData),
    /// Figs. 4, 6, 8, 10.
    Series(SeriesFigure),
}

/// Produce one figure. Bar folds repeat each (policy, rep) cell `reps`
/// times; series folds run each policy once (`reps` is unused).
pub fn produce(def: &FigureDef, cfg: &RunConfig, reps: u64) -> Figure {
    let policies = def.policies();
    let groups = match def.fold {
        Fold::RunBars => running_time_groups(def.scenario, &policies, cfg, reps, completion_bars),
        Fold::UsememSpans => {
            running_time_groups(def.scenario, &policies, cfg, reps, usemem_span_bars(cfg))
        }
        Fold::Series => {
            let series_cfg = RunConfig {
                record_series: true,
                ..cfg.clone()
            };
            let runs = run_grid(def.scenario, &policies, 1, cfg, |_| series_cfg.clone());
            return Figure::Series(SeriesFigure {
                id: def.id.into(),
                title: def.title.into(),
                vm_names: runs[0].vm_results.iter().map(|v| v.name.clone()).collect(),
                panels: runs
                    .into_iter()
                    .map(|r| (r.policy, r.series.expect("series recording requested")))
                    .collect(),
            });
        }
    };
    Figure::Bars(FigureData {
        id: def.id.into(),
        title: def.title.into(),
        groups,
    })
}

/// One bar per completed run: `("VM1/run1", duration)`, ...
pub fn completion_bars(vm: &VmResult) -> Vec<(String, SimDuration)> {
    vm.completions()
        .into_iter()
        .enumerate()
        .map(|(run_idx, d)| (format!("{}/run{}", vm.name, run_idx + 1), d))
        .collect()
}

/// One bar per usemem allocation that completed its block: `("VM1@4", span)`.
fn usemem_span_bars(cfg: &RunConfig) -> impl Fn(&VmResult) -> Vec<(String, SimDuration)> {
    // Block sizes present in the scaled config: up to the stop trigger (the
    // 6th allocation), block 5 (640 MB full-scale) is the last completable.
    let ucfg = workloads::usemem::UsememConfig::paper(cfg.scale);
    let blocks: Vec<(String, String)> = (1..=5)
        .map(|k| {
            let alloc = usemem_alloc_label(&ucfg, k);
            let block = alloc.replacen("alloc", "block", 1);
            (alloc, block)
        })
        .collect();
    move |vm| {
        blocks
            .iter()
            .filter_map(|(alloc, block)| {
                let span = vm.span_between(alloc, block)?;
                Some((
                    format!("{}@{}", vm.name, alloc.replacen("alloc:", "", 1)),
                    span,
                ))
            })
            .collect()
    }
}

/// Run `scenario × policy` `reps` times and fold the bars `extract` reads
/// off each VM (e.g. [`completion_bars`]) into per-label mean ± std, in
/// first-seen label order.
pub fn running_time_groups(
    kind: ScenarioKind,
    policies: &[PolicyKind],
    cfg: &RunConfig,
    reps: u64,
    extract: impl Fn(&VmResult) -> Vec<(String, SimDuration)>,
) -> Vec<BarGroup> {
    assert!(reps > 0);
    let reps_u32 = u32::try_from(reps).expect("repetition count fits in u32");
    let results = run_grid(kind, policies, reps_u32, cfg, |rep| RunConfig {
        seed: SplitMix64::new(cfg.seed)
            .derive(&format!("rep{rep}"))
            .next(),
        ..cfg.clone()
    });
    policies
        .iter()
        .zip(results.chunks(reps as usize))
        .map(|(&policy, runs)| {
            // label -> summary, insertion-ordered via Vec.
            let mut labels: Vec<String> = Vec::new();
            let mut sums: Vec<Summary> = Vec::new();
            for (label, d) in runs.iter().flat_map(|r| &r.vm_results).flat_map(&extract) {
                let i = match labels.iter().position(|l| *l == label) {
                    Some(i) => i,
                    None => {
                        labels.push(label);
                        sums.push(Summary::new());
                        labels.len() - 1
                    }
                };
                sums[i].record(d.as_secs_f64());
            }
            BarGroup {
                policy: policy.to_string(),
                bars: labels
                    .into_iter()
                    .zip(sums)
                    .map(|(label, s)| BarStat {
                        label,
                        mean_s: s.mean(),
                        std_s: s.stddev(),
                        n: s.count(),
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Run `kind` under every policy `reps` times on one host, rep `N` with
/// `cfg_of(N)`. Every cell runs in parallel when `cfg.jobs > 1`; results
/// come back policy-major, rep-minor — the serial loop order.
fn run_grid(
    kind: ScenarioKind,
    policies: &[PolicyKind],
    reps: u32,
    cfg: &RunConfig,
    cfg_of: impl Fn(u32) -> RunConfig,
) -> Vec<RunResult> {
    let spec = build_scenario(kind, cfg);
    let cells = expand_cells(1, policies.len(), 1, reps)
        .into_iter()
        .map(|id| Cell {
            spec: spec.clone(),
            policy: policies[id.policy],
            cfg: cfg_of(id.rep),
            cluster: ClusterConfig::default(),
        })
        .collect();
    run_cells(cells, cfg.jobs, |_, c| {
        let r = c.into_single();
        assert!(!r.truncated, "{kind:?}/{} hit the safety cutoff", r.policy);
        r
    })
}

/// Table II as structured rows (scenario, VM parameters, program).
pub fn table2_rows(cfg: &RunConfig) -> Vec<(String, Vec<String>)> {
    ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let spec = build_scenario(kind, cfg);
            let rows = spec
                .vms
                .iter()
                .map(|vm| {
                    let prog: Vec<String> = vm
                        .program
                        .iter()
                        .map(|p| match p {
                            ProgramStep::Run(WorkloadSpec::Usemem(_)) => "usemem".to_string(),
                            ProgramStep::Run(WorkloadSpec::InMem(c)) => {
                                format!("in-memory-analytics ({} MiB)", c.footprint_bytes() >> 20)
                            }
                            ProgramStep::Run(WorkloadSpec::Graph(c)) => {
                                format!("graph-analytics ({} MiB)", c.footprint_bytes() >> 20)
                            }
                            ProgramStep::Run(WorkloadSpec::FileServer(c)) => {
                                format!("fileserver ({} MiB)", c.footprint_bytes() >> 20)
                            }
                            ProgramStep::Sleep(d) => format!("sleep {d}"),
                        })
                        .collect();
                    format!(
                        "{}: {} MiB RAM, {} vCPU — {}",
                        vm.config.name,
                        vm.config.ram_bytes >> 20,
                        vm.config.vcpus,
                        prog.join(", ")
                    )
                })
                .collect();
            (
                format!("{} (tmem {} MiB)", spec.name, spec.tmem_bytes >> 20),
                rows,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.01,
            seed: 11,
            ..RunConfig::default()
        }
    }

    #[test]
    fn running_time_groups_have_consistent_shape() {
        let groups = running_time_groups(
            ScenarioKind::Scenario2,
            &[PolicyKind::Greedy, PolicyKind::NoTmem],
            &tiny(),
            2,
            completion_bars,
        );
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.bars.len(), 3, "one bar per VM single run: {g:?}");
            for b in &g.bars {
                assert_eq!(b.n, 2, "two repetitions folded");
                assert!(b.mean_s > 0.0);
            }
        }
    }

    #[test]
    fn fig4_produces_two_panels_with_series() {
        let Figure::Series(f) = produce(find("fig4").unwrap(), &tiny(), 1) else {
            panic!("fig4 is an occupancy figure");
        };
        assert_eq!(f.panels.len(), 2);
        assert_eq!(f.vm_names, vec!["VM1", "VM2", "VM3"]);
        for (_, bundle) in &f.panels {
            assert_eq!(bundle.used.len(), 3);
            assert!(bundle.used[0].len() > 1);
        }
    }

    #[test]
    fn figure_table_covers_figs_3_to_10_in_order() {
        let ids: Vec<&str> = FIGURES.iter().map(|d| d.id).collect();
        assert_eq!(
            ids,
            ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]
        );
        assert!(find("fig2").is_none());
        let fig5 = find("fig5").unwrap();
        assert_eq!(fig5.fold, Fold::RunBars);
        assert_eq!(
            fig5.policies(),
            PolicyKind::paper_set(ScenarioKind::Scenario2.paper_smart_ps())
        );
    }

    #[test]
    fn table2_lists_all_four_scenarios() {
        let rows = table2_rows(&tiny());
        assert_eq!(rows.len(), 4);
        assert!(rows[0].0.starts_with("scenario1"));
        assert_eq!(rows[0].1.len(), 3);
    }
}
