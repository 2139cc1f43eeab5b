//! The three benchmark workloads, their cells, and one cell's execution.
//!
//! A cell is one `(scenario, policy, chaos)` simulation. Every cell draws
//! its `RunConfig::seed` from a pinned pool of [`POOL`] seeds; the
//! benchmark's `--seed` picks which pool entry each cell of a pass uses.
//! That keeps every output checkable against a digest pinned when the
//! benchmark was created, whatever seed a run is given.

use scenarios::batch::{fnv1a, result_digest};
use scenarios::chaos::shipped_profiles;
use scenarios::config::RunConfig;
use scenarios::runner::{run_cluster, ClusterConfig, ClusterResult};
use scenarios::spec::{build_scenario, ProgramStep, ScenarioKind, ScenarioSpec};
use scenarios::{dsl, report, trace_check, PolicyKind};
use sim_core::faults::FaultProfile;
use sim_core::rng::SplitMix64;
use sim_core::trace::{Payload, PutResult, TraceConfig, TraceHeader};
use smartmem_core::FleetConfig;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use xen_sim::host::FarConfig;

/// Held while a traced cell verifies and serializes its trace: one JSONL
/// buffer at a time keeps the workload's peak memory from depending on how
/// the cells' phases happen to line up.
static SERIALIZER: Mutex<()> = Mutex::new(());

/// Seeds pinned per cell.
pub const POOL: u64 = 16;

/// Memory scale of the paper-grid cells (1.0 = the paper's sizes).
pub const PAPER_SCALE: f64 = 0.01;

/// Copies of the fleet-balanced cell per pass, one per worker on a 2-core
/// host. Copies share their seed, so every cell of the workload is alike.
const FLEET_INSTANCES: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II scenarios x the paper policy set, at reduced scale.
    PaperGrid,
    /// Copies of one single-host fleet cell, balanced mix, untraced.
    FleetBalanced,
    /// Traced fleet and cluster cells, each replay-verified.
    ClusterVerified,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::FleetBalanced,
        Workload::ClusterVerified,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::FleetBalanced => "fleet-balanced",
            Workload::ClusterVerified => "cluster-verified",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The cells of one pass, in dispatch order.
    pub fn cells(self) -> Vec<CellDef> {
        match self {
            // Longest cells first, so a pass ends on the short usemem cells
            // and its wall time does not hinge on how the last big cells
            // happen to pack onto the workers.
            Workload::PaperGrid => [
                ScenarioKind::Scenario1,
                ScenarioKind::Scenario2,
                ScenarioKind::Scenario3,
                ScenarioKind::UsememScenario,
            ]
            .iter()
            .flat_map(|kind| {
                PolicyKind::paper_set(kind.paper_smart_ps())
                    .into_iter()
                    .map(move |p| CellDef::paper(kind.name(), dsl_policy(p)))
            })
            .collect(),
            Workload::FleetBalanced => {
                vec![CellDef::fleet("fleet:16:32", false); FLEET_INSTANCES]
            }
            Workload::ClusterVerified => vec![
                // Past the recorder's ring capacity (about 1.22 M events into
                // 2^20 slots): replay is unavailable until the ring stops
                // dropping events. Counted as a failed verification, never
                // resized away.
                CellDef::fleet("fleet:8:192:paging", true),
                // Greedy targets never bind, so puts reach the capacity of a
                // small node pool and spill into the far tier; the fleet
                // scheduler migrates VMs between the two hosts.
                CellDef {
                    policy: "greedy".into(),
                    chaos: Some("bitrot"),
                    far: true,
                    tmem_pages: Some(4096),
                    ..CellDef::fleet("fleet:2x16:32", true)
                },
            ],
        }
    }
}

/// The DSL spelling of a policy (`smart-alloc:<P>`, not the display form).
fn dsl_policy(p: PolicyKind) -> String {
    match p {
        PolicyKind::SmartAlloc { p } => format!("smart-alloc:{p}"),
        other => other.to_string(),
    }
}

/// A cell as written: DSL vocabulary plus the benchmark's own options.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDef {
    /// `scenarios::dsl` scenario spelling (`scenario1`, `fleet:2x16:32`).
    pub scenario: String,
    /// `scenarios::dsl` policy spelling.
    pub policy: String,
    /// Shipped chaos profile, if any.
    pub chaos: Option<&'static str>,
    /// Per-host far tier sized to a quarter of the host's tmem shard.
    pub far: bool,
    /// Node tmem capacity in pages, replacing the scenario's own.
    pub tmem_pages: Option<u64>,
    /// Flight recorder on, replay verification and JSONL serialization.
    pub traced: bool,
    /// Memory scale; fleet cells carry their size in the name.
    pub scale: f64,
}

impl CellDef {
    fn paper(scenario: String, policy: String) -> Self {
        CellDef {
            scenario,
            policy,
            chaos: None,
            far: false,
            tmem_pages: None,
            traced: false,
            scale: PAPER_SCALE,
        }
    }

    fn fleet(scenario: &str, traced: bool) -> Self {
        CellDef {
            scenario: scenario.to_string(),
            policy: "smart-alloc:2".to_string(),
            chaos: None,
            far: false,
            tmem_pages: None,
            traced,
            scale: RunConfig::default().scale,
        }
    }

    /// Pin key of the cell (copies of one cell share it).
    pub fn label(&self) -> String {
        let mut s = format!("{} {}", self.scenario, self.policy);
        if let Some(c) = self.chaos {
            s.push_str(&format!(" chaos={c}"));
        }
        if self.far {
            s.push_str(" far");
        }
        if let Some(p) = self.tmem_pages {
            s.push_str(&format!(" tmem={p}p"));
        }
        s
    }

    /// The pool entry this cell uses under benchmark seed `seed`.
    pub fn pool_index(&self, seed: u64) -> u64 {
        SplitMix64::new(seed).derive(&self.label()).next() % POOL
    }
}

/// The simulator seed of pool entry `idx` of cell `label`.
pub fn pool_seed(label: &str, idx: u64) -> u64 {
    SplitMix64::new(0x5EED_0000 + idx).derive(label).next()
}

/// A cell resolved into the simulator's inputs.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Pin key.
    pub label: String,
    /// Pool entry in use.
    pub pool_idx: u64,
    /// Whether the flight recorder runs.
    pub traced: bool,
    /// The scenario.
    pub spec: ScenarioSpec,
    /// The policy.
    pub policy: PolicyKind,
    /// Untraced run configuration.
    pub cfg: RunConfig,
    /// Cluster topology.
    pub cluster: ClusterConfig,
}

impl Prepared {
    /// Simulated guest RAM pages of the cell.
    pub fn sim_pages(&self) -> u64 {
        self.spec.vms.iter().map(|v| v.config.ram_pages()).sum()
    }
}

/// Resolve `def` at pool entry `pool_idx` through the DSL vocabulary and
/// validate everything the runner would otherwise assert on.
pub fn prepare(def: &CellDef, pool_idx: u64, jobs: usize) -> Result<Prepared, String> {
    let label = def.label();
    let (kind, hosts) = dsl::parse_kind_cluster(&def.scenario)?;
    let policy = dsl::parse_policy(&def.policy)?;
    let faults = match def.chaos {
        None => FaultProfile::none(),
        Some(name) => {
            shipped_profiles()
                .into_iter()
                .find(|p| p.name == name)
                .ok_or_else(|| format!("no shipped chaos profile '{name}'"))?
                .profile
        }
    };
    let cfg = RunConfig {
        scale: def.scale,
        seed: pool_seed(&label, pool_idx),
        jobs,
        faults,
        ..RunConfig::default()
    };
    cfg.validate()?;
    let mut spec = build_scenario(kind, &cfg);
    if hosts > 1 {
        spec.name = dsl::cluster_scenario_name(&spec.name, hosts);
    }
    if let Some(pages) = def.tmem_pages {
        spec.tmem_bytes = pages * 4096;
    }
    spec.validate()?;
    let far = def.far.then(|| FarConfig {
        capacity_pages: (spec.tmem_pages() / hosts as u64 / 4).max(1),
    });
    let cluster = ClusterConfig {
        hosts,
        far,
        migration: (hosts > 1).then(FleetConfig::default),
        ..ClusterConfig::default()
    };
    Ok(Prepared {
        label,
        pool_idx,
        traced: def.traced,
        spec,
        policy,
        cfg,
        cluster,
    })
}

/// Build every VM's workloads once, as the runner will, and return the
/// number built. Warms the allocator and the dataset generators.
pub fn warm_workloads(p: &Prepared) -> u64 {
    let mut built = 0;
    for (i, vm) in p.spec.vms.iter().enumerate() {
        for step in &vm.program {
            if let ProgramStep::Run(ws) = step {
                let w = ws.build(p.cfg.seed ^ i as u64);
                std::hint::black_box(w.name());
                built += 1;
            }
        }
    }
    built
}

/// Replay verdict of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verdict {
    /// Recorder off.
    #[default]
    Untraced,
    /// Every replay check passed.
    Pass,
    /// The ring dropped events, so the trace cannot be replayed.
    Unavailable,
    /// Replay disagreed with the live accounting.
    Fail,
}

impl Verdict {
    /// Pin-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Untraced => "untraced",
            Verdict::Pass => "pass",
            Verdict::Unavailable => "unavailable",
            Verdict::Fail => "fail",
        }
    }

    /// Parse the pin-file spelling.
    pub fn parse(s: &str) -> Option<Verdict> {
        [
            Verdict::Untraced,
            Verdict::Pass,
            Verdict::Unavailable,
            Verdict::Fail,
        ]
        .into_iter()
        .find(|v| v.as_str() == s)
    }
}

/// What one executed cell leaves behind once its result is dropped.
#[derive(Debug, Clone, Default)]
pub struct CellOutcome {
    /// Pin key.
    pub label: String,
    /// Pool entry used.
    pub pool_idx: u64,
    /// Host seconds for the whole cell (run, checks, serialization,
    /// rendering).
    pub wall_s: f64,
    /// Host seconds inside `run_cluster`.
    pub run_s: f64,
    /// Host seconds inside `verify`/`verify_cluster`.
    pub verify_s: f64,
    /// Host seconds inside `TraceData::to_jsonl`.
    pub jsonl_s: f64,
    /// Host seconds inside `report::render_fleet`.
    pub render_s: f64,
    /// Per-host result digests, plus the JSONL digest when traced.
    pub digest: String,
    /// Replay verdict.
    pub verdict: Verdict,
    /// Why this cell's outputs are wrong: broken invariants, and a digest or
    /// verdict that disagrees with its pin (empty = correct).
    pub failures: Vec<String>,
    /// Simulator events dispatched.
    pub events: u64,
    /// Logical sessions simulated.
    pub sessions: u64,
    /// Per-VM running time, simulated seconds.
    pub vm_runtime_s: Vec<f64>,
    /// Simulated end of the cell, seconds.
    pub makespan_s: f64,
    /// Per-layer counts, summed over hosts.
    pub counts: BTreeMap<&'static str, f64>,
}

impl CellOutcome {
    /// The cell passes: its outputs are correct, and replay passed when
    /// traced.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && matches!(self.verdict, Verdict::Untraced | Verdict::Pass)
    }
}

/// Digest of a cell's outputs: every host's `result_digest`, then the
/// FNV-1a digest of every host's JSONL trace when the recorder ran.
pub fn cell_digest(hosts: &[scenarios::RunResult], jsonl: &[u64]) -> String {
    hosts
        .iter()
        .map(|r| format!("{:016x}", result_digest(r)))
        .chain(jsonl.iter().map(|j| format!("j{j:016x}")))
        .collect::<Vec<_>>()
        .join("+")
}

/// Run one prepared cell. `traced` overrides the cell's recorder setting
/// (the per-layer run times each cell both ways).
pub fn run_cell(p: &Prepared, traced: bool) -> CellOutcome {
    let start = Instant::now();
    let mut cfg = p.cfg.clone();
    if traced {
        cfg.trace = Some(TraceConfig::default());
        cfg.record_series = true;
    }
    let sessions = p.spec.logical_sessions();
    let t = Instant::now();
    let cr = run_cluster(p.spec.clone(), p.policy, &cfg, &p.cluster);
    let run_s = t.elapsed().as_secs_f64();

    let mut out = CellOutcome {
        label: p.label.clone(),
        pool_idx: p.pool_idx,
        run_s,
        events: cr.host_results[0].events,
        sessions,
        ..CellOutcome::default()
    };
    let mut jsonl_digests = Vec::new();
    if traced {
        let _one_at_a_time = SERIALIZER
            .lock()
            .expect("no cell panicked while serializing");
        let t = Instant::now();
        out.verdict = match trace_check::verify_cluster(&cr.host_results) {
            Ok(rep) if rep.ok() => Verdict::Pass,
            Ok(_) => Verdict::Fail,
            Err(_) => Verdict::Unavailable,
        };
        out.verify_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut bytes = 0usize;
        for r in &cr.host_results {
            let data = r.trace.as_ref().expect("the recorder was configured");
            let header = TraceHeader {
                scenario: r.scenario.clone(),
                policy: r.policy.clone(),
                seed: cfg.seed,
                filter: None,
            };
            let text = data.to_jsonl(&header, None);
            bytes += text.len();
            jsonl_digests.push(fnv1a(text.as_bytes()));
        }
        out.jsonl_s = t.elapsed().as_secs_f64();
        add(&mut out.counts, "sim-core.trace.jsonl_bytes", bytes as f64);
    }
    out.digest = cell_digest(&cr.host_results, &jsonl_digests);
    out.failures = invariant_violations(&cr);
    summarize(&cr, &mut out);
    let t = Instant::now();
    std::hint::black_box(report::render_fleet(&cr).len());
    out.render_s = t.elapsed().as_secs_f64();
    drop(cr);
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The invariants every benchmarked cell must keep: no truncation, zero
/// accounting violations, detected == injected page corruptions, and every
/// page conserved across each migration.
pub fn invariant_violations(cr: &ClusterResult) -> Vec<String> {
    let mut v = Vec::new();
    let hosts = &cr.host_results;
    if hosts.iter().any(|r| r.truncated) {
        v.push("run truncated at the safety cutoff".to_string());
    }
    let violations: u64 = hosts.iter().map(|r| r.faults.invariant_violations).sum();
    if violations > 0 {
        v.push(format!("{violations} tmem invariant violation(s)"));
    }
    let injected: u64 = hosts
        .iter()
        .map(|r| r.faults.bitflips_injected + r.faults.torn_writes_injected)
        .sum();
    let detected: u64 = hosts.iter().map(|r| r.faults.corruptions_detected).sum();
    if injected != detected {
        v.push(format!(
            "page corruptions: {detected} detected != {injected} injected"
        ));
    }
    let outs: u64 = hosts.iter().map(|r| r.faults.migrations_out).sum();
    let ins: u64 = hosts.iter().map(|r| r.faults.migrations_in).sum();
    if outs != ins || outs != cr.fleet.migrations {
        v.push(format!(
            "migrations: {outs} out, {ins} in, fleet reports {}",
            cr.fleet.migrations
        ));
    }
    // Page-level conservation needs every migration event, so it is checked
    // whenever each host's trace is complete.
    let complete = hosts
        .iter()
        .all(|r| r.trace.as_ref().is_some_and(|t| t.dropped_oldest == 0));
    if complete {
        let (mut exported, mut landed, mut spilled) = (0u64, 0u64, 0u64);
        for e in hosts
            .iter()
            .flat_map(|r| &r.trace.as_ref().expect("complete").events)
        {
            match e.payload {
                Payload::MigrateOut { pages, far, .. } => exported += pages + far,
                Payload::MigrateIn {
                    pages,
                    far,
                    spilled: s,
                } => {
                    landed += pages + far;
                    spilled += s;
                }
                _ => {}
            }
        }
        if exported != landed + spilled {
            v.push(format!(
                "migration pages: exported {exported} != landed {landed} + spilled {spilled}"
            ));
        }
    }
    v
}

fn add(counts: &mut BTreeMap<&'static str, f64>, key: &'static str, v: f64) {
    *counts.entry(key).or_default() += v;
}

/// Fold a cell's result into the outcome's simulated metrics and counts.
fn summarize(cr: &ClusterResult, out: &mut CellOutcome) {
    let c = &mut out.counts;
    for r in &cr.host_results {
        out.makespan_s = out.makespan_s.max(r.end_time.as_secs_f64());
        for vm in &r.vm_results {
            let done: f64 = vm.completions().iter().map(|d| d.as_secs_f64()).sum();
            // A VM whose runs were all stopped externally ran until the end.
            let t = if done > 0.0 {
                done
            } else {
                r.end_time.as_secs_f64()
            };
            out.vm_runtime_s.push(t);
            let k = &vm.kernel_stats;
            add(c, "guest-os.minor_faults", k.minor_faults as f64);
            add(c, "guest-os.tmem_faults", k.tmem_faults as f64);
            add(c, "guest-os.disk_faults", k.disk_faults as f64);
            add(c, "guest-os.evictions_to_tmem", k.evictions_to_tmem as f64);
            add(c, "guest-os.evictions_to_disk", k.evictions_to_disk as f64);
            add(c, "guest-os.failed_puts", k.failed_puts as f64);
            add(c, "guest-os.reclaimed_pages", k.reclaimed_pages as f64);
        }
        add(c, "guest-os.disk.reads", r.disk_reads as f64);
        add(c, "guest-os.disk.writes", r.disk_writes as f64);
        add(
            c,
            "guest-os.disk.read_wait_s",
            r.disk_read_wait.as_secs_f64(),
        );
        add(c, "guest-os.disk.throttle_s", r.disk_throttle.as_secs_f64());
        add(c, "core.mm.cycles", r.mm_cycles as f64);
        add(c, "core.mm.transmissions", r.mm_transmissions as f64);
        add(
            c,
            "sim-core.faults.injected",
            (r.faults.bitflips_injected + r.faults.torn_writes_injected) as f64,
        );
        add(
            c,
            "sim-core.faults.detected",
            r.faults.corruptions_detected as f64,
        );
        if let Some(t) = &r.trace {
            let m = &t.metrics;
            add(c, "tmem.puts", m.puts as f64);
            add(c, "tmem.gets", m.gets as f64);
            add(c, "tmem.get_hits", m.get_hits as f64);
            add(c, "tmem.evictions", m.evictions as f64);
            add(c, "xen-sim.virq_samples", m.virq_samples as f64);
            add(c, "sim-core.trace.events", t.events.len() as f64);
            add(c, "sim-core.trace.dropped", t.dropped_oldest as f64);
            for e in &t.events {
                match e.payload {
                    Payload::Put { result, .. } => {
                        add(c, "xen-sim.puts_recorded", 1.0);
                        match result {
                            PutResult::RejectTarget => add(c, "xen-sim.reject_target", 1.0),
                            PutResult::RejectCapacity => add(c, "xen-sim.reject_capacity", 1.0),
                            PutResult::StoredFar => add(c, "xen-sim.far_puts", 1.0),
                            _ => {}
                        }
                        if result.is_success() {
                            add(c, "xen-sim.puts_admitted", 1.0);
                        }
                    }
                    Payload::FarGet { .. } => add(c, "xen-sim.far_hits", 1.0),
                    _ => {}
                }
            }
        }
    }
    let f = &cr.fleet;
    add(c, "sim-core.event.dispatched", out.events as f64);
    add(c, "core.fleet.migrations", f.migrations as f64);
    add(
        c,
        "core.fleet.downtime_s",
        f.migration_downtime.as_secs_f64(),
    );
    add(c, "core.fleet.cross_host_pages", f.cross_host_pages as f64);
    add(
        c,
        "core.fleet.stranded_page_intervals",
        f.stranded_page_intervals as f64,
    );
    add(
        c,
        "sim-core.netmodel.transfers",
        f.cross_host_transfers as f64,
    );
    add(
        c,
        "sim-core.netmodel.queue_wait_s",
        f.net_queue_wait.as_secs_f64(),
    );
}
