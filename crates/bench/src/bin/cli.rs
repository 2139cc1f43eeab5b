//! `smartmem-cli` — regenerate any table or figure of the paper.
//!
//! ```text
//! smartmem-cli table2 [--scale S]
//! smartmem-cli fig <3|4|5|6|7|8|9|10> [--scale S] [--reps N] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli all [--scale S] [--reps N] [--out DIR] [--jobs N]
//! smartmem-cli run <SCENARIO> <policy> [--scale S] [--seed S] [--chaos PROFILE]
//! smartmem-cli chaos [--scale S] [--seed S] [--out DIR] [--jobs N] [--bound X]
//! smartmem-cli bench-parallel [--scale S] [--reps N] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli bench-fleet [--scale S] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli trace <SCENARIO> <policy> [--scale S] [--seed S] [--chaos PROFILE] [--out trace.jsonl] [--filter subsys=a,b]
//! smartmem-cli inspect <trace.jsonl>
//! smartmem-cli run-file <scenario.toml> [POLICY ...] [--scale S] [--seed S] [--reps N] [--chaos P]
//! smartmem-cli sweep <manifest.toml> [--resume DIR] [--jobs N] [--stop-after N]
//! ```
//!
//! `fig` and `all` draw Figs. 3–10 from the one figure table,
//! [`scenarios::figures::FIGURES`].
//!
//! `SCENARIO` is one of the Table II cells — `scenario1`, `scenario2`,
//! `usemem`, `scenario3` — or a parameterized fleet cell:
//! `fleet:<vms>[:<footprint_mb>[:<mix>[:<gap_ms>]]]`, e.g. `fleet:64`,
//! `fleet:32:256:paging`, `fleet:16:128:balanced:0` (gap 0 = simultaneous
//! arrivals). Mixes: `balanced`, `analytics`, `serving`, `paging`. The VM
//! count may be `<hosts>x<vms>` (`fleet:2x32`): the cell then runs as a
//! multi-host cluster — tmem sharded across the hosts, the fleet
//! scheduler migrating VMs at its default tunables — and `run`/`trace`
//! print the fleet report. Every `run`/`trace` cell goes through
//! `run_cluster`; any other spelling is the one-host cluster. `trace`
//! replay-verifies every host's stream (migration events included) and
//! `--out FILE` writes host 0 to FILE and host N to `FILE.hostN`. Scenario
//! files can declare richer topologies (interconnect preset, far tier,
//! scheduler thresholds) in a `[cluster]` table.
//!
//! Policies: `no-tmem`, `greedy`, `static-alloc`, `reconf-static`,
//! `smart-alloc:<P>` (e.g. `smart-alloc:0.75`), `predictive`.
//!
//! `bench-fleet` runs one measured loop over the fleet topologies — the
//! single-host fleet family at 8/16/32/64 VMs and the 1x8/2x8/2x16/2x32
//! cluster cells with the far tier and migration on — and writes
//! `BENCH_fleet.json`: wall-clock and peak RSS per cell, per-VM
//! occupancy/slowdown figures for the fleet cells (`cells`) and the fleet
//! metrics for the cluster cells (`cluster_cells`). `--scale` sizes the
//! per-VM footprint off the 512 MiB headline cell (default 0.125 → 64 MiB
//! — a smoke pass; use `--scale 1` for the headline numbers). The
//! simulation itself always runs at time scale 1 (1 s sampling), because
//! fleet cells are not resized by `RunConfig::scale`.
//!
//! `--jobs N` sets the number of worker threads the experiment grids fan
//! out over (default: all available cores). Output is byte-identical at
//! any job count; `--jobs 1` forces the serial engine.
//!
//! `chaos` runs every (scenario × managed-policy) cell fault-free and
//! under each shipped fault profile — control-plane (`sample-loss`,
//! `flaky-hypercalls`, `mm-crash`) and data-plane (`bitrot`,
//! `backend-brownout`) — prints the degradation report, and exits
//! non-zero when any per-VM slowdown exceeds the bound (default
//! [`scenarios::chaos::DEGRADATION_BOUND`]), a tmem accounting invariant
//! was ever violated, or a data-plane cell left an injected corruption
//! undetected. `--out` writes `chaos_ledger.csv` with one row per cell
//! including the data-plane columns (injections, detections, recoveries,
//! scrub/quarantine counts).
//!
//! `run-file` runs a declarative scenario file (see `scenarios/*.toml` and
//! EXPERIMENTS.md) under one or more policies; the file's `[run]` table
//! supplies defaults for any flag or policy list not given on the command
//! line. `sweep` expands a manifest's `scenarios × policies × chaos × reps`
//! matrix and runs it with per-cell checkpointing: every finished cell is
//! journaled, so a killed sweep rerun with the same `--resume DIR` picks up
//! where it stopped and produces byte-identical outputs. `--stop-after N`
//! caps how many cells one invocation runs (useful for exercising resume).
//!
//! `trace` runs one cell with the flight recorder attached, checks each
//! host's fold of the event stream with the [`scenarios::trace_check`]
//! verifier, prints each host's metrics registry and the replay verdict,
//! and (with `--out`) writes the ring's window of the trace as JSONL.
//! `--filter subsys=tmem,mm` restricts the *written* file to those
//! subsystems; the recorder always records (and folds) everything.
//! `inspect` reads a JSONL trace back, folds it with the same `Fold`, and
//! summarizes it: per-VM admission/reject/evict counts, the transmitted
//! target-vector timeline, and a fault-ledger cross-check.

use scenarios::batch;
use scenarios::chaos;
use scenarios::config::RunConfig;
use scenarios::dsl;
use scenarios::figures;
use scenarios::report;
use scenarios::runner::{run_cluster, ClusterConfig, ClusterResult, RunResult};
use scenarios::spec::{build_scenario, FleetParams, ScenarioKind, ScenarioSpec};
use sim_core::trace::{
    self, FaultKind, Fold, Payload, PushOutcome, PutResult, Subsystem, TraceConfig, TraceData,
    TraceHeader,
};
use smartmem_core::{FleetConfig, PolicyKind};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xen_sim::host::FarConfig;

#[derive(Debug)]
struct Args {
    scale: f64,
    reps: u64,
    seed: u64,
    out: Option<PathBuf>,
    jobs: usize,
    bound: f64,
    /// Subsystem restriction for the JSONL written by `trace --out`.
    filter: Option<Vec<Subsystem>>,
    /// Shipped chaos profile to inject during `trace`.
    chaos: Option<chaos::ChaosProfile>,
    /// Sweep checkpoint directory (`sweep --resume`).
    resume: Option<PathBuf>,
    /// Cap on cells one `sweep` invocation runs (resume/CI kill stand-in).
    stop_after: Option<usize>,
}

fn parse_flags(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: 0.125,
        reps: 3,
        seed: 42,
        out: None,
        jobs: scenarios::par::default_jobs(),
        bound: chaos::DEGRADATION_BOUND,
        filter: None,
        chaos: None,
        resume: None,
        stop_after: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--scale" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--scale: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--scale must be a positive finite number, got {s}"));
                }
                args.scale = s;
            }
            "--reps" => {
                let r: u64 = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if r == 0 {
                    return Err("--reps must be at least 1 (0 repetitions produce no data)".into());
                }
                args.reps = r;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--jobs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1 (use --jobs 1 for a serial run)".into());
                }
                args.jobs = n;
            }
            "--bound" => {
                let b: f64 = value()?.parse().map_err(|e| format!("--bound: {e}"))?;
                if !(b.is_finite() && b >= 1.0) {
                    return Err(format!(
                        "--bound must be a finite ratio >= 1.0 (a slowdown multiplier), got {b}"
                    ));
                }
                args.bound = b;
            }
            "--chaos" => {
                let v = value()?;
                let profile = chaos::shipped_profiles()
                    .into_iter()
                    .find(|p| p.name == v)
                    .ok_or_else(|| {
                        format!(
                            "unknown chaos profile '{v}' (shipped: {})",
                            chaos::shipped_profiles()
                                .iter()
                                .map(|p| p.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?;
                args.chaos = Some(profile);
            }
            "--resume" => args.resume = Some(PathBuf::from(value()?)),
            "--stop-after" => {
                let n: usize = value()?.parse().map_err(|e| format!("--stop-after: {e}"))?;
                args.stop_after = Some(n);
            }
            "--filter" => {
                let v = value()?;
                let list = v
                    .strip_prefix("subsys=")
                    .ok_or_else(|| format!("--filter expects subsys=<name,name,...>, got '{v}'"))?;
                args.filter = Some(trace::parse_subsystem_filter(list)?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run_config(a: &Args) -> Result<RunConfig, String> {
    let cfg = RunConfig {
        scale: a.scale,
        seed: a.seed,
        jobs: a.jobs,
        ..RunConfig::default()
    };
    cfg.validate()?;
    Ok(cfg)
}

/// The topology a bare `fleet:<hosts>x<vms>` CLI cell runs: sharded pools
/// on the datacenter interconnect with the fleet scheduler at its default
/// tunables and no far tier. Files wanting presets/far/thresholds declare
/// a `[cluster]` table instead.
fn default_cluster(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        migration: Some(FleetConfig::default()),
        ..ClusterConfig::default()
    }
}

/// One (scenario × policy) cell of `run` or `trace`. Every cell runs
/// through `run_cluster`: a Table II or `fleet:<vms>` spelling is the
/// one-host cluster — the same run as `run_spec` — and
/// `fleet:<hosts>x<vms>` the default multi-host topology.
struct Cell {
    spec: ScenarioSpec,
    policy: PolicyKind,
    cfg: RunConfig,
    cluster: ClusterConfig,
    args: Args,
}

/// Parse `<SCENARIO> <POLICY> [flags]` for `cmd` into a [`Cell`], with
/// `--chaos` applied to the run config. Scenario and policy spellings are
/// the DSL's (`scenarios::dsl`), so they mean the same on the command line
/// and in a `.toml` file.
fn parse_cell(cmd: &str, rest: &[String]) -> Result<Cell, String> {
    let (scenario, rest) = rest
        .split_first()
        .ok_or_else(|| format!("{cmd} needs a scenario"))?;
    let (policy, rest) = rest
        .split_first()
        .ok_or_else(|| format!("{cmd} needs a policy"))?;
    let (kind, hosts) = dsl::parse_kind_cluster(scenario)?;
    let policy = dsl::parse_policy(policy)?;
    let args = parse_flags(rest)?;
    let mut cfg = run_config(&args)?;
    if let Some(p) = &args.chaos {
        cfg.faults = p.profile.clone();
    }
    Ok(Cell {
        spec: cluster_spec(kind, hosts, &cfg),
        policy,
        cfg,
        cluster: default_cluster(hosts),
        args,
    })
}

/// Build the spec of a `hosts`-host cell (renamed when `hosts > 1`).
fn cluster_spec(kind: ScenarioKind, hosts: usize, cfg: &RunConfig) -> ScenarioSpec {
    let mut spec = build_scenario(kind, cfg);
    spec.name = dsl::cluster_scenario_name(&spec.name, hosts);
    spec
}

/// The paper figure `fig <n>` names.
fn figure_def(n: &str) -> Result<&'static figures::FigureDef, String> {
    let n: u32 = n.parse().map_err(|e| format!("figure number: {e}"))?;
    figures::find(&format!("fig{n}"))
        .ok_or_else(|| format!("no figure {n} in the paper's evaluation"))
}

/// Produce one paper figure, print it and (with `--out`) write its CSV.
fn figure(def: &figures::FigureDef, a: &Args) -> Result<(), String> {
    let fig = figures::produce(def, &run_config(a)?, a.reps);
    print!("{}", report::render_figure(&fig));
    if let Some(dir) = &a.out {
        let p = report::write_figure_csv(&fig, dir)
            .map_err(|e| format!("writing {} CSV under {}: {e}", def.id, dir.display()))?;
        println!("csv: {}", p.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => dispatch(cmd, rest),
        None => Err(
            "usage: smartmem-cli <table2|fig N|all|run SCENARIO POLICY|chaos|\
             bench-parallel|bench-fleet|trace SCENARIO POLICY|\
             inspect FILE|run-file FILE [POLICY ...]|sweep MANIFEST> [flags]"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Compute (and discard) every figure of `all` — the timed body of the
/// `bench-parallel` end-to-end comparison. No printing, no CSV: only the
/// simulation work itself is measured.
fn compute_all(cfg: &RunConfig, reps: u64) {
    for def in figures::FIGURES {
        std::hint::black_box(figures::produce(def, cfg, reps));
    }
}

/// Paired steady-state micro harness. Each closure owns its long-lived
/// backend state and returns `(ops, time spent in its timed region)` per
/// round; warm-up rounds run first so maps and arenas reach their
/// steady-state high-water capacity (backends in real runs live for a
/// whole scenario, not one burst).
///
/// Fast and reference rounds are *interleaved in slices* so a load spike
/// or frequency change on the host hits both measurements alike and
/// cancels out of the speedup ratio, instead of landing on whichever
/// backend happened to be running. Within each slice the first rounds are
/// discarded: switching backends evicts the other's working set from
/// cache, and "steady state" means warm caches — the measured regime is a
/// backend serving a run, not a backend just context-switched in. The
/// reported rates cover the timed regions only, so a round can exclude
/// its setup (e.g. the fill before a `flush_object` burst).
fn paired_micro_ops_per_s(
    mut fast_round: impl FnMut() -> (u64, std::time::Duration),
    mut ref_round: impl FnMut() -> (u64, std::time::Duration),
    min_time: std::time::Duration,
) -> (f64, f64) {
    const WARM_ROUNDS: usize = 2;
    const TIMED_ROUNDS: usize = 6;
    let slice = |round: &mut dyn FnMut() -> (u64, std::time::Duration)| {
        for _ in 0..WARM_ROUNDS {
            round();
        }
        let (mut ops, mut spent) = (0u64, std::time::Duration::ZERO);
        for _ in 0..TIMED_ROUNDS {
            let (o, d) = round();
            ops += o;
            spent += d;
        }
        (ops, spent)
    };
    let wall = std::time::Instant::now();
    let (mut fast_ops, mut ref_ops) = (0u64, 0u64);
    let (mut fast_spent, mut ref_spent) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    loop {
        let (o, d) = slice(&mut fast_round);
        fast_ops += o;
        fast_spent += d;
        let (o, d) = slice(&mut ref_round);
        ref_ops += o;
        ref_spent += d;
        if wall.elapsed() >= min_time {
            break;
        }
    }
    (
        fast_ops as f64 / fast_spent.as_secs_f64(),
        ref_ops as f64 / ref_spent.as_secs_f64(),
    )
}

fn bench_parallel(a: &Args) -> Result<(), String> {
    use tmem::backend::{PoolKind, TmemBackend};
    use tmem::key::{ObjectId, VmId};
    use tmem::page::Fingerprint;
    use tmem::reference::ReferenceBackend;

    const OBJECTS: u64 = 8;
    const PAGES: u32 = 512;
    const ROUND_PAGES: u64 = OBJECTS * PAGES as u64;
    let min_time = std::time::Duration::from_millis(400);

    println!("== bench-parallel — datapath + engine perf record ==");

    // --- Micros: fast datapath vs seed BTreeMap reference, three ops ---
    // One macro instantiation per backend type (the two backends share
    // their method surface but no trait); each expansion yields one
    // state-owning round closure per op, which the paired harness then
    // interleaves across the two backends.
    macro_rules! micro_rounds {
        ($Backend:ty) => {{
            fn fill(b: &mut $Backend, pool: tmem::key::PoolId) {
                for o in 0..OBJECTS {
                    for i in 0..PAGES {
                        b.put(pool, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                }
            }

            // put/get: sliding-window churn, the frontswap steady state —
            // swap slots are written once and read back once at fresh,
            // unordered offsets, so each round puts OBJECTS new objects
            // (page indices in a fixed permutation, not sequentially) and
            // exclusively drains the OBJECTS oldest while WINDOW objects
            // stay in flight. (Refilling the *same* keys after a full
            // drain instead would measure the backends' ghost-revival
            // corner, not the datapath.)
            const WINDOW: u64 = 16;
            let perm = |i: u32| (i * 167) % PAGES; // gcd(167, PAGES) == 1
            let mut b1 = <$Backend>::new((WINDOW + 1) * PAGES as u64);
            let pool1 = b1.new_pool(VmId(1), PoolKind::Persistent).unwrap();
            for o in 0..WINDOW {
                for i in 0..PAGES {
                    let i = perm(i);
                    b1.put(pool1, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                        .unwrap();
                }
            }
            let mut next_obj = WINDOW;
            let put_get = move || {
                let t = std::time::Instant::now();
                for o in next_obj..next_obj + OBJECTS {
                    for i in 0..PAGES {
                        let i = perm(i);
                        b1.put(pool1, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                    let old = ObjectId(o - WINDOW);
                    for i in 0..PAGES {
                        std::hint::black_box(b1.get(pool1, old, perm(i)).unwrap());
                    }
                }
                next_obj += OBJECTS;
                (2 * ROUND_PAGES, t.elapsed())
            };

            // flush_object: refill untimed, time the per-object flush burst.
            let mut b2 = <$Backend>::new(8192);
            let pool2 = b2.new_pool(VmId(1), PoolKind::Persistent).unwrap();
            let flush_object = move || {
                fill(&mut b2, pool2);
                let t = std::time::Instant::now();
                let mut n = 0;
                for o in 0..OBJECTS {
                    n += b2.flush_object(pool2, ObjectId(o)).unwrap();
                }
                assert_eq!(n, ROUND_PAGES, "flush must drain every page");
                (n, t.elapsed())
            };

            // destroy_pool: fresh pool + fill untimed, time the teardown.
            let mut b3 = <$Backend>::new(8192);
            let destroy_pool = move || {
                let pool = b3.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                fill(&mut b3, pool);
                let t = std::time::Instant::now();
                let n = b3.destroy_pool(pool).unwrap();
                assert_eq!(n, ROUND_PAGES, "teardown must free every page");
                (n, t.elapsed())
            };

            (put_get, flush_object, destroy_pool)
        }};
    }

    let (f_pg, f_fl, f_dp) = micro_rounds!(TmemBackend<Fingerprint>);
    let (r_pg, r_fl, r_dp) = micro_rounds!(ReferenceBackend<Fingerprint>);
    let (fast_pg, ref_pg) = paired_micro_ops_per_s(f_pg, r_pg, min_time);
    let (fast_fl, ref_fl) = paired_micro_ops_per_s(f_fl, r_fl, min_time);
    let (fast_dp, ref_dp) = paired_micro_ops_per_s(f_dp, r_dp, min_time);

    let micros = [
        ("put_get", fast_pg, ref_pg),
        ("flush_object", fast_fl, ref_fl),
        ("destroy_pool", fast_dp, ref_dp),
    ];
    for (name, fast, reference) in micros {
        println!(
            "micro {name:>13}: fast {:8.2} Mops/s vs reference {:6.2} Mops/s — {:.2}x",
            fast / 1e6,
            reference / 1e6,
            fast / reference
        );
    }

    // --- Jobs scaling: the full `all` figure set at jobs 1/2/4/8 ---
    let cores = scenarios::par::default_jobs();
    let mut entries = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let mut cfg = run_config(a)?;
        cfg.jobs = jobs;
        let m = smartmem_bench::measure::measure(|| compute_all(&cfg, a.reps));
        let wall_s = m.wall.as_secs_f64();
        println!("e2e all (jobs={jobs}): {wall_s:.2} s");
        entries.push((jobs, wall_s));
    }
    let serial_s = entries[0].1;
    let scaling_valid = cores >= 2;
    let warning = if scaling_valid {
        String::new()
    } else {
        format!(
            "only {cores} core available: every job count runs serialized, so the \
             jobs-scaling curve is not a parallelism measurement; rerun on a \
             multi-core host (the CI bench job provides one)"
        )
    };

    let micro_json = micros
        .iter()
        .map(|(name, fast, reference)| {
            format!(
                "    \"{name}\": {{\n      \"fast_ops_per_s\": {fast:.0},\n      \
                 \"reference_ops_per_s\": {reference:.0},\n      \"speedup\": {:.3}\n    }}",
                fast / reference
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let entries_json = entries
        .iter()
        .map(|(jobs, wall_s)| {
            format!(
                "      {{ \"jobs\": {jobs}, \"wall_s\": {wall_s:.3}, \"speedup\": {:.3} }}",
                serial_s / wall_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"host\": {{ \"available_cores\": {cores} }},\n  \"config\": {{ \"scale\": {}, \
         \"reps\": {}, \"seed\": {} }},\n  \"micro\": {{\n    \"workload\": \"sliding-window \
         churn on a long-lived backend ({OBJECTS} objects x {PAGES} pages in flight, \
         put fresh / get oldest), fast/reference rounds interleaved so host noise \
         cancels out of the ratio\",\n\
         {micro_json}\n  }},\n  \"jobs_scaling\": {{\n    \"valid\": {scaling_valid},\n    \
         \"warning\": \"{warning}\",\n    \"entries\": [\n{entries_json}\n    ]\n  }}\n}}\n",
        a.scale, a.reps, a.seed
    );
    let dir = a.out.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_scaling.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("perf record: {}", path.display());
    if !scaling_valid {
        return Err(format!("jobs-scaling sweep invalid — {warning}"));
    }
    Ok(())
}

/// `bench-fleet` cells as `(hosts, vms, cluster)`, in ascending VM order
/// because peak RSS is a process high-water mark.
const FLEET_TOPOLOGIES: [(usize, u32, bool); 8] = [
    (1, 8, false),
    (1, 8, true),
    (2, 8, true),
    (1, 16, false),
    (2, 16, true),
    (1, 32, false),
    (2, 32, true),
    (1, 64, false),
];

/// `bench-fleet`: wall-clock and peak RSS over the single-host fleet cells
/// (with per-VM occupancy/slowdown figures) and the cluster cells, which
/// run the fleet scheduler at its default tunables with a per-host far
/// tier sized to a quarter of the host's tmem shard (migrations, downtime,
/// cross-host traffic, stranded memory). Writes both lists to
/// `BENCH_fleet.json`.
fn bench_fleet(a: &Args) -> Result<(), String> {
    use smartmem_bench::measure::measure;

    // Fleet cells are not resized by `RunConfig::scale` (their size is
    // explicit in `FleetParams`), so the run config keeps the default
    // scale 1.0 — one-second sampling — and `--scale` instead sizes the
    // per-VM footprint off the 512 MiB headline cell.
    let footprint_mb = ((512.0 * a.scale).round() as u32).max(8);
    let policy = PolicyKind::SmartAlloc { p: 2.0 };
    let cfg = RunConfig {
        seed: a.seed,
        jobs: a.jobs,
        ..RunConfig::default()
    };
    cfg.validate()?;

    println!("== bench-fleet — wall-clock, peak RSS and fleet metrics vs hosts x VMs ==");
    println!(
        "footprint {footprint_mb} MiB/VM, balanced mix, 250 ms staggered arrivals, \
         policy smart-alloc:2; cluster cells: datacenter interconnect, migration on, \
         far tier = 1/4 of each host's shard"
    );
    println!(
        "(peak RSS is the process high-water mark, so cells run in ascending VM order \
         and each reading is the peak through that cell)"
    );

    let mut cells_json = Vec::new();
    let mut cluster_json = Vec::new();
    for (hosts, vms, is_cluster) in FLEET_TOPOLOGIES {
        let params = FleetParams {
            vms,
            footprint_mb,
            ..FleetParams::default()
        };
        let spec = cluster_spec(ScenarioKind::Scenario5(params), hosts, &cfg);
        let mut cluster = default_cluster(hosts);
        if is_cluster {
            cluster.far = Some(FarConfig {
                capacity_pages: (spec.tmem_pages() / hosts as u64 / 4).max(1),
            });
        }
        let scenario = spec.name.clone();
        let sessions = spec.logical_sessions();
        let m = measure(|| run_cluster(spec, policy, &cfg, &cluster));
        let cr = &m.value;
        let wall_s = m.wall.as_secs_f64();
        let rss_mib = m.peak_rss_kb.map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        let events = cr.host_results[0].events;
        let sim_end_s = cr
            .host_results
            .iter()
            .map(|r| r.end_time.as_secs_f64())
            .fold(0.0, f64::max);
        let truncated = cr.host_results.iter().any(|r| r.truncated);
        // The fields both cell lists record.
        let common = format!(
            "\"vms\": {vms},\n      \"scenario\": \"{scenario}\",\n      \
             \"wall_s\": {wall_s:.3},\n      \"peak_rss_kb\": {},\n      \
             \"events\": {events},\n      \"sim_end_s\": {sim_end_s:.3},\n      \
             \"truncated\": {truncated}",
            m.peak_rss_kb
                .map_or("null".to_string(), |kb| kb.to_string()),
        );
        if is_cluster {
            let f = &cr.fleet;
            println!(
                "cluster {hosts}x{vms:<3}: wall {wall_s:7.2} s  peak RSS {rss_mib:8.1} MiB  \
                 migrations {:>3} (downtime {})  cross-host {} transfers / {} pages  \
                 stranded {}{}",
                f.migrations,
                f.migration_downtime,
                f.cross_host_transfers,
                f.cross_host_pages,
                f.stranded_page_intervals,
                if truncated { "  TRUNCATED" } else { "" },
            );
            cluster_json.push(format!(
                "    {{\n      \"hosts\": {hosts},\n      {common},\n      \
                 \"migrations\": {},\n      \"migration_downtime_ns\": {},\n      \
                 \"cross_host_transfers\": {},\n      \"cross_host_pages\": {},\n      \
                 \"net_queue_wait_ns\": {},\n      \"stranded_page_intervals\": {}\n    }}",
                f.migrations,
                f.migration_downtime.as_nanos(),
                f.cross_host_transfers,
                f.cross_host_pages,
                f.net_queue_wait.as_nanos(),
                f.stranded_page_intervals,
            ));
            continue;
        }

        let r = &cr.host_results[0];
        println!(
            "fleet {vms:>3} VMs: wall {wall_s:7.2} s  peak RSS {rss_mib:8.1} MiB  \
             events {events:>12}  sessions {sessions:>12}  sim end {sim_end_s:.0} s{}",
            if truncated { "  TRUNCATED" } else { "" },
        );

        // Per-VM occupancy and slowdown. Slowdown is each VM's total
        // program runtime relative to the fastest VM running the same
        // workload — 1.00 marks the least-contended VM of its class.
        let runtime_ns: Vec<u64> = r
            .vm_results
            .iter()
            .map(|vm| {
                vm.runs
                    .iter()
                    .filter_map(|rr| rr.duration())
                    .map(|d| d.as_nanos())
                    .sum()
            })
            .collect();
        let class: Vec<&str> = r
            .vm_results
            .iter()
            .map(|vm| vm.runs.first().map_or("-", |rr| rr.workload.as_str()))
            .collect();
        let mut fastest: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for (&c, &ns) in class.iter().zip(&runtime_ns) {
            if ns > 0 {
                let e = fastest.entry(c).or_insert(u64::MAX);
                *e = (*e).min(ns);
            }
        }
        println!(
            "  {:<6} {:>22} {:>12} {:>9} {:>12}",
            "vm", "workload", "runtime_s", "slowdown", "occ_pages"
        );
        let mut per_vm_json = Vec::new();
        for (i, vm) in r.vm_results.iter().enumerate() {
            let runtime_s = runtime_ns[i] as f64 / 1e9;
            let slowdown = match fastest.get(class[i]) {
                Some(&best) if runtime_ns[i] > 0 => runtime_ns[i] as f64 / best as f64,
                _ => f64::NAN,
            };
            let occ = r.final_tmem_used[i];
            println!(
                "  {:<6} {:>22} {:>12.1} {:>9.3} {:>12}",
                vm.name, class[i], runtime_s, slowdown, occ
            );
            per_vm_json.push(format!(
                "        {{ \"name\": \"{}\", \"workload\": \"{}\", \"runtime_s\": {:.3}, \
                 \"slowdown\": {}, \"occupancy_pages\": {} }}",
                vm.name,
                class[i],
                runtime_s,
                if slowdown.is_nan() {
                    "null".to_string()
                } else {
                    format!("{slowdown:.4}")
                },
                occ
            ));
        }
        cells_json.push(format!(
            "    {{\n      {common},\n      \"logical_sessions\": {sessions},\n      \
             \"per_vm\": [\n{}\n      ]\n    }}",
            per_vm_json.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"host\": {{ \"available_cores\": {} }},\n  \"config\": {{ \"scale\": {}, \
         \"footprint_mb\": {footprint_mb}, \"seed\": {}, \"jobs\": {}, \
         \"policy\": \"smart-alloc:2\", \"mix\": \"balanced\", \"arrival_gap_ms\": 250, \
         \"net\": \"datacenter\", \"migration\": \"default\", \
         \"far\": \"quarter-shard\" }},\n  \
         \"note\": \"net, migration and far apply to cluster_cells only; peak_rss_kb is the \
         process-lifetime high-water mark (VmHWM); cells of both lists run in one ascending \
         VM order, so each reading is the peak through that cell\",\n  \
         \"cells\": [\n{}\n  ],\n  \"cluster_cells\": [\n{}\n  ]\n}}\n",
        scenarios::par::default_jobs(),
        a.scale,
        a.seed,
        a.jobs,
        cells_json.join(",\n"),
        cluster_json.join(",\n")
    );
    let dir = a.out.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_fleet.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("perf record: {}", path.display());
    Ok(())
}

/// `trace`: run one cell with every host's flight recorder attached,
/// print each host's metrics registry, replay-verify the streams against
/// the live accounting (migration events included), print the fleet
/// report of a multi-host cell, and (with `--out FILE`) write host 0's
/// JSONL to FILE and host N's to `FILE.hostN`.
fn trace_cmd(mut c: Cell) -> Result<(), String> {
    let a = &c.args;
    if a.filter.is_some() && a.out.is_none() {
        return Err(
            "--filter only shapes the JSONL written by --out; add --out FILE (the \
             recorder itself always records every subsystem)"
                .into(),
        );
    }
    // The replay verifier checks the occupancy series point-by-point, so
    // record it; series recording never changes simulation outcomes.
    c.cfg.record_series = true;
    c.cfg.trace = Some(TraceConfig::default());
    let cr = run_cluster(c.spec, c.policy, &c.cfg, &c.cluster);
    let multi = cr.host_results.len() > 1;
    let head = &cr.host_results[0];
    println!(
        "== trace {} / {} ({}scale {}, seed {}, chaos {}) ==",
        head.scenario,
        head.policy,
        if multi {
            format!("{} hosts, ", cr.host_results.len())
        } else {
            String::new()
        },
        a.scale,
        a.seed,
        a.chaos.as_ref().map_or("off", |p| p.name.as_str()),
    );
    for (h, r) in cr.host_results.iter().enumerate() {
        if multi {
            println!("-- host {h} --");
        }
        let data = trace_data(r);
        let m = &data.metrics;
        println!(
            "events: {} recorded, {} dropped (ring capacity {})",
            data.events.len(),
            data.dropped_oldest,
            trace::DEFAULT_TRACE_CAPACITY,
        );
        println!(
            "tmem: puts={} (rejected {}, reject-ratio {:.3}) gets={} (hits {}) \
             evictions={} reclaimed={} flush_pages={}",
            m.puts,
            m.puts_rejected,
            m.reject_ratio(),
            m.gets,
            m.get_hits,
            m.evictions,
            m.reclaimed_pages,
            m.flush_pages,
        );
        let pct = |h: &sim_core::metrics::Histogram, p: f64| {
            h.percentile(p)
                .map_or_else(|| "-".into(), |v| v.to_string())
        };
        println!(
            "put latency ns: p50={} p99={} max={} (n={})",
            pct(&m.put_latency, 0.50),
            pct(&m.put_latency, 0.99),
            m.put_latency.max().map_or(0, |v| v),
            m.put_latency.count(),
        );
        println!(
            "relay: samples={} enqueued={} shed={} pushes={} retries={} queue-depth p99={}",
            m.virq_samples,
            m.relay_enqueued,
            m.relay_shed,
            m.relay_pushes,
            m.relay_retries,
            pct(&m.relay_depth, 0.99),
        );
        println!(
            "mm: decisions={}  faults injected={}",
            m.mm_decisions, m.faults_injected
        );
    }

    let rep = scenarios::trace_check::verify_cluster(&cr.host_results)?;
    if !rep.ok() {
        for mi in &rep.mismatches {
            eprintln!("replay mismatch: {mi}");
        }
        return Err(format!(
            "replay verification failed: {} mismatch(es) in {} checks",
            rep.mismatches.len(),
            rep.checks
        ));
    }
    println!(
        "replay: PASS — {} checks over {} events re-derived the live accounting",
        rep.checks, rep.events
    );
    if multi {
        print!("{}", report::render_fleet(&cr));
    }

    if let Some(path) = &a.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        for (h, r) in cr.host_results.iter().enumerate() {
            let header = TraceHeader {
                scenario: r.scenario.clone(),
                policy: r.policy.clone(),
                seed: a.seed,
                filter: None,
            };
            let jsonl = trace_data(r).to_jsonl(&header, a.filter.as_deref());
            let written = jsonl.lines().count().saturating_sub(1);
            let host_path = if h == 0 {
                path.clone()
            } else {
                PathBuf::from(format!("{}.host{h}", path.display()))
            };
            std::fs::write(&host_path, &jsonl)
                .map_err(|e| format!("writing {}: {e}", host_path.display()))?;
            println!("trace: {} ({written} events)", host_path.display());
        }
    }
    Ok(())
}

fn trace_data(r: &RunResult) -> &TraceData {
    r.trace
        .as_ref()
        .expect("trace was configured, so every host extracts one")
}

/// `inspect`: parse a JSONL trace, fold its events, and summarize the fold
/// — per-VM admission and eviction counts and a cross-check of
/// injected-fault events against the observed fates — plus the transmitted
/// target-vector timeline.
fn inspect_cmd(path: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let t = TraceData::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let fold = Fold::of(&t.events);

    println!(
        "== {} — {} / {} (seed {}, schema v{}) ==",
        path.display(),
        t.scenario,
        t.policy,
        t.seed,
        t.version
    );
    println!(
        "events: {}  ring-dropped: {}  write-filter: {}",
        t.events.len(),
        t.dropped_oldest,
        t.filter.as_deref().unwrap_or("none")
    );

    // --- per-VM admission / reject / evict table -------------------------
    println!("-- per-VM tmem admission --");
    println!(
        "{:>3} {:>9} {:>9} {:>9} {:>8} {:>10} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9}",
        "vm",
        "stored",
        "replaced",
        "st_evict",
        "st_far",
        "rej_targ",
        "rej_cap",
        "rej_io",
        "gets",
        "hits",
        "evicted",
        "flushed"
    );
    let mut reject_io_puts = 0;
    for (vm, v) in &fold.vms {
        let t = v.traffic();
        let puts = |r: PutResult| t.puts[r as usize];
        reject_io_puts += puts(PutResult::RejectIo);
        println!(
            "{vm:>3} {:>9} {:>9} {:>9} {:>8} {:>10} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9}",
            puts(PutResult::Stored),
            puts(PutResult::Replaced),
            puts(PutResult::StoredEvict),
            puts(PutResult::StoredFar),
            puts(PutResult::RejectTarget),
            puts(PutResult::RejectCapacity),
            puts(PutResult::RejectIo),
            t.gets,
            t.hits,
            v.evicted,
            v.flushed_pages,
        );
    }

    // --- transmitted target-vector timeline ------------------------------
    // Consecutive identical vectors are collapsed to keep long runs legible.
    println!("-- target-vector timeline (transmitted MM decisions) --");
    // (first time, first push seq, target vector, consecutive repeats)
    type TargetRun = (sim_core::time::SimTime, u64, Vec<(u32, u64)>, u64);
    let mut pending: Option<TargetRun> = None;
    let flush_run = |run: &Option<TargetRun>| {
        if let Some((at, push_seq, targets, repeats)) = run {
            let vec: Vec<String> = targets
                .iter()
                .map(|(vm, pages)| format!("vm{vm}={pages}"))
                .collect();
            let tail = if *repeats > 1 {
                format!("  (x{repeats} consecutive)")
            } else {
                String::new()
            };
            println!(
                "  t={:>12}ns push={push_seq:<5} {}{tail}",
                at.as_nanos(),
                vec.join(" ")
            );
        }
    };
    for ev in &t.events {
        if let Payload::MmDecision {
            push_seq,
            sent: true,
            targets,
            ..
        } = &ev.payload
        {
            match &mut pending {
                Some((_, _, prev, repeats)) if prev == targets => *repeats += 1,
                _ => {
                    flush_run(&pending);
                    pending = Some((ev.at, *push_seq, targets.clone(), 1));
                }
            }
        }
    }
    flush_run(&pending);
    if fold.mm_sent == 0 {
        println!("  (none — policy never transmitted a target vector)");
    }

    // --- fault ledger cross-check ----------------------------------------
    // Every injected fault must have a matching observed fate elsewhere in
    // the stream; a filtered trace drops one side of the pairing.
    println!("-- fault ledger cross-check --");
    if t.filter.is_some() {
        println!("  skipped: trace was written with a subsystem filter, so fate");
        println!("  events and fault events are not both guaranteed present");
        return Ok(());
    }
    let led = fold.ledger();
    let mut mismatched = 0u64;
    let mut verdict = |ok: bool| {
        if ok {
            "OK"
        } else {
            mismatched += 1;
            "MISMATCH"
        }
    };
    println!(
        "  {:<16} {:>9} {:>9}  verdict",
        "kind", "injected", "observed"
    );
    // (fault kind, observed fates)
    let control = [
        (FaultKind::SampleDrop, led.samples_dropped),
        (FaultKind::SampleDelay, led.samples_delayed),
        (FaultKind::SampleDuplicate, led.samples_duplicated),
        (FaultKind::NetlinkDrop, led.netlink_dropped),
        (FaultKind::NetlinkReorder, led.netlink_reordered),
        // Every failed hypercall attempt surfaces as a parked or abandoned
        // push; successes and supersedes do not.
        (
            FaultKind::HypercallFail,
            fold.pushes[PushOutcome::Parked as usize] + led.hypercalls_abandoned,
        ),
        (FaultKind::MmCrash, led.mm_crashes),
    ];
    for (kind, o) in control {
        let i = fold.fault(kind);
        println!("  {:<16} {i:>9} {o:>9}  {}", kind.as_str(), verdict(i == o));
    }
    // Data-plane pairings: an injected corruption is observed as a later
    // detection (get/flush/reclaim/scrub), an injected put I/O failure or
    // brownout rejection as a `reject_io` put result.
    let (bitflips, torn, detected, recovered) = (
        led.bitflips_injected,
        led.torn_writes_injected,
        led.corruptions_detected,
        led.corruptions_recovered,
    );
    let (io_fails, brownout_rejects) = (led.put_io_failures_injected, led.brownout_rejections);
    let data_active = bitflips
        + torn
        + led.ephemeral_losses_injected
        + io_fails
        + brownout_rejects
        + led.brownout_ticks
        + detected
        + recovered
        + led.scrub_passes
        > 0;
    if data_active {
        println!("-- data-plane integrity cross-check --");
        let corrupt_injected = bitflips + torn;
        println!(
            "  corruption: injected {corrupt_injected} (bitflip {bitflips} + torn {torn}), \
             detected {detected}  {}",
            verdict(detected == corrupt_injected)
        );
        println!(
            "  put I/O: injected {io_fails} + brownout-rejected {brownout_rejects}, \
             reject_io puts {reject_io_puts}  {}",
            verdict(reject_io_puts == io_fails + brownout_rejects)
        );
        println!(
            "  recovery: {recovered} of {detected} detections recovered in-guest  {}",
            verdict(recovered <= detected)
        );
        println!(
            "  losses={} brownout_ticks={} scrubs={} quarantined_objects={}",
            led.ephemeral_losses_injected,
            led.brownout_ticks,
            led.scrub_passes,
            led.objects_quarantined
        );
    }
    if mismatched > 0 {
        return Err(format!(
            "fault ledger cross-check failed: {mismatched} kind(s) where injected \
             faults and observed fates disagree"
        ));
    }
    Ok(())
}

/// One-cell result summary shared by `run` and `run-file`: each host's
/// results and, with `fleet_report`, a `-- host N --` line before each
/// host and the rendered fleet report after them.
fn print_result(c: &ClusterResult, fleet_report: bool) {
    for (h, r) in c.host_results.iter().enumerate() {
        if fleet_report {
            println!("-- host {h} --");
        }
        print_host_result(r);
    }
    if fleet_report {
        print!("{}", report::render_fleet(c));
    }
}

fn print_host_result(r: &RunResult) {
    println!(
        "{} / {}: end={} events={} disk_reads={} read_wait={} throttle={} mm_tx={}/{}",
        r.scenario,
        r.policy,
        r.end_time,
        r.events,
        r.disk_reads,
        r.disk_read_wait,
        r.disk_throttle,
        r.mm_transmissions,
        r.mm_cycles
    );
    for vm in &r.vm_results {
        let runs: Vec<String> = vm
            .runs
            .iter()
            .map(|rr| {
                let tail = format!(
                    " (df={} tf={} fp={})",
                    rr.stat_delta(|s| s.disk_faults).unwrap_or(0),
                    rr.stat_delta(|s| s.tmem_faults).unwrap_or(0),
                    rr.stat_delta(|s| s.failed_puts).unwrap_or(0),
                );
                match rr.duration() {
                    Some(d) => format!("{}={d}{tail}", rr.workload),
                    None => format!("{}=stopped{tail}", rr.workload),
                }
            })
            .collect();
        // Data-plane recovery counters only appear when the run actually
        // saw corruption or loss, keeping fault-free output unchanged.
        let k = &vm.kernel_stats;
        let integrity = if k.tmem_corrupt_faults + k.tmem_lost_pages > 0 {
            format!(
                " | corrupt={} retries={} lost={}",
                k.tmem_corrupt_faults, k.tmem_corrupt_retries, k.tmem_lost_pages
            )
        } else {
            String::new()
        };
        println!(
            "  {}: {} | tmem_ev={} disk_ev={} tmem_faults={} disk_faults={} failed_puts={}{}",
            vm.name,
            runs.join(", "),
            k.evictions_to_tmem,
            k.evictions_to_disk,
            k.tmem_faults,
            k.disk_faults,
            k.failed_puts,
            integrity,
        );
    }
}

/// `run-file`: run a declarative scenario file under one or more policies.
/// The file's `[run]` table supplies defaults for anything the command
/// line leaves unset; explicit flags and positional policies win.
fn run_file_cmd(
    path: &Path,
    policies: &[String],
    flags: &[String],
    a: &Args,
) -> Result<(), String> {
    let flag_given = |f: &str| flags.iter().any(|s| s == f);
    // Parse once at the CLI config just to read the [run] directives, then
    // re-parse at the effective scale (the spec's sizes depend on it).
    let probe = dsl::load_scenario(path, &run_config(a)?)?;
    let run = probe.run;
    let scale = if flag_given("--scale") {
        a.scale
    } else {
        run.scale.unwrap_or(a.scale)
    };
    let seed = if flag_given("--seed") {
        a.seed
    } else {
        run.seed.unwrap_or(a.seed)
    };
    let reps = if flag_given("--reps") {
        a.reps
    } else {
        u64::from(run.reps.unwrap_or(1))
    };
    let cfg = RunConfig {
        scale,
        seed,
        jobs: a.jobs,
        ..RunConfig::default()
    };
    cfg.validate()?;
    let doc = dsl::load_scenario(path, &cfg)?;

    let policy_list: Vec<PolicyKind> = if policies.is_empty() {
        run.policies
            .unwrap_or_else(|| vec![PolicyKind::SmartAlloc { p: 2.0 }])
    } else {
        policies
            .iter()
            .map(|p| dsl::parse_policy(p))
            .collect::<Result<_, _>>()?
    };

    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let faults = if a.chaos.is_some() {
        a.chaos.as_ref().map(|p| p.profile.clone())
    } else if let Some(entry) = &run.chaos {
        dsl::resolve_chaos(entry, dir)?.map(|p| p.profile)
    } else {
        None
    };

    let cluster = doc.cluster.clone().unwrap_or_default();
    println!(
        "== run-file {} — {} (scale {scale}, seed {seed}, reps {reps}) ==",
        path.display(),
        doc.spec.name
    );
    for policy in policy_list {
        for rep in 0..reps {
            let mut cfg = cfg.clone();
            cfg.seed = seed.wrapping_add(rep);
            if let Some(f) = &faults {
                cfg.faults = f.clone();
            }
            if reps > 1 {
                println!("-- rep {} --", rep + 1);
            }
            let cr = run_cluster(doc.spec.clone(), policy, &cfg, &cluster);
            print_result(&cr, doc.cluster.is_some());
        }
    }
    Ok(())
}

/// `sweep`: expand a manifest and run (or resume) its cell matrix with
/// per-cell checkpointing in the `--resume` directory.
fn sweep_cmd(path: &Path, a: &Args) -> Result<(), String> {
    let plan = batch::load_plan(path, a.jobs)?;
    let dir = a
        .resume
        .clone()
        .or_else(|| a.out.clone())
        .unwrap_or_else(|| {
            let stem = path
                .file_stem()
                .map_or_else(|| "sweep".to_string(), |s| s.to_string_lossy().into_owned());
            PathBuf::from(format!("{stem}-sweep"))
        });
    let outcome = batch::run_sweep(&plan, &dir, a.stop_after)?;
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    print!("{}", batch::render_report(&plan, &outcome));
    if outcome.resumed > 0 {
        println!(
            "resumed: {} cell(s) restored from the journal, {} run by this invocation",
            outcome.resumed, outcome.ran
        );
    }
    if outcome.complete() {
        let (report, csv) = batch::write_outputs(&plan, &dir, &outcome)?;
        println!("report: {}", report.display());
        println!("csv: {}", csv.display());
    } else {
        println!(
            "stopped with {}/{} cells done; rerun `smartmem-cli sweep {} --resume {}` to continue",
            outcome.records.len(),
            outcome.total,
            path.display(),
            dir.display()
        );
    }
    Ok(())
}

fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "table2" => {
            let a = parse_flags(rest)?;
            let cfg = run_config(&a)?;
            println!("== Table II — scenarios (scale {}) ==", a.scale);
            for (name, rows) in figures::table2_rows(&cfg) {
                println!("{name}");
                for r in rows {
                    println!("  {r}");
                }
            }
            Ok(())
        }
        "fig" => {
            let (n, rest) = rest.split_first().ok_or("fig needs a number (3-10)")?;
            let def = figure_def(n)?;
            figure(def, &parse_flags(rest)?)
        }
        "all" => {
            let a = parse_flags(rest)?;
            for def in figures::FIGURES {
                figure(def, &a)?;
                println!();
            }
            Ok(())
        }
        "bench-parallel" => {
            let a = parse_flags(rest)?;
            bench_parallel(&a)
        }
        "bench-fleet" => {
            let a = parse_flags(rest)?;
            bench_fleet(&a)
        }
        "chaos" => {
            let a = parse_flags(rest)?;
            let cfg = run_config(&a)?;
            let report = chaos::run_chaos(
                &cfg,
                &[ScenarioKind::Scenario1, ScenarioKind::Scenario2],
                &chaos::chaos_policies(),
                &chaos::shipped_profiles(),
                a.bound,
            );
            print!("{}", report.render());
            if let Some(dir) = &a.out {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                let path = dir.join("chaos_ledger.csv");
                std::fs::write(&path, report.to_csv())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("csv: {}", path.display());
            }
            if !report.passed() {
                return Err(format!(
                    "chaos verdict FAIL: {} cell(s) exceeded the {:.1}x degradation \
                     bound, {} invariant violation(s), {} undetected corruption(s)",
                    report.bound_violations().len(),
                    a.bound,
                    report.invariant_violations(),
                    report.undetected_corruptions(),
                ));
            }
            Ok(())
        }
        "trace" => trace_cmd(parse_cell("trace", rest)?),
        "run-file" => {
            let (file, rest) = rest
                .split_first()
                .ok_or("run-file needs a scenario .toml file")?;
            let split = rest
                .iter()
                .position(|s| s.starts_with("--"))
                .unwrap_or(rest.len());
            let (policies, flags) = rest.split_at(split);
            let a = parse_flags(flags)?;
            run_file_cmd(Path::new(file), policies, flags, &a)
        }
        "sweep" => {
            let (file, rest) = rest
                .split_first()
                .ok_or("sweep needs a manifest .toml file")?;
            let a = parse_flags(rest)?;
            sweep_cmd(Path::new(file), &a)
        }
        "inspect" => match rest {
            [path] => inspect_cmd(Path::new(path)),
            [] => Err("inspect needs a trace file (as written by `trace --out`)".into()),
            _ => Err("inspect takes exactly one trace file and no flags".into()),
        },
        "run" => {
            let c = parse_cell("run", rest)?;
            let cr = run_cluster(c.spec, c.policy, &c.cfg, &c.cluster);
            print_result(&cr, c.cluster.hosts > 1);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::spec::{Arrival, WorkloadMix};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = parse_flags(&args(&[])).unwrap();
        assert_eq!(a.scale, 0.125);
        assert_eq!(a.reps, 3);
        assert_eq!(a.seed, 42);
        assert!(a.out.is_none());
        assert_eq!(a.jobs, scenarios::par::default_jobs());
    }

    #[test]
    fn flags_parse_all_values() {
        let a = parse_flags(&args(&[
            "--scale", "0.5", "--reps", "5", "--seed", "7", "--out", "/tmp/x", "--jobs", "3",
        ]))
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.reps, 5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.jobs, 3);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse_flags(&args(&["--bogus"])).is_err());
        assert!(parse_flags(&args(&["--scale"])).is_err(), "missing value");
    }

    #[test]
    fn zero_jobs_is_rejected_with_guidance() {
        let err = parse_flags(&args(&["--jobs", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful message: {err}");
        assert!(parse_flags(&args(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn degenerate_scale_reps_and_bound_are_rejected() {
        assert!(parse_flags(&args(&["--scale", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_flags(&args(&["--scale", "-1"])).is_err());
        assert!(parse_flags(&args(&["--scale", "NaN"])).is_err());
        assert!(parse_flags(&args(&["--reps", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_flags(&args(&["--bound", "0.5"]))
            .unwrap_err()
            .contains(">= 1.0"));
        assert!(parse_flags(&args(&["--bound", "inf"])).is_err());
    }

    #[test]
    fn chaos_flag_accepts_only_shipped_profiles() {
        let a = parse_flags(&args(&["--chaos", "sample-loss"])).unwrap();
        assert_eq!(a.chaos.map(|p| p.name).as_deref(), Some("sample-loss"));
        let err = parse_flags(&args(&["--chaos", "meteor-strike"])).unwrap_err();
        assert!(err.contains("shipped:"), "unhelpful message: {err}");
    }

    #[test]
    fn filter_flag_parses_subsystem_lists() {
        let a = parse_flags(&args(&["--filter", "subsys=tmem,mm"])).unwrap();
        assert_eq!(a.filter, Some(vec![Subsystem::Tmem, Subsystem::Mm]));
        let err = parse_flags(&args(&["--filter", "tmem"])).unwrap_err();
        assert!(err.contains("subsys="), "unhelpful message: {err}");
        let err = parse_flags(&args(&["--filter", "subsys=warp"])).unwrap_err();
        assert!(err.contains("unknown subsystem"), "{err}");
        assert!(parse_flags(&args(&["--filter", "subsys="])).is_err());
    }

    #[test]
    fn run_config_is_validated() {
        let a = parse_flags(&args(&["--scale", "0.25"])).unwrap();
        assert!(run_config(&a).is_ok());
    }

    #[test]
    fn policies_parse() {
        assert_eq!(dsl::parse_policy("greedy").unwrap(), PolicyKind::Greedy);
        assert_eq!(dsl::parse_policy("no-tmem").unwrap(), PolicyKind::NoTmem);
        assert_eq!(
            dsl::parse_policy("smart-alloc:0.75").unwrap(),
            PolicyKind::SmartAlloc { p: 0.75 }
        );
        assert_eq!(
            dsl::parse_policy("predictive").unwrap(),
            PolicyKind::Predictive
        );
        assert!(dsl::parse_policy("smart-alloc:x").is_err());
        assert!(dsl::parse_policy("nonsense").is_err());
    }

    #[test]
    fn scenarios_parse() {
        assert_eq!(
            dsl::parse_kind("usemem").unwrap(),
            ScenarioKind::UsememScenario
        );
        assert_eq!(
            dsl::parse_kind("scenario3").unwrap(),
            ScenarioKind::Scenario3
        );
        assert!(dsl::parse_kind("scenario9").is_err());
    }

    #[test]
    fn fleet_scenarios_parse() {
        assert_eq!(
            dsl::parse_kind("fleet").unwrap(),
            ScenarioKind::Scenario5(FleetParams::default())
        );
        assert_eq!(
            dsl::parse_kind("scenario5").unwrap(),
            ScenarioKind::Scenario5(FleetParams::default())
        );
        assert_eq!(
            dsl::parse_kind("fleet:16").unwrap(),
            ScenarioKind::Scenario5(FleetParams {
                vms: 16,
                ..FleetParams::default()
            })
        );
        assert_eq!(
            dsl::parse_kind("fleet:32:256:paging:100").unwrap(),
            ScenarioKind::Scenario5(FleetParams {
                vms: 32,
                footprint_mb: 256,
                mix: WorkloadMix::Paging,
                arrival: Arrival::Staggered { gap_ms: 100 },
            })
        );
        assert_eq!(
            dsl::parse_kind("fleet:8:64:serving:0").unwrap(),
            ScenarioKind::Scenario5(FleetParams {
                vms: 8,
                footprint_mb: 64,
                mix: WorkloadMix::Serving,
                arrival: Arrival::Simultaneous,
            }),
            "gap 0 means simultaneous arrivals"
        );
        assert!(dsl::parse_kind("fleet:0").is_err(), "zero VMs");
        assert!(dsl::parse_kind("fleet:8:0").is_err(), "zero footprint");
        assert!(dsl::parse_kind("fleet:8:64:warp").is_err(), "unknown mix");
        assert!(
            dsl::parse_kind("fleet:8:64:paging:5:9").is_err(),
            "trailing part"
        );
        assert!(dsl::parse_kind("fleet:x").is_err());
    }

    #[test]
    fn figure_numbers_are_validated() {
        assert_eq!(figure_def("7").unwrap().id, "fig7");
        assert!(figure_def("11").is_err());
        assert!(figure_def("2").is_err());
        assert!(figure_def("x").is_err());
    }

    #[test]
    fn run_applies_the_chaos_profile() {
        let cell = parse_cell("run", &args(&["scenario1", "greedy", "--chaos", "bitrot"])).unwrap();
        let bitrot = chaos::shipped_profiles()
            .into_iter()
            .find(|p| p.name == "bitrot")
            .unwrap();
        assert_eq!(cell.cfg.faults, bitrot.profile);
        assert_ne!(cell.cfg.faults, sim_core::faults::FaultProfile::none());
        let plain = parse_cell("run", &args(&["scenario1", "greedy"])).unwrap();
        assert_eq!(plain.cfg.faults, sim_core::faults::FaultProfile::none());
    }

    #[test]
    fn cells_carry_the_host_count_and_cluster_name() {
        let one = parse_cell("run", &args(&["fleet:8:16", "greedy"])).unwrap();
        assert_eq!(one.cluster.hosts, 1);
        assert_eq!(one.spec.name, "scenario5-8x16mb-balanced");
        let two = parse_cell("trace", &args(&["fleet:2x8:16", "greedy"])).unwrap();
        assert_eq!(two.cluster.hosts, 2);
        assert_eq!(two.spec.name, "scenario5-2x8x16mb-balanced");
        assert!(parse_cell("run", &args(&["scenario1"]))
            .err()
            .is_some_and(|e| e.contains("run needs a policy")));
    }
}
