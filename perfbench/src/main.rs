//! The repository benchmark: one workload per process, end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--pin` re-runs every cell at every pool seed and rewrites `pins.tsv`.
//! See `perfbench/README.md` for the metric glossary.

mod cells;
mod pins;
mod probes;
mod stats;

use cells::{prepare, run_cell, warm_workloads, CellDef, CellOutcome, Prepared, Workload, POOL};
use pins::{Pins, PINNED};
use scenarios::par::{default_jobs, run_indexed};
use stats::{median, tail};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, in print order: (name, unit).
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_wall_s.p50", "s"),
    ("cell_wall_s.tail", "s"),
    ("cells_per_s", "1/s"),
    ("sim_events_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("rss_bytes_per_sim_page", "bytes"),
    ("cells_passed_ratio", "ratio"),
    ("sim_vm_runtime_s", "sim_s"),
    ("sim_makespan_s", "sim_s"),
];

/// Per-layer metrics, in print order: (name, unit).
pub const PER_LAYER: [(&str, &str); 57] = [
    ("workloads.build_s", "s"),
    ("workloads.step_ns", "ns"),
    ("workloads.steps", "count"),
    ("guest-os.touch_ns", "ns"),
    ("guest-os.minor_faults", "count"),
    ("guest-os.tmem_faults", "count"),
    ("guest-os.disk_faults", "count"),
    ("guest-os.evictions_to_tmem", "count"),
    ("guest-os.evictions_to_disk", "count"),
    ("guest-os.failed_puts", "count"),
    ("guest-os.reclaimed_pages", "count"),
    ("guest-os.disk.reads", "count"),
    ("guest-os.disk.writes", "count"),
    ("guest-os.disk.read_wait_s", "sim_s"),
    ("guest-os.disk.throttle_s", "sim_s"),
    ("tmem.put_ns", "ns"),
    ("tmem.get_ns", "ns"),
    ("tmem.flush_object_ns", "ns"),
    ("tmem.puts", "count"),
    ("tmem.gets", "count"),
    ("tmem.get_hit_ratio", "ratio"),
    ("tmem.evictions", "count"),
    ("xen-sim.put_ns", "ns"),
    ("xen-sim.get_ns", "ns"),
    ("xen-sim.put_admit_ratio", "ratio"),
    ("xen-sim.reject_target", "count"),
    ("xen-sim.reject_capacity", "count"),
    ("xen-sim.far_puts", "count"),
    ("xen-sim.far_hits", "count"),
    ("xen-sim.virq_samples", "count"),
    ("core.mm.on_stats_ns", "ns"),
    ("core.mm.cycles", "count"),
    ("core.mm.transmissions", "count"),
    ("core.mm.tx_ratio", "ratio"),
    ("core.fleet.migrations", "count"),
    ("core.fleet.downtime_s", "sim_s"),
    ("core.fleet.cross_host_pages", "count"),
    ("core.fleet.stranded_page_intervals", "count"),
    ("sim-core.event.dispatched", "count"),
    ("sim-core.event.host_ns", "ns"),
    ("sim-core.event.queue_ns", "ns"),
    ("sim-core.trace.events", "count"),
    ("sim-core.trace.dropped", "count"),
    ("sim-core.trace.record_s", "s"),
    ("sim-core.trace.jsonl_bytes", "bytes"),
    ("sim-core.trace.jsonl_s", "s"),
    ("sim-core.faults.injected", "count"),
    ("sim-core.faults.detected", "count"),
    ("sim-core.netmodel.transfers", "count"),
    ("sim-core.netmodel.queue_wait_s", "sim_s"),
    ("scenarios.spec_s", "s"),
    ("scenarios.run_s", "s"),
    ("scenarios.verify_s", "s"),
    ("scenarios.verify_ns_per_event", "ns"),
    ("scenarios.par_busy_ratio", "ratio"),
    ("scenarios.render_s", "s"),
    ("scenarios.unattributed_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Pin,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv == ["--pin"] {
        return Ok(Mode::Pin);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' ({})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Mode::Pin) => pin(),
        Ok(Mode::Run(a)) => run(&a, start),
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set of this process (VmHWM), bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit the benchmark was built from, when run inside a git checkout.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}

/// One set-up: resolve and validate every cell, then build every VM's
/// workloads once. Returns the cells and the time spent in spec building
/// and in `WorkloadSpec::build` (per VM).
fn setup(defs: &[CellDef], seed: u64, jobs: usize) -> Result<(Vec<Prepared>, f64, f64), String> {
    let t = Instant::now();
    let cells = defs
        .iter()
        .map(|d| prepare(d, d.pool_index(seed), jobs))
        .collect::<Result<Vec<_>, _>>()?;
    let spec_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let built: u64 = cells.iter().map(warm_workloads).sum();
    let build_s = t.elapsed().as_secs_f64() / built.max(1) as f64;
    Ok((cells, spec_s, build_s))
}

/// One measured pass: every cell once, closed loop over `jobs` workers.
struct Pass {
    wall_s: f64,
    cells: Vec<CellOutcome>,
}

fn run_pass(cells: &[Prepared], jobs: usize) -> Pass {
    let t = Instant::now();
    let outs = run_indexed(cells.iter().collect(), jobs, |_, p| run_cell(p, p.traced));
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        cells: outs,
    }
}

fn run(a: &Args, process_start: Instant) -> Result<(), String> {
    let pins = Pins::parse(PINNED)?;
    if pins.len() == 0 {
        return Err("pins.tsv is empty; run with --pin first".into());
    }
    let jobs = default_jobs();
    let defs = a.workload.cells();
    println!(
        "meta: workload={} seed={} seconds={} trace={} nproc={} jobs={jobs} \
         profile={} rev={} pool={POOL} cells/pass={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        default_jobs(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision(),
        defs.len(),
    );

    // The first set-up is timed from process start. One more runs after
    // every pass, so the set-up median samples the whole run, not only its
    // first second.
    let (mut setups, mut spec_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = |from: Instant| -> Result<Vec<Prepared>, String> {
        let (cells, s, b) = setup(&defs, a.seed, jobs)?;
        setups.push(from.elapsed().as_secs_f64());
        spec_s.push(s);
        build_s.push(b);
        Ok(cells)
    };
    let cells = set_up(process_start)?;

    // Trace mode spends half the budget on passes and the rest on the
    // traced/untraced re-runs and the probes.
    let budget = Duration::from_secs(a.seconds).mul_f64(if a.trace { 0.5 } else { 1.0 });
    let t = Instant::now();
    let mut passes = vec![run_pass(&cells, jobs)];
    // Set-up plus one pass is the whole workload once; later passes only
    // repeat it, so the peak is read here.
    let peak_rss = peak_rss_bytes()?;
    loop {
        set_up(Instant::now())?;
        if t.elapsed() >= budget {
            break;
        }
        passes.push(run_pass(&cells, jobs));
    }

    for o in &passes[0].cells {
        let c = |k| o.counts.get(k).copied().unwrap_or(0.0);
        println!(
            "cell {} pool={} wall_s={:.3} events={} verdict={} migrations={} far_puts={}",
            o.label,
            o.pool_idx,
            o.wall_s,
            o.events,
            o.verdict.as_str(),
            c("core.fleet.migrations"),
            c("xen-sim.far_puts"),
        );
    }
    for (i, p) in passes.iter().enumerate() {
        println!("pass {i} wall_s={:.3}", p.wall_s);
    }
    for o in passes.iter_mut().flat_map(|p| &mut p.cells) {
        if let Err(e) = pins.check(o) {
            o.failures.push(e);
        }
        if !o.failures.is_empty() {
            println!(
                "FAILED {} (pool {}): {}",
                o.label,
                o.pool_idx,
                o.failures.join("; ")
            );
        }
    }
    let all: Vec<&CellOutcome> = passes.iter().flat_map(|p| &p.cells).collect();
    let failed = all.iter().filter(|o| !o.failures.is_empty()).count();
    let attempted = all.len() as u64;

    let metrics = if a.trace {
        per_layer(&cells, &passes, jobs, &spec_s, &build_s)
    } else {
        end_to_end(&cells, &passes, &setups, &all, peak_rss)?
    };
    for (name, unit, v) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Median over passes of a per-pass figure.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(
    cells: &[Prepared],
    passes: &[Pass],
    setups: &[f64],
    all: &[&CellOutcome],
    peak: f64,
) -> Result<Metrics, String> {
    let cell_walls: Vec<f64> = all.iter().map(|o| o.wall_s).collect();
    let (tail_v, tail_pct, n) = tail(&cell_walls);
    println!("cell_wall_s.tail is p{tail_pct:.1} of {n} cells");
    let first = &passes[0].cells;
    let vm_runtimes: Vec<f64> = first.iter().flat_map(|o| o.vm_runtime_s.clone()).collect();
    let largest = cells.iter().map(Prepared::sim_pages).max().unwrap_or(1);
    let passed = all.iter().filter(|o| o.passed()).count();
    let values = [
        median(setups),
        per_pass(passes, |p| p.wall_s),
        median(&cell_walls),
        tail_v,
        per_pass(passes, |p| {
            p.cells.iter().filter(|o| o.passed()).count() as f64 / p.wall_s
        }),
        per_pass(passes, |p| {
            p.cells.iter().map(|o| o.events as f64).sum::<f64>() / p.wall_s
        }),
        per_pass(passes, |p| {
            p.cells.iter().map(|o| o.sessions as f64).sum::<f64>() / p.wall_s
        }),
        peak / (1024.0 * 1024.0),
        peak / largest as f64,
        passed as f64 / all.len() as f64,
        vm_runtimes.iter().sum::<f64>() / vm_runtimes.len() as f64,
        first.iter().map(|o| o.makespan_s).sum::<f64>() / first.len() as f64,
    ];
    let mut out = Vec::new();
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "{name} measured {v}; every end-to-end metric must be > 0"
            ));
        }
        out.push((*name, *unit, v));
    }
    Ok(out)
}

fn per_layer(
    cells: &[Prepared],
    passes: &[Pass],
    jobs: usize,
    spec_s: &[f64],
    build_s: &[f64],
) -> Metrics {
    // Each cell of the pass once untraced and once traced on one worker:
    // the difference is the recorder's cost, and the traced copy carries
    // the trace-derived counts.
    let both: Vec<(CellOutcome, CellOutcome)> =
        run_indexed(cells.iter().collect(), jobs, |_, p| {
            (run_cell(p, false), run_cell(p, true))
        });
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    for (_, traced) in &both {
        for (k, v) in &traced.counts {
            *counts.entry(k).or_default() += v;
        }
    }
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let sum = |f: &dyn Fn(&(CellOutcome, CellOutcome)) -> f64| both.iter().map(f).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let largest = cells
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| p.sim_pages())
        .map(|(i, _)| i)
        .expect("a workload has cells");
    let big = &cells[largest];
    let big_counts = &both[largest].1.counts;
    let bc = |k: &str| big_counts.get(k).copied().unwrap_or(0.0);
    let hosts = big.cluster.hosts;
    let persistent = bc("guest-os.evictions_to_tmem") + bc("guest-os.failed_puts");
    let shape = probes::Shape {
        vms: big.spec.vms.len().div_ceil(hosts),
        tmem_pages: big.spec.tmem_pages() / hosts as u64,
        ram_pages: big
            .spec
            .vms
            .iter()
            .map(|v| v.config.ram_pages())
            .max()
            .unwrap_or(64),
        puts: c("tmem.puts") as u64,
        gets: c("tmem.gets") as u64,
        persistent_share: ratio(persistent, bc("tmem.puts")).clamp(0.0, 1.0),
        mm_cycles: c("core.mm.cycles") as u64,
        events: c("sim-core.event.dispatched") as u64,
        policy: big.policy,
    };
    let (tmem_put, tmem_get, tmem_flush) = probes::tmem(&shape);
    let (xen_put, xen_get) = probes::xen(&shape);
    let mm_ns = probes::mm(&shape);
    let queue_ns = probes::queue(&shape);
    let touch_ns = probes::touch(&shape);
    let (step_ns, steps) = probes::workload_steps(&cells.iter().collect::<Vec<_>>());

    let run_s = per_pass(passes, |p| p.cells.iter().map(|o| o.run_s).sum());
    let busy = per_pass(passes, |p| {
        p.cells.iter().map(|o| o.wall_s).sum::<f64>() / (jobs as f64 * p.wall_s)
    });
    let render_s = per_pass(passes, |p| p.cells.iter().map(|o| o.render_s).sum());
    let events = c("sim-core.event.dispatched");
    let verify_s = sum(&|b| b.1.verify_s);
    let attributed_s =
        (step_ns * steps as f64 + queue_ns * events + mm_ns * c("core.mm.cycles")) / 1e9;

    let values: [f64; 57] = [
        median(build_s),
        step_ns,
        steps as f64,
        touch_ns,
        c("guest-os.minor_faults"),
        c("guest-os.tmem_faults"),
        c("guest-os.disk_faults"),
        c("guest-os.evictions_to_tmem"),
        c("guest-os.evictions_to_disk"),
        c("guest-os.failed_puts"),
        c("guest-os.reclaimed_pages"),
        c("guest-os.disk.reads"),
        c("guest-os.disk.writes"),
        c("guest-os.disk.read_wait_s"),
        c("guest-os.disk.throttle_s"),
        tmem_put,
        tmem_get,
        tmem_flush,
        c("tmem.puts"),
        c("tmem.gets"),
        ratio(c("tmem.get_hits"), c("tmem.gets")),
        c("tmem.evictions"),
        xen_put,
        xen_get,
        ratio(c("xen-sim.puts_admitted"), c("xen-sim.puts_recorded")),
        c("xen-sim.reject_target"),
        c("xen-sim.reject_capacity"),
        c("xen-sim.far_puts"),
        c("xen-sim.far_hits"),
        c("xen-sim.virq_samples"),
        mm_ns,
        c("core.mm.cycles"),
        c("core.mm.transmissions"),
        ratio(c("core.mm.transmissions"), c("core.mm.cycles")),
        c("core.fleet.migrations"),
        c("core.fleet.downtime_s"),
        c("core.fleet.cross_host_pages"),
        c("core.fleet.stranded_page_intervals"),
        events,
        ratio(run_s * 1e9, events),
        queue_ns,
        c("sim-core.trace.events"),
        c("sim-core.trace.dropped"),
        sum(&|b| b.1.run_s - b.0.run_s),
        c("sim-core.trace.jsonl_bytes"),
        sum(&|b| b.1.jsonl_s),
        c("sim-core.faults.injected"),
        c("sim-core.faults.detected"),
        c("sim-core.netmodel.transfers"),
        c("sim-core.netmodel.queue_wait_s"),
        median(spec_s),
        run_s,
        verify_s,
        ratio(verify_s * 1e9, c("sim-core.trace.events")),
        busy,
        render_s,
        run_s - attributed_s,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, if v.is_finite() { v } else { 0.0 }))
        .collect()
}

/// Run every cell of every workload at every pool seed and rewrite
/// `pins.tsv`. Refuses to pin a cell that breaks an invariant or whose
/// replay fails.
fn pin() -> Result<(), String> {
    let jobs = default_jobs();
    let mut defs: Vec<CellDef> = Vec::new();
    for w in Workload::ALL {
        for d in w.cells() {
            if !defs.iter().any(|e| e.label() == d.label()) {
                defs.push(d);
            }
        }
    }
    let grid = defs
        .iter()
        .flat_map(|d| (0..POOL).map(move |i| prepare(d, i, jobs)))
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "pinning {} cells x {POOL} seeds on {jobs} workers",
        defs.len()
    );
    let outs = run_indexed(grid, jobs, |_, p| run_cell(&p, p.traced));
    for o in &outs {
        if !o.failures.is_empty() || o.verdict == cells::Verdict::Fail {
            return Err(format!(
                "refusing to pin {} (pool {}): {:?} {:?}",
                o.label, o.pool_idx, o.verdict, o.failures
            ));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.tsv");
    std::fs::write(&path, Pins::render(&outs))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {} pins to {}", outs.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::{cell_digest, pool_seed, Verdict};
    use scenarios::runner::run_cluster;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let section = json
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("section present")
            .split(']')
            .next()
            .expect("section closes");
        let field = |obj: &str, f: &str| {
            obj.split(&format!("\"{f}\": \""))
                .nth(1)
                .and_then(|r| r.split('"').next())
                .map(str::to_string)
        };
        section
            .split('}')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} missing from BENCHMARK.json",
                w.name()
            );
        }
    }

    /// The cheapest paper cell, run at pool entry 0.
    fn usemem_cell() -> (CellDef, Prepared) {
        let def = Workload::PaperGrid
            .cells()
            .into_iter()
            .find(|d| d.label() == "usemem greedy")
            .expect("usemem/greedy is a paper-grid cell");
        let p = prepare(&def, 0, 1).expect("valid cell");
        assert_eq!(p.cfg.seed, pool_seed(&def.label(), 0));
        (def, p)
    }

    #[test]
    fn a_fresh_run_matches_its_pin() {
        let (_, p) = usemem_cell();
        let pins = Pins::parse(PINNED).expect("pins.tsv parses");
        let out = run_cell(&p, false);
        assert!(out.passed(), "{:?}", out.failures);
        pins.check(&out).expect("the pinned digest reproduces");
    }

    #[test]
    fn a_perturbed_run_result_fails_the_digest_check() {
        let (_, p) = usemem_cell();
        let mut r = run_cluster(p.spec.clone(), p.policy, &p.cfg, &p.cluster).host_results;
        let outcome = |digest: String| CellOutcome {
            label: p.label.clone(),
            pool_idx: p.pool_idx,
            digest,
            verdict: Verdict::Untraced,
            ..CellOutcome::default()
        };
        let good = outcome(cell_digest(&r, &[]));
        let pins = Pins::parse(&Pins::render(std::slice::from_ref(&good))).expect("round trip");
        pins.check(&good).expect("identical outputs pass");

        r[0].vm_results[0].kernel_stats.tmem_faults += 1;
        let bad = outcome(cell_digest(&r, &[]));
        let err = pins.check(&bad).expect_err("a changed result must fail");
        assert!(err.contains("outputs changed"), "{err}");
    }

    #[test]
    fn a_replay_that_stops_passing_fails_the_check() {
        let pinned = CellOutcome {
            label: "cell".into(),
            digest: "d".into(),
            verdict: Verdict::Pass,
            ..CellOutcome::default()
        };
        let pins = Pins::parse(&Pins::render(std::slice::from_ref(&pinned))).expect("round trip");
        for (now, ok) in [
            (Verdict::Pass, true),
            (Verdict::Unavailable, false),
            (Verdict::Fail, false),
        ] {
            let o = CellOutcome {
                verdict: now,
                ..pinned.clone()
            };
            assert_eq!(pins.check(&o).is_ok(), ok, "{now:?}");
        }
    }
}
