//! Shared plumbing for the benchmark harnesses.
//!
//! The paper's tables and figures come from `smartmem-cli` (`table2`,
//! `fig`, `all`); the `cargo bench` targets are the ablations around them.
//! Scale and repetitions are tunable through environment variables so CI
//! can run quick passes and a workstation can run paper-sized ones:
//!
//! * `SMARTMEM_BENCH_SCALE` — memory scale (default 0.125),
//! * `SMARTMEM_BENCH_REPS` — repetitions per configuration (default 2;
//!   the paper uses 5),
//! * `SMARTMEM_BENCH_SEED` — root seed (default 42).

use scenarios::config::RunConfig;

pub mod measure;

/// Benchmark run configuration from the environment.
pub fn bench_config() -> RunConfig {
    let scale = std::env::var("SMARTMEM_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.125);
    let seed = std::env::var("SMARTMEM_BENCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    RunConfig {
        scale,
        seed,
        ..RunConfig::default()
    }
}

/// Repetitions per configuration.
pub fn bench_reps() -> u64 {
    std::env::var("SMARTMEM_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Print the figure header used by every harness.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!(
        "scale={} reps={} (env: SMARTMEM_BENCH_SCALE / SMARTMEM_BENCH_REPS)",
        bench_config().scale,
        bench_reps()
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = bench_config();
        assert!(cfg.scale > 0.0 && cfg.scale <= 1.0);
        assert!(bench_reps() >= 1);
    }
}
