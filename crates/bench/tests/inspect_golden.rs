//! `smartmem-cli inspect` output, pinned byte for byte.
//!
//! Each case records one small Scenario 2 trace with `smartmem-cli trace`,
//! reads it back with `smartmem-cli inspect`, and compares inspect's stdout
//! (per-VM admission table, target-vector timeline, fault cross-checks)
//! with a committed golden. The trace is written under a relative name so
//! the header line carries no machine-specific path. Regenerate after a
//! deliberate output change with:
//!
//! ```text
//! REGEN_TRACE_GOLDEN=1 cargo test -p smartmem-bench --test inspect_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn cli(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_smartmem-cli"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("smartmem-cli runs");
    assert!(
        out.status.success(),
        "smartmem-cli {} failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Trace Scenario 2 under smart-alloc with `chaos`, then compare the
/// `inspect` stdout of that trace with `golden/<name>`.
fn check_inspect(chaos: &str, name: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("inspect-{chaos}"));
    std::fs::create_dir_all(&dir).unwrap();
    cli(
        &dir,
        &[
            "trace",
            "scenario2",
            "smart-alloc:2",
            "--scale",
            "0.01",
            "--seed",
            "42",
            "--chaos",
            chaos,
            "--out",
            "t.jsonl",
        ],
    );
    let actual = cli(&dir, &["inspect", "t.jsonl"]);
    let golden: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        std::fs::write(&golden, &actual).unwrap();
        panic!(
            "regenerated {} — rerun without REGEN_TRACE_GOLDEN",
            golden.display()
        );
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("reading golden {}: {e}", golden.display()));
    assert_eq!(actual, expected, "inspect output drifted from {name}");
}

#[test]
fn inspect_sample_loss_trace_matches_golden() {
    check_inspect("sample-loss", "inspect_s2_smart2_sample-loss.txt");
}

#[test]
fn inspect_bitrot_trace_matches_golden() {
    check_inspect("bitrot", "inspect_s2_smart2_bitrot.txt");
}
