//! Digests and replay verdicts pinned when the benchmark was created.
//!
//! `pins.tsv` holds one line per (cell, pool entry):
//! `<cell label>\t<pool index>\t<digest>\t<verdict>`. A run whose digest
//! differs from the pin changed the simulator's behaviour: that is a failed
//! cell, not a speed-up. Regenerate with `--pin` only when a behaviour
//! change is intended.

use crate::cells::{CellOutcome, Verdict};
use std::collections::BTreeMap;

/// The pins compiled into this build.
pub const PINNED: &str = include_str!("../pins.tsv");

/// Pinned outputs keyed by (cell label, pool index).
#[derive(Debug, Default)]
pub struct Pins(BTreeMap<(String, u64), (String, Verdict)>);

impl Pins {
    /// Parse the pin file.
    pub fn parse(src: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (i, line) in src.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("pins.tsv line {}: malformed '{line}'", i + 1);
            if f.len() != 4 {
                return Err(bad());
            }
            let idx: u64 = f[1].parse().map_err(|_| bad())?;
            let verdict = Verdict::parse(f[3]).ok_or_else(bad)?;
            map.insert((f[0].to_string(), idx), (f[2].to_string(), verdict));
        }
        Ok(Pins(map))
    }

    /// Render outcomes as a pin file, sorted by key.
    pub fn render(outcomes: &[CellOutcome]) -> String {
        let mut map = BTreeMap::new();
        for o in outcomes {
            map.insert((o.label.clone(), o.pool_idx), (o.digest.clone(), o.verdict));
        }
        let mut s = String::from(
            "# cell label\tpool index\tdigest (result_digest per host, then JSONL per host)\
             \treplay verdict\n",
        );
        for ((label, idx), (digest, verdict)) in map {
            s.push_str(&format!("{label}\t{idx}\t{digest}\t{}\n", verdict.as_str()));
        }
        s
    }

    /// Check one executed cell against its pin. `Err` names why the cell's
    /// output is wrong. A replay that became verifiable is an improvement,
    /// not a failure.
    pub fn check(&self, o: &CellOutcome) -> Result<(), String> {
        let Some((digest, pinned)) = self.0.get(&(o.label.clone(), o.pool_idx)) else {
            return Err(format!("no pin for '{}' pool {}", o.label, o.pool_idx));
        };
        if *digest != o.digest {
            return Err(format!(
                "digest {} != pinned {digest}: the outputs changed",
                o.digest
            ));
        }
        let verdict = o.verdict;
        let regressed = match pinned {
            Verdict::Pass => verdict != Verdict::Pass,
            Verdict::Untraced => verdict != Verdict::Untraced,
            Verdict::Unavailable | Verdict::Fail => verdict == Verdict::Fail,
        };
        if verdict == Verdict::Fail || regressed {
            return Err(format!(
                "replay {} (pinned {})",
                verdict.as_str(),
                pinned.as_str()
            ));
        }
        Ok(())
    }

    /// Number of pinned entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}
