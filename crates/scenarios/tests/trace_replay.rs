//! Replay verification of the flight recorder, end to end.
//!
//! The trace schema is a load-bearing contract: `trace_check::verify_cluster`
//! checks the fold of the event stream (per-VM tmem occupancy, the
//! admission counters and the fault ledger) against the live accounting,
//! and it must land exactly for every covered cell. Two golden files pin the serialized
//! JSONL form byte-exactly — one synthetic trace exercising every payload
//! variant, and one real (filtered) run. Regenerate them after a deliberate
//! schema change with:
//!
//! ```text
//! REGEN_TRACE_GOLDEN=1 cargo test -p smartmem-scenarios --test trace_replay
//! ```

use scenarios::chaos::{chaos_policies, shipped_profiles};
use scenarios::config::RunConfig;
use scenarios::runner::run_scenario;
use scenarios::{trace_check, ScenarioKind};
use sim_core::cost::CostModel;
use sim_core::faults::{FaultProfile, NetlinkFate, SampleFate};
use sim_core::time::SimTime;
use sim_core::trace::{
    FaultKind, Fold, Payload, PushOutcome, PutResult, Recorder, Subsystem, TraceConfig, TraceData,
    TraceHeader, Tracer, TRACE_SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};

fn traced_cfg(faults: FaultProfile) -> RunConfig {
    RunConfig {
        scale: 0.01,
        seed: 42,
        record_series: true, // the verifier checks the series point-wise
        trace: Some(TraceConfig::default()),
        faults,
        ..RunConfig::default()
    }
}

fn sample_loss() -> FaultProfile {
    shipped_profiles()
        .into_iter()
        .find(|p| p.name == "sample-loss")
        .expect("sample-loss ships with the chaos suite")
        .profile
}

/// Run one traced cell and assert its replay lands exactly on the live
/// accounting. Cells run on worker threads so multi-core hosts overlap them.
fn verify_cells(
    cells: Vec<(
        ScenarioKind,
        scenarios::PolicyKind,
        &'static str,
        FaultProfile,
    )>,
) {
    std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .into_iter()
            .map(|(scenario, policy, chaos, faults)| {
                s.spawn(move || {
                    let r = run_scenario(scenario, policy, &traced_cfg(faults));
                    let cell = format!("{} / {} / chaos {chaos}", r.scenario, r.policy);
                    let rep = trace_check::verify_cluster(std::slice::from_ref(&r))
                        .unwrap_or_else(|e| panic!("{cell}: replay unavailable: {e}"));
                    assert!(
                        rep.ok(),
                        "{cell}: replay diverged from live accounting:\n  {}",
                        rep.mismatches.join("\n  ")
                    );
                    assert!(
                        rep.events > 0 && rep.checks > 0,
                        "{cell}: degenerate replay ({} events, {} checks)",
                        rep.events,
                        rep.checks
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("replay cell panicked");
        }
    });
}

/// Fast default slice of the grid: both scenarios, a smart and a static
/// policy, chaos off and on. The exhaustive grid lives in the `#[ignore]`d
/// test below (CI runs it with `--ignored`).
#[test]
fn replay_reproduces_live_accounting_representative_cells() {
    verify_cells(vec![
        (
            ScenarioKind::Scenario1,
            scenarios::PolicyKind::SmartAlloc { p: 2.0 },
            "off",
            FaultProfile::none(),
        ),
        (
            ScenarioKind::Scenario1,
            scenarios::PolicyKind::Greedy,
            "sample-loss",
            sample_loss(),
        ),
        (
            ScenarioKind::Scenario2,
            scenarios::PolicyKind::StaticAlloc,
            "sample-loss",
            sample_loss(),
        ),
    ]);
}

/// (Scenario1–2 × the four managed policies × chaos off/sample-loss):
/// replaying the event stream must reproduce the final per-VM occupancy,
/// the admission counters and the fault ledger exactly, in every cell.
/// ~45 s on one core — part of the slow suite (`cargo test -- --ignored`).
#[test]
#[ignore = "exhaustive 16-cell grid; CI runs it via --ignored"]
fn replay_reproduces_live_accounting_across_the_grid() {
    let mut cells = Vec::new();
    for scenario in [ScenarioKind::Scenario1, ScenarioKind::Scenario2] {
        for policy in chaos_policies() {
            for (chaos, faults) in [
                ("off", FaultProfile::none()),
                ("sample-loss", sample_loss()),
            ] {
                cells.push((scenario, policy, chaos, faults));
            }
        }
    }
    verify_cells(cells);
}

/// A ring far smaller than the run drops most events, but the recorder
/// folds every event before the ring sees it, so replay still covers the
/// whole run — and still catches a live counter that disagrees with it.
#[test]
fn replay_survives_a_dropping_ring_and_names_mismatches() {
    let cfg = RunConfig {
        trace: Some(TraceConfig { capacity: 4096 }),
        ..traced_cfg(FaultProfile::none())
    };
    let mut r = run_scenario(
        ScenarioKind::Scenario1,
        scenarios::PolicyKind::SmartAlloc { p: 2.0 },
        &cfg,
    );
    let data = r.trace.as_ref().expect("trace was configured");
    assert!(data.dropped_oldest > 0, "the ring must overflow");
    let rep = trace_check::verify_cluster(std::slice::from_ref(&r)).expect("trace attached");
    assert!(
        rep.ok(),
        "replay diverged from live accounting:\n  {}",
        rep.mismatches.join("\n  ")
    );
    assert_eq!(
        rep.events as u64,
        data.events.len() as u64 + data.dropped_oldest,
        "replay folds every recorded event, dropped ones included"
    );

    r.final_tmem_used[0] += 1;
    r.faults.samples_delivered += 1;
    let rep = trace_check::verify_cluster(std::slice::from_ref(&r)).expect("trace attached");
    let name = &r.vm_results[0].name;
    for what in [
        format!("final occupancy[{name}]"),
        "ledger.samples_delivered".to_string(),
    ] {
        assert!(
            rep.mismatches.iter().any(|m| m.starts_with(&what)),
            "no mismatch names {what}: {:?}",
            rep.mismatches
        );
    }
    assert_eq!(rep.mismatches.len(), 2, "{:?}", rep.mismatches);
}

/// JSONL round-trip: parse(to_jsonl(trace)) returns the same events and
/// header fields, and re-serializing the parsed events is byte-stable.
#[test]
fn jsonl_round_trips_exactly() {
    let cfg = RunConfig {
        time_scale: Some(0.1), // fewer intervals — this test is about bytes
        ..traced_cfg(sample_loss())
    };
    let r = run_scenario(
        ScenarioKind::Scenario1,
        scenarios::PolicyKind::SmartAlloc { p: 2.0 },
        &cfg,
    );
    let data = r.trace.as_ref().expect("trace was configured");
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed: cfg.seed,
        filter: None,
    };
    let text = data.to_jsonl(&header, None);
    let parsed = TraceData::parse_jsonl(&text).expect("own output must parse");
    assert_eq!(parsed.version, TRACE_SCHEMA_VERSION);
    assert_eq!(parsed.scenario, r.scenario);
    assert_eq!(parsed.policy, r.policy);
    assert_eq!(parsed.seed, cfg.seed);
    assert_eq!(parsed.dropped_oldest, 0);
    assert_eq!(parsed.filter, None);
    assert_eq!(parsed.events, data.events, "events must round-trip exactly");

    assert_eq!(
        Fold::of(&parsed.events),
        data.fold,
        "folding the parsed events must give the recorder's online fold"
    );

    let re = TraceData {
        events: parsed.events,
        dropped_oldest: parsed.dropped_oldest,
        ..TraceData::default() // metrics and the fold are not serialized
    };
    assert_eq!(
        re.to_jsonl(&header, None),
        text,
        "serialization must be byte-stable"
    );
}

/// A filtered write keeps only the requested subsystems and stamps the
/// filter into the header, which marks the trace as non-replayable.
#[test]
fn write_filter_restricts_subsystems_and_is_recorded() {
    let cfg = RunConfig {
        time_scale: Some(0.1),
        ..traced_cfg(FaultProfile::none())
    };
    let r = run_scenario(
        ScenarioKind::Scenario1,
        scenarios::PolicyKind::StaticAlloc,
        &cfg,
    );
    let data = r.trace.as_ref().unwrap();
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed: cfg.seed,
        filter: None,
    };
    let text = data.to_jsonl(&header, Some(&[Subsystem::Hypervisor, Subsystem::Mm]));
    let parsed = TraceData::parse_jsonl(&text).unwrap();
    assert_eq!(parsed.filter.as_deref(), Some("hyp,mm"));
    assert!(
        !parsed.events.is_empty(),
        "mm/hyp events must survive the filter"
    );
    assert!(parsed
        .events
        .iter()
        .all(|e| matches!(e.subsystem(), Subsystem::Mm | Subsystem::Hypervisor)));
    assert!(parsed.events.len() < data.events.len());
}

// ---------------------------------------------------------------------------
// Golden pinning
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` to the committed golden, or rewrite the golden when
/// `REGEN_TRACE_GOLDEN=1` (then fail, so a regen run is never green).
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        panic!(
            "regenerated {} — rerun without REGEN_TRACE_GOLDEN",
            path.display()
        );
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from the committed golden. If the schema change is \
         deliberate, bump TRACE_SCHEMA_VERSION and regenerate with \
         REGEN_TRACE_GOLDEN=1"
    );
}

/// A synthetic trace with one event of every payload variant (and every
/// enum label), serialized and compared byte-exactly. This is the schema
/// contract: any change to the wire form shows up here first.
#[test]
fn trace_schema_golden_covers_every_event_kind() {
    assert_eq!(
        TRACE_SCHEMA_VERSION, 1,
        "bump the golden file name with the schema"
    );
    let tracer = Tracer::new(Recorder::new(1024, Some(CostModel::hdd())));
    let evs: Vec<(Option<u32>, Payload)> = vec![
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::Stored,
                used: 10,
                target: 100,
            },
        ),
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::Replaced,
                used: 10,
                target: 100,
            },
        ),
        (
            Some(2),
            Payload::Put {
                pool: 1,
                result: PutResult::StoredEvict,
                used: 99,
                target: 100,
            },
        ),
        (
            Some(2),
            Payload::Put {
                pool: 1,
                result: PutResult::RejectTarget,
                used: 100,
                target: 100,
            },
        ),
        (
            Some(2),
            Payload::Put {
                pool: 1,
                result: PutResult::RejectCapacity,
                used: 50,
                target: 100,
            },
        ),
        (Some(1), Payload::Evict { pool: 1 }),
        (
            Some(1),
            Payload::Get {
                pool: 0,
                hit: true,
                freed: true,
            },
        ),
        (
            Some(1),
            Payload::Get {
                pool: 1,
                hit: false,
                freed: false,
            },
        ),
        (Some(1), Payload::Flush { pool: 0, pages: 1 }),
        (Some(1), Payload::PoolDestroy { pool: 0, pages: 7 }),
        (Some(3), Payload::Reclaim { pool: 2, pages: 4 }),
        (
            None,
            Payload::TargetsApplied {
                seq: 5,
                entries: 3,
                applied: true,
            },
        ),
        (
            None,
            Payload::TargetsApplied {
                seq: 4,
                entries: 3,
                applied: false,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 6,
                fate: SampleFate::Deliver,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 7,
                fate: SampleFate::Drop,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 8,
                fate: SampleFate::Delay,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 9,
                fate: SampleFate::Duplicate,
            },
        ),
        (
            None,
            Payload::IntervalClose {
                seq: 6,
                stale: false,
                ok: true,
            },
        ),
        (
            None,
            Payload::IntervalClose {
                seq: 7,
                stale: true,
                ok: false,
            },
        ),
        (
            None,
            Payload::NetlinkStats {
                seq: 6,
                fate: NetlinkFate::Deliver,
            },
        ),
        (
            None,
            Payload::NetlinkStats {
                seq: 7,
                fate: NetlinkFate::Drop,
            },
        ),
        (
            None,
            Payload::NetlinkStats {
                seq: 8,
                fate: NetlinkFate::Reorder,
            },
        ),
        (None, Payload::RelayEnqueue { seq: 6, depth: 2 }),
        (None, Payload::RelayShed { seq: 5 }),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 1,
                outcome: PushOutcome::Landed,
            },
        ),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 2,
                outcome: PushOutcome::Parked,
            },
        ),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 3,
                outcome: PushOutcome::Superseded,
            },
        ),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 4,
                outcome: PushOutcome::Abandoned,
            },
        ),
        (
            None,
            Payload::MmDecision {
                seq_in: 6,
                push_seq: 5,
                sent: true,
                warming: false,
                targets: vec![(1, 100), (2, 200), (3, 0)],
                rescale: Some((300, 250)),
            },
        ),
        (
            None,
            Payload::MmDecision {
                seq_in: 7,
                push_seq: 0,
                sent: false,
                warming: true,
                targets: vec![],
                rescale: None,
            },
        ),
        (None, Payload::MmDiscard { seq_in: 6 }),
        (None, Payload::MmCrash { cycle: 9 }),
        (None, Payload::MmRestart),
        (
            None,
            Payload::Fault {
                kind: FaultKind::SampleDrop,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::SampleDelay,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::SampleDuplicate,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::NetlinkDrop,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::NetlinkReorder,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::HypercallFail,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::MmCrash,
            },
        ),
        (
            Some(1),
            Payload::PoolCreate {
                pool: 0,
                ephemeral: false,
            },
        ),
        (
            Some(1),
            Payload::PoolCreate {
                pool: 3,
                ephemeral: true,
            },
        ),
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::StoredFar,
                used: 100,
                target: 100,
            },
        ),
        (Some(1), Payload::FarGet { pool: 0 }),
        (Some(1), Payload::FarFlush { pool: 0, pages: 3 }),
        (
            Some(2),
            Payload::MigrateOut {
                pages: 40,
                far: 5,
                purged: 1,
                ram: 2048,
            },
        ),
        (
            Some(2),
            Payload::MigrateIn {
                pages: 38,
                far: 5,
                spilled: 2,
            },
        ),
        (
            Some(2),
            Payload::MigrateDone {
                downtime: 5_702_400,
            },
        ),
    ];
    for (i, (vm, payload)) in evs.into_iter().enumerate() {
        tracer.set_now(SimTime(i as u64 * 1_000));
        tracer.emit(|| (vm, payload));
    }
    let data = tracer.finish().unwrap();
    let header = TraceHeader {
        scenario: "synthetic".into(),
        policy: "schema-pin".into(),
        seed: 0,
        filter: None,
    };
    let text = data.to_jsonl(&header, None);
    assert!(text.starts_with("{\"schema\":\"smartmem-trace\",\"version\":1,"));
    TraceData::parse_jsonl(&text).expect("golden trace must parse");
    check_golden("trace_schema_v1.jsonl", &text);
}

/// One real (small, filtered) run pinned byte-exactly: Scenario 1 under
/// static-alloc with a 10× sampling interval, written with a `hyp,mm`
/// subsystem filter. Pins event ordering and timestamping, not just the
/// per-line shape.
#[test]
fn small_run_jsonl_matches_golden_byte_exactly() {
    let cfg = RunConfig {
        time_scale: Some(0.1),
        ..traced_cfg(FaultProfile::none())
    };
    let r = run_scenario(
        ScenarioKind::Scenario1,
        scenarios::PolicyKind::StaticAlloc,
        &cfg,
    );
    let data = r.trace.as_ref().unwrap();
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed: cfg.seed,
        filter: None,
    };
    let text = data.to_jsonl(&header, Some(&[Subsystem::Hypervisor, Subsystem::Mm]));
    check_golden("trace_run_s1_static_ts0.1.jsonl", &text);
}
