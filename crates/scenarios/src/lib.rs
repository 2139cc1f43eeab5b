#![warn(missing_docs)]

//! Scenarios and the experiment runner (paper §IV–V).
//!
//! This crate assembles the full simulated node — hypervisor, shared disk,
//! the guest kernels (three for the Table II scenarios, 8–128 for the
//! fleet family), the dom0 TKM relay and the user-space Memory Manager —
//! and drives the four benchmark scenarios of Table II under each
//! policy, producing exactly the data behind the paper's figures:
//!
//! * per-VM, per-run **running times** (Figs. 3, 5, 7, 9),
//! * per-second **tmem occupancy and target time-series** (Figs. 4, 6, 8,
//!   10).
//!
//! Beyond the paper's figures, the [`chaos`] module stress-tests the
//! control plane under deterministic fault injection (lost samples, flaky
//! hypercalls, MM crashes) and verifies graceful degradation: bounded
//! slowdown and intact tmem accounting invariants. The parameterized
//! fleet family ([`spec::FleetParams`], `ScenarioKind::Scenario5`) scales
//! the same machinery to 8–128 VMs with staggered arrivals and mixed
//! workloads for scale-focused benchmarking (`bench-fleet`).
//!
//! ## Scaling
//!
//! Every scenario supports a memory `scale` (1.0 = the paper's sizes). To
//! keep policy *dynamics* scale-invariant, the sampling interval, sleeps
//! and staggered starts scale by the same factor by default: halving all
//! memory halves all phase lengths, so the number of MM cycles a run spans
//! — the quantity that determines how far a policy's targets can travel —
//! stays fixed. See `RunConfig::time_scale`.

pub mod batch;
pub mod chaos;
pub mod config;
pub mod dsl;
pub mod figures;
pub mod par;
pub mod report;
pub mod runner;
pub mod spec;
pub mod toml;
pub mod trace_check;

pub use chaos::{run_chaos, ChaosProfile, ChaosReport, DEGRADATION_BOUND};
pub use config::RunConfig;
pub use runner::{
    run_cluster, run_scenario, ClusterConfig, ClusterResult, FleetMetrics, RunResult, VmResult,
};
pub use spec::{build_scenario, Arrival, FleetParams, ScenarioKind, ScenarioSpec, WorkloadMix};
pub use trace_check::{verify_cluster, ReplayReport};

pub use smartmem_core::PolicyKind;
