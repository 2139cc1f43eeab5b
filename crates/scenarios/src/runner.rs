//! The experiment runner: one or more full simulated hosts driving one
//! scenario under one policy.
//!
//! Every host owns a hypervisor, a disk, a dom0 TKM relay and a Memory
//! Manager; the runner owns one guest kernel + workload program per VM and
//! advances everything with a single deterministic discrete-event loop:
//!
//! * `Step(vm)` — the VM executes one compute quantum of its workload
//!   (ended early by any blocking disk access); the next step is scheduled
//!   after the consumed time, with the compute part dilated by CPU
//!   contention *on the VM's host*,
//! * `Wake(vm)` / `Start(vm)` — program sleeps and (possibly
//!   milestone-triggered) program starts,
//! * `Virq` — the paper's per-second sampling interrupt, processed for
//!   every host in host order: each host's snapshot travels hypervisor →
//!   dom0 TKM → MM and changed targets travel back down. After all hosts
//!   close their interval, the fleet scheduler compares per-host pressure
//!   and may start one VM migration,
//! * `MigrateDone(vm)` — a migration's modelled network transfer finished;
//!   the VM resumes on its destination host.
//!
//! The single-host path ([`run_spec`]) *is* a one-host cluster — it calls
//! the same constructor with `hosts = 1`, no far tier and no fleet
//! scheduler, so the byte-golden single-host tests pin the equivalence by
//! construction: the cluster machinery exists but every per-host step is
//! the exact event sequence of the pre-cluster runner.

use crate::config::RunConfig;
use crate::spec::{build_scenario, ProgramStep, ScenarioKind, StartRule, VmSpec};
use guest_os::budget::StepBudget;
use guest_os::disk::SharedDisk;
use guest_os::kernel::{GuestConfig, GuestKernel, KernelStats};
use guest_os::machine::Machine;
use guest_os::tkm::{Dom0Tkm, GuestTkm};
use sim_core::event::EventQueue;
use sim_core::faults::{FaultInjector, FaultLedger};
use sim_core::metrics::TimeSeries;
use sim_core::netmodel::{Link, NetModel};
use sim_core::rng::SplitMix64;
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::{Payload, TraceData, Tracer};
use smartmem_core::fleet::{
    stranded_pages, FleetConfig, FleetManager, HostLoad, MigrationPlan, VmPlacement,
};
use smartmem_core::{MemoryManager, PolicyKind};
use tmem::backend::PoolKind;
use tmem::fastmap::FxHashSet;
use tmem::key::VmId;
use tmem::page::Fingerprint;
use workloads::traits::{StepOutcome, Workload};
use xen_sim::host::FarConfig;
use xen_sim::hypervisor::Hypervisor;
use xen_sim::sched::CpuModel;
use xen_sim::virq::SampleChannel;

/// Lifecycle of a VM's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VmState {
    NotStarted,
    Running,
    Sleeping,
    /// Paused while its pages cross the cluster link; resumes at
    /// `MigrateDone`. Stale queued `Step`/`Wake` events are ignored by the
    /// dispatch guards while in this state.
    Migrating,
    Finished,
    Stopped,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Start(usize),
    Step(usize),
    Wake(usize),
    Virq,
    MigrateDone(usize),
}

/// One workload execution within a VM's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Program start instant.
    pub start: SimTime,
    /// Completion instant (`None` if stopped externally / truncated).
    pub end: Option<SimTime>,
    /// Kernel counters at run start (for per-run deltas).
    pub stats_at_start: KernelStats,
    /// Kernel counters at run end.
    pub stats_at_end: Option<KernelStats>,
}

impl RunRecord {
    /// Per-run delta of a kernel counter, via an accessor.
    pub fn stat_delta(&self, f: impl Fn(&KernelStats) -> u64) -> Option<u64> {
        self.stats_at_end
            .as_ref()
            .map(|e| f(e) - f(&self.stats_at_start))
    }
}

impl RunRecord {
    /// Running time, if the run completed.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e - self.start)
    }
}

/// Per-VM outcome of a scenario run.
#[derive(Debug, Clone)]
pub struct VmResult {
    /// VM name ("VM1"...).
    pub name: String,
    /// Hypervisor identity.
    pub vm_id: VmId,
    /// Workload runs, in program order.
    pub runs: Vec<RunRecord>,
    /// Milestones with their timestamps (usemem per-allocation timing).
    pub milestones: Vec<(String, SimTime)>,
    /// Guest-kernel event counters at scenario end.
    pub kernel_stats: KernelStats,
    /// The VM was stopped by the scenario's global stop trigger.
    pub stopped_early: bool,
}

impl VmResult {
    /// Durations of completed runs, in program order (the bars of Figs. 3,
    /// 5, 9).
    pub fn completions(&self) -> Vec<SimDuration> {
        self.runs.iter().filter_map(|r| r.duration()).collect()
    }

    /// Time from `alloc:<label>` to the matching `block:<label>` milestone —
    /// usemem's per-allocation running time (Fig. 7).
    pub fn span_between(&self, from: &str, to: &str) -> Option<SimDuration> {
        let start = self.milestones.iter().find(|(l, _)| l == from)?.1;
        let end = self.milestones.iter().find(|(l, _)| l == to)?.1;
        Some(end - start)
    }
}

/// Occupancy/target time-series for the occupancy figures.
#[derive(Debug, Clone, Default)]
pub struct SeriesBundle {
    /// Per-VM tmem pages in use, sampled every interval.
    pub used: Vec<TimeSeries>,
    /// Per-VM target allocation, sampled every interval.
    pub target: Vec<TimeSeries>,
}

/// Complete outcome of one scenario × policy run on one host.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scenario name.
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// The policy that ran.
    pub policy_kind: PolicyKind,
    /// Per-VM outcomes for VMs resident on this host at scenario end, in
    /// global VM order. A migrated VM's lifetime counters travel with it.
    pub vm_results: Vec<VmResult>,
    /// Occupancy series (when `RunConfig::record_series`; single-host runs
    /// only).
    pub series: Option<SeriesBundle>,
    /// MM cycles executed (one per VIRQ while a managed policy ran).
    pub mm_cycles: u64,
    /// Target transmissions actually sent (suppression working ⇒ ≤ cycles).
    pub mm_transmissions: u64,
    /// Disk read requests served.
    pub disk_reads: u64,
    /// Disk page writes absorbed.
    pub disk_writes: u64,
    /// Total read wait across all requesters (queueing + service).
    pub disk_read_wait: sim_core::time::SimDuration,
    /// Total write-throttle stall time.
    pub disk_throttle: sim_core::time::SimDuration,
    /// Instant the last VM finished/stopped.
    pub end_time: SimTime,
    /// Events dispatched by the run loop (determinism fingerprint). In a
    /// cluster run the loop is shared, so every host reports the same
    /// fleet-wide count.
    pub events: u64,
    /// The run hit the safety cutoff (always a bug — asserted by tests).
    pub truncated: bool,
    /// Fault injection + degradation accounting for this host. All-zero
    /// `injected()` when `RunConfig::faults` is disabled.
    pub faults: FaultLedger,
    /// Per-VM tmem pages in use at scenario end (resident-VM order). The
    /// replay verifier re-derives this purely from trace events.
    pub final_tmem_used: Vec<u64>,
    /// Per-VM far-tier pages at scenario end (resident-VM order). Always
    /// zero without a far tier.
    pub final_far_used: Vec<u64>,
    /// Flight-recorder extraction (`Some` iff `RunConfig::trace` was set).
    pub trace: Option<TraceData>,
}

/// Cluster topology for [`run_cluster`]: how many hosts, the interconnect,
/// and the optional far tier / fleet scheduler. The default is a plain
/// single host — exactly what [`run_spec`] uses.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of independent hosts; node tmem capacity is sharded across
    /// them (earlier hosts take the remainder pages).
    pub hosts: usize,
    /// The shared migration/spill interconnect.
    pub net: NetModel,
    /// Per-host far-memory tier (`None` disables it; zero RNG is drawn and
    /// single-host goldens are untouched).
    pub far: Option<FarConfig>,
    /// Fleet scheduler tunables; `None` means no MM-driven migration.
    pub migration: Option<FleetConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: 1,
            net: NetModel::default(),
            far: None,
            migration: None,
        }
    }
}

/// Fleet-wide accounting of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// MM-initiated migrations started.
    pub migrations: u64,
    /// Summed VM pause time across completed migrations.
    pub migration_downtime: SimDuration,
    /// Transfers enqueued on the cluster link.
    pub cross_host_transfers: u64,
    /// Pages moved across the cluster link (RAM + tmem + far).
    pub cross_host_pages: u64,
    /// Time transfers spent queued behind earlier transfers.
    pub net_queue_wait: SimDuration,
    /// Σ over intervals of free pages on put-healthy hosts while some other
    /// host was rejecting puts — capacity the fleet owned but could not
    /// bring to bear (the sharding cost the fleet scheduler exists to cut).
    pub stranded_page_intervals: u64,
}

impl FleetMetrics {
    fn single_host() -> Self {
        FleetMetrics {
            hosts: 1,
            migrations: 0,
            migration_downtime: SimDuration::ZERO,
            cross_host_transfers: 0,
            cross_host_pages: 0,
            net_queue_wait: SimDuration::ZERO,
            stranded_page_intervals: 0,
        }
    }
}

/// Outcome of one cluster run: one [`RunResult`] per host plus the
/// fleet-wide metrics.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-host results, host order. VMs appear in the result of the host
    /// they ended on.
    pub host_results: Vec<RunResult>,
    /// Fleet-wide accounting.
    pub fleet: FleetMetrics,
}

impl ClusterResult {
    /// The result of a one-host run.
    pub fn into_single(mut self) -> RunResult {
        assert_eq!(self.host_results.len(), 1, "a one-host run");
        self.host_results.pop().expect("one host")
    }
}

struct VmRuntime {
    spec: VmSpec,
    kernel: GuestKernel,
    _tkm: Option<GuestTkm>,
    workload: Option<Box<dyn Workload>>,
    state: VmState,
    /// Host the VM currently resides on (updated when a migration starts —
    /// its pages land on the destination immediately; only time passes
    /// while `Migrating`).
    host: usize,
    /// Instant the current sleep's `Wake` was scheduled for; lets a
    /// migration that swallows the wake re-issue it on arrival.
    wake_at: Option<SimTime>,
    /// State to restore at `MigrateDone` (`Running` or `Sleeping`).
    resume_after_migration: Option<VmState>,
    prog_idx: usize,
    run_counter: u32,
    runs: Vec<RunRecord>,
    milestones: Vec<(String, SimTime)>,
    stopped_early: bool,
}

/// One host's private control plane: hypervisor, disk, dom0 relay, MM,
/// CPU model, fault injector and flight recorder. The pre-cluster runner
/// held these fields directly; a cluster run holds N of them.
struct HostCtl {
    hyp: Hypervisor<Fingerprint>,
    disk: SharedDisk,
    dom0: Dom0Tkm,
    mm: Option<MemoryManager>,
    cpu: CpuModel,
    injector: FaultInjector,
    sample_chan: SampleChannel,
    /// Reusable buffer for one interval's VIRQ → dom0 snapshot batch.
    virq_buf: Vec<tmem::stats::StatsMsg>,
    /// `Some(t)` while this host's MM process is crashed; the watchdog
    /// restarts it at the first VIRQ at or after `t`.
    mm_down_until: Option<SimTime>,
    /// vCPUs of VMs currently in [`VmState::Running`] on this host,
    /// maintained incrementally by [`Runner::set_state`] — `step_vm` needs
    /// it on every dispatched step, which at fleet scale (64+ VMs) makes an
    /// O(VMs) rescan the hottest line of the whole loop.
    running_vcpus: u32,
    /// This host's flight recorder; clones of it live inside the host's
    /// hypervisor, relay, MM and fault injector.
    tracer: Tracer,
}

/// Fleet-level state of a multi-host run (absent for `hosts == 1`).
struct FleetCtl {
    /// The cross-host scheduler (`None` when migration is disabled).
    mgr: Option<FleetManager>,
    /// The shared migration/spill link.
    link: Link,
    /// Per-host Σ failed_puts at the previous fleet step, for deltas.
    /// Saturating: a migration moves a VM's cumulative counter between
    /// hosts, which can make a host's sum go backwards.
    prev_failed: Vec<u64>,
    /// The one migration in flight: `(vm index, pause instant)`.
    in_flight: Option<(usize, SimTime)>,
    migrations: u64,
    downtime: SimDuration,
    stranded: u64,
}

struct Runner {
    cfg: RunConfig,
    hosts: Vec<HostCtl>,
    vms: Vec<VmRuntime>,
    queue: EventQueue<Event>,
    observed: FxHashSet<(usize, String)>,
    pending_starts: Vec<(usize, Vec<(usize, String)>)>,
    stop_all_on: Option<(usize, String)>,
    series: Option<SeriesBundle>,
    seed_root: SplitMix64,
    scenario_name: String,
    policy_name: String,
    policy_kind: PolicyKind,
    sampling: SimDuration,
    truncated: bool,
    /// Events actually dispatched (the determinism fingerprint). Counted
    /// here rather than read off the queue: batch draining pops whole
    /// same-instant groups, but a cutoff or early completion stops
    /// dispatch mid-batch exactly where one-at-a-time popping would have
    /// stopped.
    dispatched: u64,
    /// VMs not yet Finished/Stopped, maintained by [`Runner::set_state`];
    /// `all_done()` is consulted after every event.
    unfinished: usize,
    /// Reusable per-interval buffers for the slow-reclaim trickle, so an
    /// over-target VM doesn't cost two fresh `Vec`s every interval.
    reclaim_buf: Vec<(tmem::key::ObjectId, u32)>,
    reclaim_keys: Vec<(u64, u32)>,
    fleet: Option<FleetCtl>,
}

/// Run one scenario under one policy. Deterministic in `cfg.seed`.
pub fn run_scenario(kind: ScenarioKind, policy: PolicyKind, cfg: &RunConfig) -> RunResult {
    run_spec(build_scenario(kind, cfg), policy, cfg)
}

/// Run a (possibly customized) scenario spec under one policy on a single
/// host. The public entry point for experiments beyond Table II — e.g.
/// capacity sweeps that adjust `ScenarioSpec::tmem_bytes` before running.
///
/// This *is* the one-host cluster path: the single-host byte-goldens pin
/// the cluster refactor in place.
pub fn run_spec(spec: crate::spec::ScenarioSpec, policy: PolicyKind, cfg: &RunConfig) -> RunResult {
    run_cluster(spec, policy, cfg, &ClusterConfig::default()).into_single()
}

/// Run a scenario spec across a cluster of hosts. Node tmem capacity is
/// sharded host-by-host, VMs are placed round-robin, and (when configured)
/// the fleet scheduler migrates VMs between hosts on sustained pressure
/// divergence. Deterministic in `cfg.seed`.
pub fn run_cluster(
    spec: crate::spec::ScenarioSpec,
    policy: PolicyKind,
    cfg: &RunConfig,
    cluster: &ClusterConfig,
) -> ClusterResult {
    assert!(cluster.hosts >= 1, "a cluster needs at least one host");
    let nhosts = cluster.hosts;
    let total_pages = spec.tmem_pages();
    let frontswap = policy.tmem_enabled();

    let mut hosts = Vec::with_capacity(nhosts);
    for h in 0..nhosts {
        // Shard the node capacity; earlier hosts absorb the remainder.
        let host_pages =
            total_pages / nhosts as u64 + u64::from((h as u64) < total_pages % nhosts as u64);
        let tracer = Tracer::from_config(cfg.trace.as_ref(), &cfg.cost);
        let mut mm = MemoryManager::from_kind(policy, 128);
        if let Some(m) = mm.as_mut() {
            m.set_tracer(tracer.clone());
        }
        let initial_target = mm
            .as_ref()
            .map(|m| m.initial_target(host_pages))
            .unwrap_or(0);
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(host_pages, initial_target);
        hyp.set_tracer(tracer.clone());
        // Host 0 keeps the historical seeding so single-host runs stay
        // byte-identical; additional hosts draw independent substreams.
        let fault_seed = if h == 0 {
            cfg.seed
        } else {
            SplitMix64::new(cfg.seed).derive(&format!("host{h}")).next()
        };
        // Data-plane fault layer (page corruption, loss, put I/O failures,
        // brownouts, scrubbing). A no-op — no injector installed, zero RNG
        // drawn — unless the profile enables a data-plane fault.
        hyp.set_data_faults(&cfg.faults, fault_seed);
        if let Some(far) = cluster.far {
            hyp.set_far_tier(far);
        }
        let mut dom0 = Dom0Tkm::new();
        dom0.set_tracer(tracer.clone());
        let mut injector = FaultInjector::new(cfg.faults.clone(), fault_seed);
        injector.set_tracer(tracer.clone());
        hosts.push(HostCtl {
            hyp,
            disk: SharedDisk::default(),
            dom0,
            mm,
            cpu: CpuModel::new(cfg.cores),
            injector,
            sample_chan: SampleChannel::new(),
            virq_buf: Vec::new(),
            mm_down_until: None,
            running_vcpus: 0,
            tracer,
        });
    }

    let mut vms = Vec::with_capacity(spec.vms.len());
    for (i, vm_spec) in spec.vms.iter().enumerate() {
        let h = i % nhosts;
        hosts[h].hyp.register_vm(vm_spec.config.clone());
        let ram_pages = vm_spec.config.ram_pages();
        let os_reserved = ((ram_pages as f64 * cfg.os_reserve_frac) as u64).max(2);
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: vm_spec.config.id,
            ram_pages,
            os_reserved_pages: os_reserved,
            readahead_pages: cfg.readahead_pages,
            frontswap_enabled: frontswap,
        });
        let tkm = if frontswap {
            let tkm = GuestTkm::init(&mut hosts[h].hyp, vm_spec.config.id, PoolKind::Persistent)
                .expect("pool creation cannot fail on a fresh hypervisor");
            kernel.attach_frontswap(tkm.pool());
            Some(tkm)
        } else {
            None
        };
        vms.push(VmRuntime {
            spec: vm_spec.clone(),
            kernel,
            _tkm: tkm,
            workload: None,
            state: VmState::NotStarted,
            host: h,
            wake_at: None,
            resume_after_migration: None,
            prog_idx: 0,
            run_counter: 0,
            runs: Vec::new(),
            milestones: Vec::new(),
            stopped_early: false,
        });
    }

    let unfinished = vms.len();
    let fleet = (nhosts > 1).then(|| FleetCtl {
        mgr: cluster.migration.map(FleetManager::new),
        link: Link::new(cluster.net.clone()),
        prev_failed: vec![0; nhosts],
        in_flight: None,
        migrations: 0,
        downtime: SimDuration::ZERO,
        stranded: 0,
    });
    let mut runner = Runner {
        // Series are a single-host instrument: in a cluster, occupancy
        // spans hosts and the golden-pinned per-interval replay check
        // would need per-host series. Fleet runs use traces instead.
        series: (nhosts == 1 && cfg.record_series).then(|| SeriesBundle {
            used: vec![TimeSeries::new(); vms.len()],
            target: vec![TimeSeries::new(); vms.len()],
        }),
        sampling: cfg.sampling_interval(),
        seed_root: SplitMix64::new(cfg.seed),
        scenario_name: spec.name.clone(),
        policy_name: policy.to_string(),
        policy_kind: policy,
        cfg: cfg.clone(),
        hosts,
        vms,
        queue: EventQueue::new(),
        observed: FxHashSet::default(),
        pending_starts: Vec::new(),
        stop_all_on: spec.stop_all_on.clone(),
        truncated: false,
        dispatched: 0,
        unfinished,
        reclaim_buf: Vec::new(),
        reclaim_keys: Vec::new(),
        fleet,
    };
    runner.seed_events();
    runner.run()
}

impl Runner {
    fn seed_events(&mut self) {
        for (i, vm) in self.vms.iter().enumerate() {
            match &vm.spec.start {
                StartRule::At(d) => self.queue.schedule_at(SimTime::ZERO + *d, Event::Start(i)),
                StartRule::OnMilestonesAll(reqs) if reqs.is_empty() => {
                    // No requirements means nothing to wait for; an empty
                    // rule must not depend on some other VM emitting a
                    // milestone first.
                    self.queue.schedule_at(SimTime::ZERO, Event::Start(i));
                }
                StartRule::OnMilestonesAll(reqs) => {
                    self.pending_starts.push((i, reqs.clone()));
                }
            }
        }
        self.queue
            .schedule_at(SimTime::ZERO + self.sampling, Event::Virq);
    }

    /// Move VM `i` to `new`, keeping the incremental per-host
    /// `running_vcpus` and global `unfinished` counters exact. Every state
    /// transition in the runner goes through here.
    fn set_state(&mut self, i: usize, new: VmState) {
        let old = self.vms[i].state;
        if old == new {
            return;
        }
        let vcpus = self.vms[i].spec.config.vcpus;
        let h = self.vms[i].host;
        if old == VmState::Running {
            self.hosts[h].running_vcpus -= vcpus;
        }
        if new == VmState::Running {
            self.hosts[h].running_vcpus += vcpus;
        }
        let done = |s: VmState| matches!(s, VmState::Finished | VmState::Stopped);
        match (done(old), done(new)) {
            (false, true) => self.unfinished -= 1,
            (true, false) => self.unfinished += 1,
            _ => {}
        }
        self.vms[i].state = new;
    }

    fn all_done(&self) -> bool {
        self.unfinished == 0
    }

    fn run(mut self) -> ClusterResult {
        let cutoff = SimTime::ZERO + self.cfg.max_sim_time;
        // Same-instant events are drained from the heap as one batch and
        // dispatched in a row — one heap pop amortized over the group, no
        // re-sift between control-plane messages of the same tick. Events a
        // handler schedules at `now` carry higher sequence numbers than the
        // whole drained batch, so they form the next batch and dispatch
        // order is exactly that of one-at-a-time popping.
        let mut batch = Vec::new();
        'dispatch: while let Some(now) = self.queue.pop_batch(&mut batch) {
            for host in &self.hosts {
                host.tracer.set_now(now);
            }
            if now > cutoff {
                // Count only the event that crossed the cutoff, exactly as
                // a single pop would have.
                self.dispatched += 1;
                self.truncated = true;
                self.stop_all(now);
                break;
            }
            for event in batch.drain(..) {
                self.dispatched += 1;
                match event {
                    Event::Start(i) => {
                        if self.vms[i].state == VmState::NotStarted {
                            self.start_next(i, now);
                        }
                    }
                    Event::Wake(i) => {
                        if self.vms[i].state == VmState::Sleeping {
                            self.start_next(i, now);
                        }
                    }
                    Event::Step(i) => {
                        if self.vms[i].state == VmState::Running {
                            self.step_vm(i, now);
                        }
                    }
                    Event::Virq => self.virq(now),
                    Event::MigrateDone(i) => {
                        // A stop_all may have killed the VM mid-flight; the
                        // guard keeps the arrival from resurrecting it.
                        if self.vms[i].state == VmState::Migrating {
                            self.migrate_done(i, now);
                        }
                    }
                }
                if self.all_done() {
                    break 'dispatch;
                }
            }
        }
        self.finish()
    }

    /// Begin the next program step of VM `i` at `now` (initial start, after
    /// a sleep, or after a completed run).
    fn start_next(&mut self, i: usize, now: SimTime) {
        if self.vms[i].prog_idx >= self.vms[i].spec.program.len() {
            self.set_state(i, VmState::Finished);
            return;
        }
        let step = {
            let rt = &mut self.vms[i];
            let step = rt.spec.program[rt.prog_idx].clone();
            rt.prog_idx += 1;
            step
        };
        match step {
            ProgramStep::Run(ws) => {
                let label = format!(
                    "{}/{}/vm{i}/run{}",
                    self.scenario_name, self.policy_name, self.vms[i].run_counter
                );
                let seed = self.seed_root.derive(&label).next();
                let workload = ws.build(seed);
                let rt = &mut self.vms[i];
                rt.run_counter += 1;
                rt.runs.push(RunRecord {
                    workload: workload.name().to_string(),
                    start: now,
                    end: None,
                    stats_at_start: *rt.kernel.stats(),
                    stats_at_end: None,
                });
                rt.workload = Some(workload);
                self.set_state(i, VmState::Running);
                self.queue.schedule_at(now, Event::Step(i));
            }
            ProgramStep::Sleep(d) => {
                self.vms[i].wake_at = Some(now + d);
                self.set_state(i, VmState::Sleeping);
                self.queue.schedule_at(now + d, Event::Wake(i));
            }
        }
    }

    /// Execute one quantum of VM `i`'s workload on its current host.
    fn step_vm(&mut self, i: usize, now: SimTime) {
        let h = self.vms[i].host;
        let dilation = self.hosts[h].cpu.dilation(self.hosts[h].running_vcpus);
        let mut budget = StepBudget::new(self.cfg.quantum);
        let outcome;
        {
            let host = &mut self.hosts[h];
            let rt = &mut self.vms[i];
            let mut machine = Machine {
                hyp: &mut host.hyp,
                disk: &mut host.disk,
                cost: &self.cfg.cost,
                now,
                budget: &mut budget,
            };
            let workload = rt.workload.as_mut().expect("running VM has a workload");
            outcome = workload.step(&mut rt.kernel, &mut machine);
        }
        let elapsed = budget.elapsed(dilation);
        let t_end = now + elapsed;

        // Milestones: record, then evaluate cross-VM triggers.
        let labels: Vec<String> = self.vms[i]
            .workload
            .as_mut()
            .expect("still present")
            .drain_milestones()
            .into_iter()
            .map(|m| m.0)
            .collect();
        let new_labels = !labels.is_empty();
        let mut stop_everything = false;
        for label in labels {
            self.vms[i].milestones.push((label.clone(), t_end));
            self.observed.insert((i, label.clone()));
            if let Some((svm, slabel)) = &self.stop_all_on {
                if *svm == i && *slabel == label {
                    stop_everything = true;
                }
            }
        }
        // Milestone-triggered starts can only become ready when a new label
        // was recorded (empty-requirement rules fire from `seed_events`),
        // so a step without milestones skips the pending scan entirely.
        if new_labels && !self.pending_starts.is_empty() {
            self.fire_ready_starts(t_end);
        }
        if stop_everything {
            self.stop_all(t_end);
            return;
        }

        match outcome {
            StepOutcome::Done => {
                let rt = &mut self.vms[i];
                let stats = *rt.kernel.stats();
                let rec = rt
                    .runs
                    .last_mut()
                    .expect("a run record exists while running");
                rec.end = Some(t_end);
                rec.stats_at_end = Some(stats);
                rt.workload = None;
                self.start_next(i, t_end);
            }
            StepOutcome::Runnable => {
                self.queue.schedule_at(t_end, Event::Step(i));
            }
        }
    }

    /// Start any milestone-triggered VM whose requirements are now met.
    fn fire_ready_starts(&mut self, at: SimTime) {
        let observed = &self.observed;
        let mut ready = Vec::new();
        self.pending_starts.retain(|(vm, reqs)| {
            if reqs.iter().all(|r| observed.contains(r)) {
                ready.push(*vm);
                false
            } else {
                true
            }
        });
        for vm in ready {
            self.queue.schedule_at(at, Event::Start(vm));
        }
    }

    /// The scenario-wide stop trigger: kill every VM's program.
    fn stop_all(&mut self, at: SimTime) {
        for i in 0..self.vms.len() {
            let state = self.vms[i].state;
            if matches!(state, VmState::Finished | VmState::Stopped) {
                continue;
            }
            // Process kill: release guest memory (flush costs are charged
            // to a throwaway budget — the scenario is over).
            let mut budget = StepBudget::new(SimDuration::from_secs(3600));
            let host = &mut self.hosts[self.vms[i].host];
            let rt = &mut self.vms[i];
            if let Some(mut w) = rt.workload.take() {
                let mut machine = Machine {
                    hyp: &mut host.hyp,
                    disk: &mut host.disk,
                    cost: &self.cfg.cost,
                    now: at,
                    budget: &mut budget,
                };
                w.abort(&mut rt.kernel, &mut machine);
            }
            let stats = *rt.kernel.stats();
            if let Some(r) = rt.runs.last_mut() {
                if r.end.is_none() {
                    r.end = Some(at);
                    r.stats_at_end = Some(stats);
                }
            }
            rt.stopped_early = true;
            self.set_state(i, VmState::Stopped);
        }
    }

    /// One host's MM-side half of the VIRQ: relay retry clock, watchdog
    /// restart, crash schedule, snapshot ingestion and target pushes.
    fn drive_mm(host: &mut HostCtl, sampling: SimDuration, now: SimTime) {
        // The dom0 relay is kernel-side: its retry clock ticks every
        // interval even while the user-space MM is down.
        host.dom0.tick_retries(&mut host.hyp, &mut host.injector);
        if let Some(t) = host.mm_down_until {
            if now < t {
                // MM still down; snapshots queue (and shed) in the relay.
                return;
            }
            host.mm_down_until = None;
            host.injector.ledger_mut().mm_restarts += 1;
            host.tracer.emit(|| (None, Payload::MmRestart));
        }
        let mm = host.mm.as_mut().expect("caller checked mm.is_some()");
        // Crash schedule keys on completed MM cycles, so a fixed
        // `mm_crash_at_cycle` hits the same policy state at any time scale.
        if host.injector.mm_should_crash(mm.cycles()) {
            mm.crash();
            let downtime = sampling.as_nanos() * host.injector.profile().mm_restart_after;
            host.mm_down_until = Some(now + SimDuration::from_nanos(downtime));
            return;
        }
        while let Some(snap) = host.dom0.take_stats() {
            if let Some((seq, targets)) = mm.on_stats(&snap) {
                host.dom0
                    .forward_targets(&mut host.hyp, &mut host.injector, seq, &targets);
            }
            // The MM processed a snapshot: its liveness heartbeat refreshes
            // the hypervisor's target TTL even when the target vector was
            // suppressed as unchanged. A crashed MM (or a wholly lost
            // sample) sends no heartbeat, so staleness accrues.
            host.hyp.keepalive();
        }
    }

    /// The per-interval sampling VIRQ: every host in host order runs
    /// hypervisor → dom0 TKM → MM → targets back down, then the fleet
    /// scheduler compares hosts. Series recording (single-host) sits
    /// between host 0's interval close and the reschedule, exactly where
    /// the pre-cluster runner put it.
    ///
    /// Every edge crossing consults the host's fault injector. With the
    /// default (disabled) profile no RNG is drawn and exactly one snapshot
    /// flows through per interval, so the fault-free path is byte-identical
    /// to a build without the fault layer.
    fn virq(&mut self, now: SimTime) {
        for h in 0..self.hosts.len() {
            self.virq_host(h, now);
        }
        if let Some(series) = &mut self.series {
            let host = &self.hosts[0];
            for (i, vm) in self.vms.iter().enumerate() {
                let id = vm.spec.config.id;
                series.used[i].push(now, host.hyp.tmem_used_by(id) as f64);
                series.target[i].push(now, host.hyp.target_of(id).unwrap_or(0) as f64);
            }
        }
        self.fleet_step(now);
        if !self.all_done() {
            self.queue.schedule_at(now + self.sampling, Event::Virq);
        }
    }

    /// One host's half of the VIRQ, through its `IntervalClose` emission.
    fn virq_host(&mut self, h: usize, now: SimTime) {
        let Runner {
            hosts,
            vms,
            cfg,
            sampling,
            reclaim_buf,
            reclaim_keys,
            ..
        } = self;
        let host = &mut hosts[h];
        // Advance the data-fault interval clock (brownout windows and scrub
        // cadence are phrased in sampling intervals). No-op when the profile
        // has no data-plane faults.
        host.hyp.tick_data_faults();
        let msg = host.hyp.sample(now);
        let seq = msg.seq;
        let fate = host.injector.sample_fate();
        host.tracer
            .emit(|| (None, Payload::VirqSample { seq, fate }));
        // The channel's output batch is handed to the relay in one call —
        // the relay still draws a fault fate per logical message, so the
        // fault stream is that of message-at-a-time delivery.
        host.sample_chan.push_into(msg, fate, &mut host.virq_buf);
        host.dom0
            .deliver_stats_batch(&mut host.virq_buf, &mut host.injector);
        let mut stale = false;
        if host.mm.is_some() {
            Self::drive_mm(host, *sampling, now);
            // Slow reclaim: trickle over-target VMs' oldest pages to their
            // swap devices (hypervisor-driven async write-back). This is
            // hypervisor work — it continues while the MM is crashed, with
            // targets held at the TTL fallback.
            let max = ((host.hyp.node_info().total_tmem as f64 * cfg.reclaim_frac_per_interval)
                as u64)
                .max(1);
            for rt in vms.iter_mut().filter(|rt| rt.host == h) {
                let Some(tkm) = &rt._tkm else { continue };
                reclaim_buf.clear();
                host.hyp
                    .reclaim_over_target_into(tkm.pool(), max, reclaim_buf);
                if !reclaim_buf.is_empty() {
                    reclaim_keys.clear();
                    reclaim_keys.extend(reclaim_buf.iter().map(|&(o, i)| (o.0, i)));
                    rt.kernel.tmem_reclaimed(reclaim_keys);
                    for _ in 0..reclaim_keys.len() {
                        host.disk.write_page(now, &cfg.cost);
                    }
                }
            }
            stale = host.hyp.targets_stale();
            if stale {
                host.injector.ledger_mut().stale_intervals += 1;
            }
        }
        // Periodic pool scrub: verify every stored checksum, quarantine
        // corrupt objects, and assert the accounting invariants from inside
        // the sweep. Runs before this interval's own invariant check so the
        // IntervalClose event reflects the post-scrub pool.
        if host.hyp.data_scrub_due() {
            host.hyp.scrub();
        }
        // Accounting invariants must hold every interval, faults or not.
        let ok = tmem::backend::accounting_consistent(host.hyp.backend());
        let ledger = host.injector.ledger_mut();
        ledger.invariant_checks += 1;
        if !ok {
            ledger.invariant_violations += 1;
        }
        host.tracer
            .emit(|| (None, Payload::IntervalClose { seq, stale, ok }));
    }

    /// The fleet half of the VIRQ: pressure vectors, stranded-capacity
    /// accounting and (at most) one migration decision. No-op on
    /// single-host runs.
    fn fleet_step(&mut self, now: SimTime) {
        if self.fleet.is_none() {
            return;
        }
        let mut failed = vec![0u64; self.hosts.len()];
        for rt in &self.vms {
            failed[rt.host] += rt.kernel.stats().failed_puts;
        }
        let plan = {
            let fleet = self.fleet.as_mut().expect("checked above");
            let mut loads = Vec::with_capacity(self.hosts.len());
            for (h, host) in self.hosts.iter().enumerate() {
                let info = host.hyp.node_info();
                let delta = failed[h].saturating_sub(fleet.prev_failed[h]);
                fleet.prev_failed[h] = failed[h];
                loads.push(HostLoad {
                    used: (info.total_tmem - info.free_tmem) + host.hyp.far_used(),
                    capacity: info.total_tmem,
                    failed_puts_delta: delta,
                });
            }
            fleet.stranded += stranded_pages(&loads);
            if fleet.in_flight.is_some() {
                // One migration in flight fleet-wide; the scheduler's
                // interval clock pauses with it.
                return;
            }
            let Some(mgr) = fleet.mgr.as_mut() else {
                return;
            };
            let placements: Vec<VmPlacement> = self
                .vms
                .iter()
                .filter(|rt| {
                    matches!(rt.state, VmState::Running | VmState::Sleeping) && rt._tkm.is_some()
                })
                .map(|rt| {
                    let id = rt.spec.config.id;
                    let hyp = &self.hosts[rt.host].hyp;
                    VmPlacement {
                        vm: id,
                        host: rt.host,
                        used: hyp.tmem_used_by(id) + hyp.far_used_by(id),
                    }
                })
                .collect();
            mgr.decide(&loads, &placements)
        };
        if let Some(plan) = plan {
            self.execute_migration(plan, now);
        }
    }

    /// Execute one migration plan: pause the VM, rip its pool out of the
    /// source host, re-admit it on the destination, and schedule the
    /// resume for when the modelled network transfer completes. The page
    /// hand-off is synchronous (state is never split across hosts); only
    /// *time* passes while the VM is `Migrating`.
    fn execute_migration(&mut self, plan: MigrationPlan, now: SimTime) {
        let i = self
            .vms
            .iter()
            .position(|rt| rt.spec.config.id == plan.vm)
            .expect("plan names a live VM");
        let (src, dst) = (plan.from, plan.to);
        debug_assert_eq!(self.vms[i].host, src, "plan is stale");
        let vm = plan.vm;
        let pool = self.vms[i]
            ._tkm
            .as_ref()
            .expect("migratable VMs run frontswap")
            .pool();
        // Ephemeral (cleancache) pools do not survive migration: tmem may
        // drop ephemeral pages at any time, and shipping a cache across the
        // interconnect would cost transfer time to move bytes the guest can
        // re-read from its own disk. Destroy them at the source (the
        // `PoolDestroy` event keeps replay exact) and register fresh, empty
        // pools on the destination for the owning workload to rebind to.
        let ephemeral: Vec<tmem::key::PoolId> = self.hosts[src]
            .hyp
            .pools_owned_by(vm)
            .into_iter()
            .filter(|&(p, kind)| kind == PoolKind::Ephemeral && p != pool)
            .map(|(p, _)| p)
            .collect();
        for &p in &ephemeral {
            self.hosts[src].hyp.destroy_pool(p);
        }
        let export = self.hosts[src]
            .hyp
            .migrate_export(pool)
            .expect("pool exists on the source");
        let local_n = export.local.len() as u64;
        let far_n = export.far.len() as u64;
        let purged = export.purged;
        let ram = self.vms[i].spec.config.ram_pages();
        {
            let host = &mut self.hosts[src];
            host.tracer.emit(|| {
                (
                    Some(vm.0),
                    Payload::MigrateOut {
                        pages: local_n,
                        far: far_n,
                        purged,
                        ram,
                    },
                )
            });
            let led = host.injector.ledger_mut();
            led.migrations_out += 1;
            led.migrate_pages += local_n + far_n;
            led.migrate_purged += purged;
        }
        let vm_cfg = self.hosts[src]
            .hyp
            .unregister_vm(vm)
            .expect("VM was registered on the source");
        self.hosts[dst].hyp.register_vm(vm_cfg);
        let tkm = GuestTkm::init(&mut self.hosts[dst].hyp, vm, PoolKind::Persistent)
            .expect("fresh pool on the destination");
        let new_pool = tkm.pool();
        self.vms[i].kernel.attach_frontswap(new_pool);
        self.vms[i]._tkm = Some(tkm);
        for old in ephemeral {
            let fresh = self.hosts[dst]
                .hyp
                .new_pool(vm, PoolKind::Ephemeral)
                .expect("fresh cleancache pool on the destination");
            if let Some(w) = self.vms[i].workload.as_mut() {
                w.rebind_pool(old, fresh);
            }
        }
        let mut pages = export.local;
        pages.extend(export.far);
        let outcome = self.hosts[dst].hyp.import_pages(new_pool, pages);
        let spilled_n = outcome.spilled.len() as u64;
        if spilled_n > 0 {
            // Overflow that fits neither the destination's tmem nor its far
            // tier goes back to the VM's swap device — the same
            // swap-consistent path slow reclaim uses, so the guest page
            // table stays coherent.
            self.reclaim_keys.clear();
            self.reclaim_keys
                .extend(outcome.spilled.iter().map(|&(o, idx)| (o.0, idx)));
            self.vms[i].kernel.tmem_reclaimed(&self.reclaim_keys);
            for _ in 0..spilled_n {
                self.hosts[dst].disk.write_page(now, &self.cfg.cost);
            }
        }
        {
            let host = &mut self.hosts[dst];
            host.tracer.emit(|| {
                (
                    Some(vm.0),
                    Payload::MigrateIn {
                        pages: outcome.stored,
                        far: outcome.stored_far,
                        spilled: spilled_n,
                    },
                )
            });
            let led = host.injector.ledger_mut();
            led.migrations_in += 1;
            led.migrate_spilled += spilled_n;
        }
        let prev = self.vms[i].state;
        self.set_state(i, VmState::Migrating);
        self.vms[i].host = dst;
        self.vms[i].resume_after_migration = Some(prev);
        let fleet = self.fleet.as_mut().expect("migration only in fleet runs");
        let (_start, done_at) = fleet.link.enqueue(now, ram + local_n + far_n);
        fleet.in_flight = Some((i, now));
        fleet.migrations += 1;
        self.queue.schedule_at(done_at, Event::MigrateDone(i));
    }

    /// The migration's network transfer finished: account the downtime and
    /// resume the VM on its destination host.
    fn migrate_done(&mut self, i: usize, now: SimTime) {
        let fleet = self.fleet.as_mut().expect("MigrateDone only in fleet runs");
        let (vm_i, t0) = fleet.in_flight.take().expect("a migration was in flight");
        debug_assert_eq!(vm_i, i, "one migration in flight at a time");
        let downtime = now - t0;
        fleet.downtime += downtime;
        let h = self.vms[i].host;
        let vm = self.vms[i].spec.config.id;
        self.hosts[h].tracer.emit(|| {
            (
                Some(vm.0),
                Payload::MigrateDone {
                    downtime: downtime.as_nanos(),
                },
            )
        });
        match self.vms[i]
            .resume_after_migration
            .take()
            .expect("set when the migration began")
        {
            VmState::Running => {
                self.set_state(i, VmState::Running);
                self.queue.schedule_at(now, Event::Step(i));
            }
            VmState::Sleeping => {
                self.set_state(i, VmState::Sleeping);
                // The sleep's original Wake may have fired (and been
                // ignored) while the VM was in flight; re-issue it. A wake
                // still in the future fires normally off the queue.
                if self.vms[i].wake_at.is_some_and(|w| w <= now) {
                    self.queue.schedule_at(now, Event::Wake(i));
                }
            }
            other => unreachable!("un-migratable state {other:?} was recorded"),
        }
    }

    fn finish(mut self) -> ClusterResult {
        let end_time = self.queue.now();
        for host in self.hosts.iter_mut() {
            // One final integrity sweep when the data-fault layer is armed:
            // corruption injected after the last periodic scrub is still
            // detected (and quarantined) before the ledger is sealed, so
            // every injected corruption ends the run as detected —
            // recovered or quarantined, never latent.
            if host.hyp.data_fault_ledger().is_some() {
                host.hyp.scrub();
            }
            // Fold MM-side degradation bookkeeping into the ledger.
            if let Some(mm) = &host.mm {
                let ledger = host.injector.ledger_mut();
                ledger.seq_gaps = mm.seq_gaps();
                ledger.snapshots_discarded = mm.snapshots_discarded();
            }
            // Fold the hypervisor-side data-plane ledger into the run
            // ledger.
            if let Some(dl) = host.hyp.data_fault_ledger() {
                dl.clone().fold_into(host.injector.ledger_mut());
            }
        }
        // Bucket VMs by the host they ended on, preserving global VM order
        // within each host.
        let mut per_host: Vec<Vec<VmRuntime>> = (0..self.hosts.len()).map(|_| Vec::new()).collect();
        for rt in self.vms {
            per_host[rt.host].push(rt);
        }
        let mut series = self.series.take();
        let fleet_metrics = match &self.fleet {
            Some(f) => FleetMetrics {
                hosts: self.hosts.len(),
                migrations: f.migrations,
                migration_downtime: f.downtime,
                cross_host_transfers: f.link.transfers,
                cross_host_pages: f.link.pages_moved,
                net_queue_wait: f.link.queue_wait,
                stranded_page_intervals: f.stranded,
            },
            None => FleetMetrics::single_host(),
        };
        let mut host_results = Vec::with_capacity(self.hosts.len());
        for (h, (host, vms)) in self.hosts.into_iter().zip(per_host).enumerate() {
            let final_tmem_used: Vec<u64> = vms
                .iter()
                .map(|rt| host.hyp.tmem_used_by(rt.spec.config.id))
                .collect();
            let final_far_used: Vec<u64> = vms
                .iter()
                .map(|rt| host.hyp.far_used_by(rt.spec.config.id))
                .collect();
            let vm_results = vms
                .into_iter()
                .map(|rt| VmResult {
                    name: rt.spec.config.name.clone(),
                    vm_id: rt.spec.config.id,
                    runs: rt.runs,
                    milestones: rt.milestones,
                    kernel_stats: *rt.kernel.stats(),
                    stopped_early: rt.stopped_early,
                })
                .collect();
            host_results.push(RunResult {
                scenario: self.scenario_name.clone(),
                policy: self.policy_name.clone(),
                policy_kind: self.policy_kind,
                vm_results,
                series: if h == 0 { series.take() } else { None },
                mm_cycles: host.mm.as_ref().map(|m| m.cycles()).unwrap_or(0),
                mm_transmissions: host.mm.as_ref().map(|m| m.transmissions()).unwrap_or(0),
                disk_reads: host.disk.reads(),
                disk_writes: host.disk.writes(),
                disk_read_wait: host.disk.read_wait_total(),
                disk_throttle: host.disk.throttle_total(),
                end_time,
                events: self.dispatched,
                truncated: self.truncated,
                faults: host.injector.into_ledger(),
                final_tmem_used,
                final_far_used,
                trace: host.tracer.finish(),
            });
        }
        ClusterResult {
            host_results,
            fleet: fleet_metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> RunConfig {
        RunConfig {
            scale: 0.01,
            seed,
            record_series: true,
            ..RunConfig::default()
        }
    }

    #[test]
    fn scenario1_completes_under_greedy() {
        let r = run_scenario(ScenarioKind::Scenario1, PolicyKind::Greedy, &tiny_cfg(1));
        assert!(!r.truncated);
        assert_eq!(r.vm_results.len(), 3);
        for vm in &r.vm_results {
            assert_eq!(vm.completions().len(), 2, "two analytics runs per VM");
            assert!(
                vm.kernel_stats.evictions_to_tmem > 0,
                "pressure reached tmem"
            );
        }
    }

    #[test]
    fn no_tmem_never_touches_tmem() {
        let r = run_scenario(ScenarioKind::Scenario2, PolicyKind::NoTmem, &tiny_cfg(2));
        assert!(!r.truncated);
        for vm in &r.vm_results {
            assert_eq!(vm.kernel_stats.evictions_to_tmem, 0);
            assert!(vm.kernel_stats.evictions_to_disk > 0);
        }
        assert_eq!(r.mm_cycles, 0, "no MM process for no-tmem");
    }

    #[test]
    fn deterministic_replay() {
        let a = run_scenario(
            ScenarioKind::Scenario1,
            PolicyKind::SmartAlloc { p: 2.0 },
            &tiny_cfg(7),
        );
        let b = run_scenario(
            ScenarioKind::Scenario1,
            PolicyKind::SmartAlloc { p: 2.0 },
            &tiny_cfg(7),
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
        let da: Vec<_> = a.vm_results.iter().map(|v| v.completions()).collect();
        let db: Vec<_> = b.vm_results.iter().map(|v| v.completions()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn usemem_scenario_triggers_fire() {
        let r = run_scenario(
            ScenarioKind::UsememScenario,
            PolicyKind::Greedy,
            &tiny_cfg(3),
        );
        assert!(!r.truncated);
        // VM3 must have started (trigger) and everything stops on its 6th
        // allocation attempt.
        assert!(r.vm_results[2]
            .milestones
            .iter()
            .any(|(l, _)| l.starts_with("alloc")));
        for vm in &r.vm_results {
            assert!(
                vm.stopped_early,
                "{} must be stopped by the trigger",
                vm.name
            );
        }
        // VM3 started strictly after VM1/VM2.
        let vm3_first = r.vm_results[2].milestones.first().unwrap().1;
        let vm1_first = r.vm_results[0].milestones.first().unwrap().1;
        assert!(vm3_first > vm1_first);
    }

    #[test]
    fn series_are_recorded_per_interval() {
        let r = run_scenario(
            ScenarioKind::Scenario2,
            PolicyKind::StaticAlloc,
            &tiny_cfg(4),
        );
        let series = r.series.expect("requested");
        assert_eq!(series.used.len(), 3);
        assert!(series.used[0].len() > 2, "multiple samples");
        // Static policy: targets equal across VMs once set.
        let t_end = series.target[0].points().last().unwrap().1;
        assert!(series
            .target
            .iter()
            .all(|s| s.points().last().unwrap().1 == t_end));
    }

    #[test]
    fn mm_suppression_keeps_transmissions_below_cycles() {
        let r = run_scenario(
            ScenarioKind::Scenario1,
            PolicyKind::StaticAlloc,
            &tiny_cfg(5),
        );
        assert!(r.mm_cycles > 2);
        assert!(
            r.mm_transmissions < r.mm_cycles,
            "static-alloc must suppress unchanged targets ({} vs {})",
            r.mm_transmissions,
            r.mm_cycles
        );
    }

    #[test]
    fn two_host_cluster_shards_capacity_and_vms() {
        let spec = build_scenario(ScenarioKind::Scenario1, &tiny_cfg(6));
        let cluster = ClusterConfig {
            hosts: 2,
            ..ClusterConfig::default()
        };
        let r = run_cluster(spec, PolicyKind::Greedy, &tiny_cfg(6), &cluster);
        assert_eq!(r.host_results.len(), 2);
        assert_eq!(r.fleet.hosts, 2);
        assert_eq!(r.fleet.migrations, 0, "no scheduler configured");
        // Scenario 1 has 3 VMs: round-robin puts 2 on host 0, 1 on host 1.
        assert_eq!(r.host_results[0].vm_results.len(), 2);
        assert_eq!(r.host_results[1].vm_results.len(), 1);
        for hr in &r.host_results {
            assert!(!hr.truncated);
            for vm in &hr.vm_results {
                assert_eq!(vm.completions().len(), 2);
            }
        }
    }
}
