//! Per-layer probes: each times one layer's public functions from outside,
//! with the operation mix and sizes taken from the workload's own cells.
//!
//! A probe reports host nanoseconds per call. Operation counts are the
//! workload's count clamped to a range that keeps each probe under about a
//! second, so the figure is comparable across runs of one workload.

use crate::cells::Prepared;
use guest_os::budget::StepBudget;
use guest_os::disk::SharedDisk;
use guest_os::kernel::{GuestConfig, GuestKernel};
use guest_os::machine::Machine;
use scenarios::spec::{ProgramStep, VmSpec, WorkloadSpec};
use scenarios::PolicyKind;
use sim_core::cost::CostModel;
use sim_core::event::EventQueue;
use sim_core::time::{SimDuration, SimTime};
use smartmem_core::mm::MemoryManager;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tmem::backend::{PoolKind, TmemBackend};
use tmem::key::{ObjectId, PoolId, VmId};
use tmem::page::Fingerprint;
use workloads::traits::StepOutcome;
use xen_sim::hypervisor::Hypervisor;
use xen_sim::vm::VmConfig;

/// Pages per tmem object in the datapath probes (one swap cluster).
const OBJ_PAGES: u64 = 512;

/// Steps after which a standalone workload is stopped: usemem runs until
/// its scenario stops it, which never happens when it runs alone.
const MAX_STEPS: u64 = 10_000;

/// The sizes and counts a workload gives its probes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// VMs on the largest host of the largest cell.
    pub vms: usize,
    /// tmem pages of that host.
    pub tmem_pages: u64,
    /// RAM pages of its largest VM.
    pub ram_pages: u64,
    /// tmem puts recorded over the pass.
    pub puts: u64,
    /// tmem gets recorded over the pass.
    pub gets: u64,
    /// Share of puts that went to persistent (frontswap) pools.
    pub persistent_share: f64,
    /// MM cycles over the pass.
    pub mm_cycles: u64,
    /// Simulator events over the pass.
    pub events: u64,
    /// The managed policy of the largest cell (smart-alloc:2 when none).
    pub policy: PolicyKind,
}

fn ns_per(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `TmemBackend::put`, `get` and `flush_object`: persistent and ephemeral
/// pools of every VM on one backend of the host's capacity.
pub fn tmem(s: &Shape) -> (f64, f64, f64) {
    let mut b: TmemBackend<Fingerprint> = TmemBackend::new(s.tmem_pages.max(1));
    let mut pools: Vec<(PoolId, bool)> = Vec::new();
    for v in 0..s.vms as u32 {
        let vm = VmId(v + 1);
        pools.push((
            b.new_pool(vm, PoolKind::Persistent).expect("fresh pool"),
            true,
        ));
        pools.push((
            b.new_pool(vm, PoolKind::Ephemeral).expect("fresh pool"),
            false,
        ));
    }
    let n = s.puts.clamp(100_000, 1_000_000);
    let keys = keys(n, &pools, s.persistent_share);
    let t = Instant::now();
    for &(pool, obj, idx) in &keys {
        let _ = black_box(b.put(pool, ObjectId(obj), idx, Fingerprint(obj ^ u64::from(idx))));
    }
    let put_ns = ns_per(t, n);
    let g = s.gets.clamp(100_000, 1_000_000).min(n) as usize;
    let t = Instant::now();
    for &(pool, obj, idx) in &keys[..g] {
        let _ = black_box(b.get(pool, ObjectId(obj), idx));
    }
    let get_ns = ns_per(t, g as u64);
    let mut objects: Vec<(PoolId, u64)> = keys.iter().map(|&(p, o, _)| (p, o)).collect();
    objects.dedup();
    let t = Instant::now();
    for &(pool, obj) in &objects {
        let _ = black_box(b.flush_object(pool, ObjectId(obj)));
    }
    (put_ns, get_ns, ns_per(t, objects.len() as u64))
}

/// `n` keys filling objects in order, each object on one pool; persistent
/// pools take `persistent_share` of the objects.
fn keys(n: u64, pools: &[(PoolId, bool)], persistent_share: f64) -> Vec<(PoolId, u64, u32)> {
    let objects = n.div_ceil(OBJ_PAGES);
    let persistent: Vec<PoolId> = pools.iter().filter(|p| p.1).map(|p| p.0).collect();
    let ephemeral: Vec<PoolId> = pools.iter().filter(|p| !p.1).map(|p| p.0).collect();
    let mut out = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for o in 0..objects {
        acc += persistent_share;
        let pool = if acc >= 1.0 {
            acc -= 1.0;
            persistent[o as usize % persistent.len()]
        } else {
            ephemeral[o as usize % ephemeral.len()]
        };
        for i in 0..OBJ_PAGES.min(n - o * OBJ_PAGES) {
            out.push((pool, o, i as u32));
        }
    }
    out
}

fn hypervisor(s: &Shape, tmem_pages: u64) -> (Hypervisor<Fingerprint>, Vec<PoolId>) {
    let target = MemoryManager::from_kind(s.policy, 128)
        .map_or(tmem_pages, |m| m.initial_target(tmem_pages));
    let mut hyp = Hypervisor::new(tmem_pages, target);
    let pools = (0..s.vms as u32)
        .map(|v| {
            let vm = VmId(v + 1);
            hyp.register_vm(VmConfig::new(
                vm,
                format!("VM{}", v + 1),
                s.ram_pages * 4096,
                1,
            ));
            hyp.new_pool(vm, PoolKind::Persistent).expect("fresh pool")
        })
        .collect();
    (hyp, pools)
}

/// `Hypervisor::put` and `get`: Algorithm 1 admission in front of the
/// backend, frontswap traffic round-robin over the VMs at the policy's
/// initial targets.
pub fn xen(s: &Shape) -> (f64, f64) {
    let (mut hyp, pools) = hypervisor(s, s.tmem_pages.max(1));
    let pools: Vec<(PoolId, bool)> = pools.into_iter().map(|p| (p, true)).collect();
    let n = s.puts.clamp(100_000, 1_000_000);
    let keys = keys(n, &pools, 1.0);
    let t = Instant::now();
    for &(pool, obj, idx) in &keys {
        let _ = black_box(hyp.put(pool, ObjectId(obj), idx, Fingerprint(obj ^ u64::from(idx))));
    }
    let put_ns = ns_per(t, n);
    let g = s.gets.clamp(100_000, 1_000_000).min(n) as usize;
    let t = Instant::now();
    for &(pool, obj, idx) in &keys[..g] {
        black_box(hyp.get(pool, ObjectId(obj), idx));
    }
    (put_ns, ns_per(t, g as u64))
}

/// `MemoryManager::on_stats` over `Hypervisor::sample` snapshots of the
/// cell's VM count, with put traffic between samples so the vectors move.
pub fn mm(s: &Shape) -> f64 {
    let policy = match s.policy {
        PolicyKind::NoTmem => PolicyKind::SmartAlloc { p: 2.0 },
        p => p,
    };
    let shape = Shape {
        policy,
        ..s.clone()
    };
    let (mut hyp, pools) = hypervisor(&shape, s.tmem_pages.max(1));
    let mut mm = MemoryManager::from_kind(policy, 128).expect("a managed policy");
    let n = s.mm_cycles.clamp(20_000, 200_000);
    let mut spent = std::time::Duration::ZERO;
    for c in 0..n {
        let pool = pools[c as usize % pools.len()];
        for i in 0..(c % 64) as u32 {
            let _ = hyp.put(pool, ObjectId(c), i, Fingerprint(c));
        }
        let msg = hyp.sample(SimTime::from_millis(c));
        let t = Instant::now();
        let out = black_box(mm.on_stats(&msg));
        spent += t.elapsed();
        if let Some((seq, targets)) = out {
            hyp.apply_targets(seq, &targets);
        }
    }
    spent.as_nanos() as f64 / n as f64
}

/// `EventQueue::schedule_at` plus `pop_batch` at the cell's queue depth:
/// one pending step per VM, re-armed a pseudo-random quantum later.
pub fn queue(s: &Shape) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    for v in 0..s.vms as u32 + 4 {
        q.schedule_at(SimTime::ZERO + SimDuration::from_micros(u64::from(v)), v);
    }
    let n = s.events.clamp(200_000, 2_000_000);
    let mut buf = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut done = 0u64;
    let t = Instant::now();
    while done < n {
        let now = q.pop_batch(&mut buf).expect("the queue never drains");
        for e in buf.drain(..) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule_at(now + SimDuration::from_micros(1 + x % 1000), black_box(e));
            done += 1;
        }
    }
    ns_per(t, done)
}

/// `GuestKernel::touch` with frontswap attached and a working set twice
/// the usable RAM, so most touches evict to tmem and fault back.
pub fn touch(s: &Shape) -> f64 {
    let ram = s.ram_pages.max(64);
    let mut kernel = GuestKernel::new(GuestConfig {
        vm: VmId(1),
        ram_pages: ram,
        os_reserved_pages: (ram / 5).max(2),
        readahead_pages: 32,
        frontswap_enabled: true,
    });
    let ws = 2 * kernel.config().usable_frames();
    let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(4 * ws, 4 * ws);
    hyp.register_vm(VmConfig::new(VmId(1), "VM1", ram * 4096, 1));
    kernel.attach_frontswap(
        hyp.new_pool(VmId(1), PoolKind::Persistent)
            .expect("fresh pool"),
    );
    let mut disk = SharedDisk::default();
    let cost = CostModel::hdd();
    let mut budget = StepBudget::new(SimDuration::from_secs(1 << 30));
    let base = kernel.alloc(ws);
    let n = s.gets.max(s.puts).clamp(200_000, 1_000_000);
    let mut m = Machine {
        hyp: &mut hyp,
        disk: &mut disk,
        cost: &cost,
        now: SimTime::ZERO,
        budget: &mut budget,
    };
    let t = Instant::now();
    for i in 0..n {
        kernel.touch(base.offset(i % ws), i % 3 == 0, &mut m);
    }
    ns_per(t, n)
}

/// `Workload::step` to completion, for every distinct workload of the pass,
/// each built fresh and run alone on a guest of its VM's size.
/// Returns ns per step and the steps one pass takes (each distinct
/// workload's step count, at most [`MAX_STEPS`], times the VMs that run
/// it).
pub fn workload_steps(cells: &[&Prepared]) -> (f64, u64) {
    let mut runs: BTreeMap<String, (u64, &Prepared, &VmSpec, &WorkloadSpec)> = BTreeMap::new();
    for p in cells {
        for vm in &p.spec.vms {
            for step in &vm.program {
                if let ProgramStep::Run(ws) = step {
                    let key = format!(
                        "{ws:?} {} {}",
                        vm.config.ram_pages(),
                        p.policy.tmem_enabled()
                    );
                    runs.entry(key).or_insert((0, p, vm, ws)).0 += 1;
                }
            }
        }
    }
    let cost = CostModel::hdd();
    let (mut total_ns, mut total_steps, mut pass_steps) = (0u128, 0u64, 0u64);
    for (weight, p, vm, ws) in runs.into_values() {
        let ram = vm.config.ram_pages();
        let frontswap = p.policy.tmem_enabled();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: vm.config.id,
            ram_pages: ram,
            os_reserved_pages: ((ram as f64 * p.cfg.os_reserve_frac) as u64).max(2),
            readahead_pages: p.cfg.readahead_pages,
            frontswap_enabled: frontswap,
        });
        let tmem_pages = p.spec.tmem_pages().max(1);
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(tmem_pages, tmem_pages);
        hyp.register_vm(vm.config.clone());
        if frontswap {
            kernel.attach_frontswap(
                hyp.new_pool(vm.config.id, PoolKind::Persistent)
                    .expect("fresh pool"),
            );
        }
        let mut disk = SharedDisk::default();
        let mut w = ws.build(p.cfg.seed);
        let mut steps = 0u64;
        let mut now = SimTime::ZERO;
        let t = Instant::now();
        loop {
            let mut budget = StepBudget::new(p.cfg.quantum);
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now,
                budget: &mut budget,
            };
            let out = w.step(&mut kernel, &mut m);
            steps += 1;
            now += budget.elapsed(1.0);
            w.drain_milestones();
            if out == StepOutcome::Done || steps == MAX_STEPS {
                break;
            }
        }
        total_ns += t.elapsed().as_nanos();
        total_steps += steps;
        pass_steps += weight * steps;
    }
    (total_ns as f64 / total_steps.max(1) as f64, pass_steps)
}
