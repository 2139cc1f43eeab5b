//! Graph-analytics: the CloudSuite workload stand-in.
//!
//! CloudSuite's graph-analytics runs GraphX PageRank over the
//! `soc-twitter-follows` social network. The reproduction runs real
//! PageRank over a synthetic power-law graph stored in CSR form on
//! [`guest_os::PagedVec`]s:
//!
//! * **load** — CSR offsets and edge targets written sequentially: the
//!   rapid footprint ramp the paper notes ("graph-analytics starts by
//!   making use of a large amount of tmem"),
//! * **iterations** — per vertex, a sequential scan of its out-edges with a
//!   scattered accumulation into the destination ranks (random access),
//! * **apply** — a sequential damping pass swapping rank generations.
//!
//! Strides model GraphX's object overhead (edge triplets, vertex RDDs);
//! see [`GraphAnalyticsConfig::with_footprint`].

use crate::appmodel::{InputReader, Pause};
use crate::datasets::{powerlaw_edges, to_csr};
use crate::traits::{Milestone, StepOutcome, Workload};
use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use guest_os::paged::PagedVec;
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;

/// Edge budget per partition (~2 MiB of edge heap at the default stride).
pub const PARTITION_EDGE_BYTES: u64 = 2 << 20;

/// Configuration for [`GraphAnalytics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphAnalyticsConfig {
    /// Vertex count.
    pub n_nodes: u32,
    /// Edge count.
    pub n_edges: usize,
    /// Guest bytes per CSR edge target (GraphX edge overhead).
    pub edge_stride: usize,
    /// Guest bytes per CSR offset entry.
    pub offset_stride: usize,
    /// Guest bytes per rank entry (two generations are kept).
    pub rank_stride: usize,
    /// PageRank iterations.
    pub iterations: u32,
    /// Damping factor.
    pub damping: f64,
    /// Graph synthesis seed.
    pub seed: u64,
    /// Write-once staging heap (triplet materialization, lineage): written
    /// at load, never read, freed at exit.
    pub cold_bytes: u64,
    /// Compute charged per edge scattered (GraphX per-triplet cost).
    pub compute_per_edge: SimDuration,
    /// Superstep barrier pause (GC + scheduling) armed per iteration.
    pub pause_per_iteration: SimDuration,
}

impl GraphAnalyticsConfig {
    /// Size the workload to a target guest footprint in bytes. Edges take
    /// ~70%; vertex state (offsets + two rank generations) the rest. The
    /// edge-to-node ratio loosely follows soc-twitter-follows (~1.8).
    pub fn with_footprint(bytes: u64, seed: u64) -> Self {
        let edge_stride = 48usize;
        let offset_stride = 16usize;
        let rank_stride = 64usize;
        // 18% write-once staging; live heap splits 70/30 edges/vertices.
        let cold_bytes = ((bytes as f64 * 0.18) as u64 / 4096).max(1) * 4096;
        let hot = bytes - cold_bytes;
        let n_edges = ((hot as f64 * 0.70) / edge_stride as f64).max(16.0) as usize;
        let per_node = 2 * rank_stride + offset_stride;
        let n_nodes = (((hot as f64 * 0.30) / per_node as f64).max(2.0)) as u32;
        GraphAnalyticsConfig {
            n_nodes,
            n_edges,
            edge_stride,
            offset_stride,
            rank_stride,
            cold_bytes,
            iterations: 10,
            damping: 0.85,
            seed,
            compute_per_edge: SimDuration::from_nanos(3_000),
            // Barrier time scales with the partition (~0.15 us per edge).
            pause_per_iteration: SimDuration::from_nanos(150 * n_edges as u64),
        }
    }

    /// Total guest footprint in bytes (live heap + cold staging).
    pub fn footprint_bytes(&self) -> u64 {
        self.n_edges as u64 * self.edge_stride as u64
            + u64::from(self.n_nodes + 1) * self.offset_stride as u64
            + 2 * u64::from(self.n_nodes) * self.rank_stride as u64
            + self.cold_bytes
    }
}

#[derive(Debug)]
enum Phase {
    /// Write-touch the CSR offsets in order. `offsets` and `targets` hold
    /// the assembled graph until the first step hands each to its
    /// [`PagedVec`].
    LoadOffsets {
        pos: usize,
        offsets: Vec<u32>,
        targets: Vec<u32>,
    },
    LoadTargets {
        pos: usize,
    },
    /// Write the cold staging region (never read again).
    LoadCold {
        pos: usize,
    },
    InitRanks {
        pos: usize,
    },
    /// Scatter pass of one iteration: partitions visited in shuffled order
    /// (GraphX task scheduling), vertices sequential within a partition.
    Scatter {
        iter: u32,
        order: Vec<u32>,
        part_pos: usize,
        /// Current vertex, absolute index.
        v: usize,
        /// Current edge cursor, absolute index into the target array.
        e: usize,
    },
    /// Damping/apply pass of one iteration.
    Apply {
        iter: u32,
        pos: usize,
    },
    Finished,
}

/// The graph-analytics workload.
pub struct GraphAnalytics {
    config: GraphAnalyticsConfig,
    input: InputReader,
    pause: Pause,
    rng: SplitMix64,
    /// Partition vertex ranges `[start, end)`, ~2 MiB of edges each.
    partitions: Vec<(u32, u32)>,
    offsets: Option<PagedVec<u32>>,
    targets: Option<PagedVec<u32>>,
    cold: Option<PagedVec<u8>>,
    ranks: Option<PagedVec<f32>>,
    new_ranks: Option<PagedVec<f32>>,
    phase: Phase,
    milestones: Vec<Milestone>,
    rank_sum: Option<f64>,
}

fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

impl GraphAnalytics {
    /// Build the workload. Graph synthesis, CSR assembly and partitioning
    /// happen host-side here; the CSR arrays are moved, not copied, into
    /// their guest-paged vectors on the first step, so each is held once.
    /// The guest-visible load is the `Load*` phases, which write-touch
    /// every offset and target in order.
    pub fn new(config: GraphAnalyticsConfig) -> Self {
        assert!(config.iterations > 0);
        assert!((0.0..1.0).contains(&(config.damping - f64::EPSILON)));
        let edges = powerlaw_edges(config.seed, config.n_nodes, config.n_edges);
        let (offsets, targets) = to_csr(config.n_nodes, &edges);
        // Carve vertex ranges whose edge spans are ~one partition each.
        let edges_per_part = (PARTITION_EDGE_BYTES / config.edge_stride as u64).max(1) as u32;
        let mut partitions = Vec::new();
        let mut start = 0u32;
        while (start as usize) < offsets.len() - 1 {
            let limit = offsets[start as usize].saturating_add(edges_per_part);
            let mut end = start + 1;
            while (end as usize) < offsets.len() - 1 && offsets[end as usize] < limit {
                end += 1;
            }
            partitions.push((start, end));
            start = end;
        }
        if partitions.is_empty() {
            partitions.push((0, 0));
        }
        GraphAnalytics {
            rng: SplitMix64::new(config.seed).derive("partitions"),
            partitions,
            // The on-disk edge list: two u32 endpoints per edge.
            input: InputReader::new(config.n_edges as u64, 8),
            pause: Pause::default(),
            config,
            offsets: None,
            targets: None,
            cold: None,
            ranks: None,
            new_ranks: None,
            phase: Phase::LoadOffsets {
                pos: 0,
                offsets,
                targets,
            },
            milestones: Vec::new(),
            rank_sum: None,
        }
    }

    /// Sum of final ranks (≈ 1 modulo dangling-mass loss) — proof the
    /// computation ran; `None` until completion.
    pub fn rank_sum(&self) -> Option<f64> {
        self.rank_sum
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GraphAnalyticsConfig {
        &self.config
    }

    fn free_all(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        for v in [self.offsets.take(), self.targets.take()]
            .into_iter()
            .flatten()
        {
            v.free(kernel, m);
        }
        if let Some(c) = self.cold.take() {
            c.free(kernel, m);
        }
        for v in [self.ranks.take(), self.new_ranks.take()]
            .into_iter()
            .flatten()
        {
            v.free(kernel, m);
        }
    }
}

impl Workload for GraphAnalytics {
    fn name(&self) -> &str {
        "graph-analytics"
    }

    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome {
        let n = self.config.n_nodes as usize;
        loop {
            if m.budget.exhausted() {
                return StepOutcome::Runnable;
            }
            if self.pause.active() && !self.pause.consume(m) {
                return StepOutcome::Runnable;
            }
            match self.phase {
                Phase::LoadOffsets {
                    ref mut pos,
                    ref mut offsets,
                    ref mut targets,
                } => {
                    if self.offsets.is_none() {
                        self.offsets = Some(PagedVec::from_vec(
                            kernel,
                            std::mem::take(offsets),
                            self.config.offset_stride,
                        ));
                        self.targets = Some(PagedVec::from_vec(
                            kernel,
                            std::mem::take(targets),
                            self.config.edge_stride,
                        ));
                        self.ranks = Some(PagedVec::new(kernel, n, self.config.rank_stride));
                        self.new_ranks = Some(PagedVec::new(kernel, n, self.config.rank_stride));
                    }
                    let offsets = self.offsets.as_mut().expect("allocated above");
                    while *pos < n + 1 {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        offsets.touch_write(*pos, kernel, m);
                        *pos += 1;
                    }
                    self.phase = Phase::LoadTargets { pos: 0 };
                }
                Phase::LoadTargets { ref mut pos } => {
                    let targets = self.targets.as_mut().expect("allocated in LoadOffsets");
                    while *pos < targets.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        self.input.consume(m);
                        targets.touch_write(*pos, kernel, m);
                        *pos += 1;
                    }
                    self.phase = Phase::LoadCold { pos: 0 };
                }
                Phase::LoadCold { ref mut pos } => {
                    if self.cold.is_none() {
                        let pages = (self.config.cold_bytes / 4096).max(1) as usize;
                        self.cold = Some(PagedVec::new(kernel, pages, 4096));
                    }
                    let cold = self.cold.as_mut().expect("allocated above");
                    while *pos < cold.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        cold.set(*pos, 0xCD, kernel, m);
                        *pos += 1;
                    }
                    self.milestones.push(Milestone("loaded".into()));
                    self.phase = Phase::InitRanks { pos: 0 };
                }
                Phase::InitRanks { ref mut pos } => {
                    let init = 1.0 / n as f32;
                    let ranks = self.ranks.as_mut().expect("allocated in LoadOffsets");
                    let new_ranks = self.new_ranks.as_mut().expect("allocated in LoadOffsets");
                    while *pos < n {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        ranks.set(*pos, init, kernel, m);
                        new_ranks.set(*pos, 0.0, kernel, m);
                        *pos += 1;
                    }
                    let order = shuffled(&mut self.rng, self.partitions.len());
                    let (v0, _) = self.partitions[order[0] as usize];
                    self.phase = Phase::Scatter {
                        iter: 0,
                        order,
                        part_pos: 0,
                        v: v0 as usize,
                        e: usize::MAX,
                    };
                }
                Phase::Scatter {
                    iter,
                    ref order,
                    ref mut part_pos,
                    ref mut v,
                    ref mut e,
                } => {
                    let offsets = self.offsets.as_ref().expect("live during iteration");
                    let targets = self.targets.as_ref().expect("live during iteration");
                    let ranks = self.ranks.as_ref().expect("live during iteration");
                    let new_ranks = self.new_ranks.as_mut().expect("live during iteration");
                    'outer: while *part_pos < order.len() {
                        let (_, pend) = self.partitions[order[*part_pos] as usize];
                        while *v < pend as usize {
                            let lo = offsets.get(*v, kernel, m) as usize;
                            let hi = offsets.get(*v + 1, kernel, m) as usize;
                            let deg = (hi - lo).max(1) as f32;
                            let contrib = ranks.get(*v, kernel, m) / deg;
                            if *e < lo || *e == usize::MAX {
                                *e = lo;
                            }
                            while *e < hi {
                                if m.budget.exhausted() {
                                    break 'outer;
                                }
                                let dst = targets.get(*e, kernel, m) as usize;
                                let cur = new_ranks.get(dst, kernel, m);
                                new_ranks.set(dst, cur + contrib, kernel, m);
                                m.budget.charge_compute(self.config.compute_per_edge);
                                *e += 1;
                            }
                            *v += 1;
                            if m.budget.exhausted() {
                                break 'outer;
                            }
                        }
                        *part_pos += 1;
                        if *part_pos < order.len() {
                            let (vs, _) = self.partitions[order[*part_pos] as usize];
                            *v = vs as usize;
                            *e = usize::MAX;
                        }
                    }
                    if *part_pos >= order.len() {
                        self.phase = Phase::Apply { iter, pos: 0 };
                    } else {
                        return StepOutcome::Runnable;
                    }
                }
                Phase::Apply { iter, ref mut pos } => {
                    let base = ((1.0 - self.config.damping) / n as f64) as f32;
                    let d = self.config.damping as f32;
                    let ranks = self.ranks.as_mut().expect("live during iteration");
                    let new_ranks = self.new_ranks.as_mut().expect("live during iteration");
                    while *pos < n {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let acc = new_ranks.get(*pos, kernel, m);
                        ranks.set(*pos, base + d * acc, kernel, m);
                        new_ranks.set(*pos, 0.0, kernel, m);
                        *pos += 1;
                    }
                    let next = iter + 1;
                    self.milestones.push(Milestone(format!("iter:{next}")));
                    self.pause.arm(self.config.pause_per_iteration);
                    if next == self.config.iterations {
                        // Final rank mass, read without simulation cost
                        // (verification only).
                        let sum: f64 = (0..n)
                            .map(|i| f64::from(*self.ranks.as_ref().unwrap().peek(i)))
                            .sum();
                        self.rank_sum = Some(sum);
                        self.free_all(kernel, m);
                        self.phase = Phase::Finished;
                        return StepOutcome::Done;
                    }
                    let order = shuffled(&mut self.rng, self.partitions.len());
                    let (v0, _) = self.partitions[order[0] as usize];
                    self.phase = Phase::Scatter {
                        iter: next,
                        order,
                        part_pos: 0,
                        v: v0 as usize,
                        e: usize::MAX,
                    };
                }
                Phase::Finished => return StepOutcome::Done,
            }
        }
    }

    fn drain_milestones(&mut self) -> Vec<Milestone> {
        std::mem::take(&mut self.milestones)
    }

    fn abort(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.free_all(kernel, m);
        self.phase = Phase::Finished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::budget::StepBudget;
    use guest_os::disk::SharedDisk;
    use guest_os::kernel::GuestConfig;
    use sim_core::cost::CostModel;
    use sim_core::time::{SimDuration, SimTime};
    use tmem::backend::PoolKind;
    use tmem::key::VmId;
    use tmem::page::Fingerprint;
    use xen_sim::hypervisor::Hypervisor;
    use xen_sim::vm::VmConfig;

    fn small_config() -> GraphAnalyticsConfig {
        GraphAnalyticsConfig {
            n_nodes: 300,
            n_edges: 3000,
            edge_stride: 48,
            offset_stride: 16,
            rank_stride: 64,
            cold_bytes: 8 * 4096,
            iterations: 5,
            damping: 0.85,
            seed: 9,
            compute_per_edge: SimDuration::from_nanos(1_000),
            pause_per_iteration: SimDuration::from_micros(450),
        }
    }

    fn run_to_completion(
        config: GraphAnalyticsConfig,
        ram_pages: u64,
        tmem_pages: u64,
    ) -> (GraphAnalytics, GuestKernel) {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(tmem_pages, tmem_pages);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", ram_pages * 4096, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages,
            os_reserved_pages: 2,
            readahead_pages: 8,
            frontswap_enabled: true,
        });
        kernel.attach_frontswap(pool);
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let mut w = GraphAnalytics::new(config);
        for _ in 0..2_000_000 {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            if w.step(&mut kernel, &mut m) == StepOutcome::Done {
                return (w, kernel);
            }
        }
        panic!("workload did not complete");
    }

    #[test]
    fn pagerank_mass_is_conserved_modulo_dangling() {
        let (w, kernel) = run_to_completion(small_config(), 512, 512);
        let sum = w.rank_sum().expect("completed");
        assert!(sum > 0.1 && sum <= 1.01, "rank mass {sum}");
        assert_eq!(kernel.resident_pages(), 0);
    }

    #[test]
    fn result_is_identical_under_memory_pressure() {
        let (comfortable, _) = run_to_completion(small_config(), 512, 512);
        let (pressured, kernel) = run_to_completion(small_config(), 32, 16);
        assert_eq!(comfortable.rank_sum(), pressured.rank_sum());
        assert!(
            kernel.stats().evictions_to_tmem + kernel.stats().evictions_to_disk > 0,
            "the pressured run really did swap"
        );
    }

    #[test]
    fn footprint_sizing_is_close_to_target() {
        let cfg = GraphAnalyticsConfig::with_footprint(32 << 20, 2);
        let got = cfg.footprint_bytes() as f64;
        let want = (32u64 << 20) as f64;
        assert!(
            (got / want - 1.0).abs() < 0.15,
            "footprint {got} vs target {want}"
        );
    }

    #[test]
    fn iteration_milestones_appear() {
        let (mut w, _) = run_to_completion(small_config(), 512, 512);
        let labels: Vec<_> = w.drain_milestones().into_iter().map(|m| m.0).collect();
        assert!(labels.contains(&"loaded".to_string()));
        assert!(labels.contains(&"iter:5".to_string()));
    }

    #[test]
    fn abort_midway_releases_memory() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(512, 512);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 512 * 4096, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages: 64,
            os_reserved_pages: 2,
            readahead_pages: 8,
            frontswap_enabled: true,
        });
        kernel.attach_frontswap(pool);
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let mut w = GraphAnalytics::new(small_config());
        // A few steps in, then kill it.
        for _ in 0..10 {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            w.step(&mut kernel, &mut m);
        }
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = Machine {
            hyp: &mut hyp,
            disk: &mut disk,
            cost: &cost,
            now: SimTime::ZERO,
            budget: &mut b,
        };
        w.abort(&mut kernel, &mut m);
        assert_eq!(kernel.resident_pages(), 0);
        assert_eq!(hyp.tmem_used_by(VmId(1)), 0);
    }
}
