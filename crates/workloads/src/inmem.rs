//! In-memory-analytics: the CloudSuite workload stand-in.
//!
//! CloudSuite's in-memory-analytics runs Spark MLlib's ALS collaborative
//! filtering over the MovieLens rating set. The reproduction runs a *real*
//! stochastic-gradient matrix-factorization recommender (same problem, same
//! data shape, same memory behaviour on a single core) over a synthetic
//! MovieLens-shaped rating set:
//!
//! * **load** — the rating set is written sequentially into guest memory
//!   (the footprint ramp the paper's figures show at run start),
//! * **training epochs** — each epoch scans the ratings sequentially and,
//!   per rating, reads and updates the user and item factor rows — the
//!   random-access component that punishes disk swapping,
//! * **evaluation** — a final sequential pass computing training RMSE.
//!
//! Element *strides* model Spark's JVM object overhead: a logical 12-byte
//! rating occupies `rating_stride` bytes of heap (default 64), a factor row
//! `factor_stride` (default 128), which is how a ~24 MB MovieLens export
//! becomes a guest footprint exceeding a 1 GB VM.

use crate::appmodel::{InputReader, Pause};
use crate::datasets::{movielens_ratings, Rating};
use crate::traits::{Milestone, StepOutcome, Workload};
use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use guest_os::paged::PagedVec;
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;

/// Latent factor rank (fixed: CloudSuite's ALS default neighbourhood).
pub const RANK: usize = 8;

type FactorRow = [f32; RANK];

/// Ratings per Spark-style partition (~2 MiB of heap at the default
/// stride): training visits partitions in a per-epoch shuffled order, as a
/// task scheduler would, so cache misses under a capacity shortage are
/// proportional to the shortage instead of all-or-nothing.
pub const PARTITION_RATINGS: usize = 32 * 1024;

fn shuffled_partitions(rng: &mut SplitMix64, n_parts: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n_parts as u32).collect();
    // Fisher-Yates.
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Small random factor initialization.
fn small_random(rng: &mut SplitMix64) -> FactorRow {
    let mut row = [0.0f32; RANK];
    for v in &mut row {
        *v = (rng.next_f64() as f32 - 0.5) * 0.2;
    }
    row
}

/// Configuration for [`InMemoryAnalytics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InMemoryAnalyticsConfig {
    /// Number of users.
    pub n_users: u32,
    /// Number of items.
    pub n_items: u32,
    /// Number of ratings.
    pub n_ratings: usize,
    /// Guest bytes per rating (JVM overhead model).
    pub rating_stride: usize,
    /// Guest bytes per factor row.
    pub factor_stride: usize,
    /// Training epochs.
    pub epochs: u32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub regularization: f32,
    /// Dataset + initialization seed.
    pub seed: u64,
    /// Write-once staging heap (RDD lineage, shuffle spill, dead objects):
    /// written during load, never read again, freed at exit. Under greedy
    /// tmem these pages squat in the pool for the whole run — the waste
    /// mechanism the managed policies exploit.
    pub cold_bytes: u64,
    /// Compute charged per rating processed during training/evaluation
    /// (JVM execution cost; dominates when memory is comfortable).
    pub compute_per_rating: SimDuration,
    /// GC / scheduler pause armed after each epoch: a window with no
    /// memory pressure, during which demand-driven policies may reclaim.
    pub gc_pause_per_epoch: SimDuration,
}

impl InMemoryAnalyticsConfig {
    /// Size the workload to a target guest footprint in bytes. Ratings take
    /// ~65% of the footprint, factor rows the rest; user/item counts follow
    /// the MovieLens-1M proportions (~60% users).
    pub fn with_footprint(bytes: u64, seed: u64) -> Self {
        let rating_stride = 64usize;
        let factor_stride = 128usize;
        // 18% of the heap is write-once staging; the live (hot) heap splits
        // ~65/35 between ratings and factor rows.
        let cold_bytes = ((bytes as f64 * 0.18) as u64 / 4096).max(1) * 4096;
        let hot = bytes - cold_bytes;
        let n_ratings = ((hot as f64 * 0.65) / rating_stride as f64).max(64.0) as usize;
        let factor_rows = ((hot as f64 * 0.35) / factor_stride as f64).max(8.0) as u64;
        let n_users = ((factor_rows * 6) / 10).max(2) as u32;
        let n_items = (factor_rows - u64::from(n_users / 10) * 6).max(2) as u32;
        InMemoryAnalyticsConfig {
            n_users,
            n_items: n_items
                .min(factor_rows as u32 - n_users.min(factor_rows as u32 - 1))
                .max(2),
            n_ratings,
            rating_stride,
            factor_stride,
            cold_bytes,
            epochs: 3,
            learning_rate: 0.02,
            regularization: 0.05,
            seed,
            compute_per_rating: SimDuration::from_nanos(4_000),
            // GC time scales with heap: ~0.3 us per live rating object.
            gc_pause_per_epoch: SimDuration::from_nanos(300 * n_ratings as u64),
        }
    }

    /// Total guest footprint in bytes (live heap + cold staging).
    pub fn footprint_bytes(&self) -> u64 {
        self.n_ratings as u64 * self.rating_stride as u64
            + (u64::from(self.n_users) + u64::from(self.n_items)) * self.factor_stride as u64
            + self.cold_bytes
    }
}

#[derive(Debug)]
enum Phase {
    /// Write-touch the ratings in order. `data` holds the synthesized set
    /// until the first step hands it to the ratings [`PagedVec`].
    Load {
        pos: usize,
        data: Vec<Rating>,
    },
    /// Write the cold staging region (never read again).
    LoadCold {
        pos: usize,
    },
    InitUsers {
        pos: usize,
    },
    InitItems {
        pos: usize,
    },
    Train {
        epoch: u32,
        /// Shuffled partition visit order for this epoch.
        order: Vec<u32>,
        /// Index into `order`.
        part_pos: usize,
        /// Offset within the current partition.
        in_part: usize,
    },
    Evaluate {
        pos: usize,
        sse: f64,
    },
    Finished,
}

/// The in-memory-analytics workload.
pub struct InMemoryAnalytics {
    config: InMemoryAnalyticsConfig,
    input: InputReader,
    pause: Pause,
    ratings: Option<PagedVec<Rating>>,
    cold: Option<PagedVec<u8>>,
    user_f: Option<PagedVec<FactorRow>>,
    item_f: Option<PagedVec<FactorRow>>,
    rng: SplitMix64,
    phase: Phase,
    milestones: Vec<Milestone>,
    rmse: Option<f64>,
}

impl InMemoryAnalytics {
    /// Build the workload. The rating set is synthesized host-side here and
    /// moved, not copied, into the guest-paged ratings vector on the first
    /// step, so it is held once; the guest-visible load is the `Load`
    /// phase, which write-touches every rating in order.
    pub fn new(config: InMemoryAnalyticsConfig) -> Self {
        assert!(config.epochs > 0, "at least one epoch");
        let data = movielens_ratings(
            config.seed,
            config.n_users,
            config.n_items,
            config.n_ratings,
        );
        InMemoryAnalytics {
            rng: SplitMix64::new(config.seed).derive("factors"),
            // The on-disk dataset: one 16-byte text record per rating.
            input: InputReader::new(config.n_ratings as u64, 16),
            pause: Pause::default(),
            config,
            ratings: None,
            cold: None,
            user_f: None,
            item_f: None,
            phase: Phase::Load { pos: 0, data },
            milestones: Vec::new(),
            rmse: None,
        }
    }

    /// Training RMSE after the run (None until evaluation completes).
    pub fn rmse(&self) -> Option<f64> {
        self.rmse
    }

    /// The configuration in effect.
    pub fn config(&self) -> &InMemoryAnalyticsConfig {
        &self.config
    }

    fn free_all(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        if let Some(r) = self.ratings.take() {
            r.free(kernel, m);
        }
        if let Some(c) = self.cold.take() {
            c.free(kernel, m);
        }
        if let Some(u) = self.user_f.take() {
            u.free(kernel, m);
        }
        if let Some(i) = self.item_f.take() {
            i.free(kernel, m);
        }
    }
}

impl Workload for InMemoryAnalytics {
    fn name(&self) -> &str {
        "in-memory-analytics"
    }

    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome {
        loop {
            if m.budget.exhausted() {
                return StepOutcome::Runnable;
            }
            if self.pause.active() && !self.pause.consume(m) {
                return StepOutcome::Runnable;
            }
            match self.phase {
                Phase::Load {
                    ref mut pos,
                    ref mut data,
                } => {
                    if self.ratings.is_none() {
                        self.ratings = Some(PagedVec::from_vec(
                            kernel,
                            std::mem::take(data),
                            self.config.rating_stride,
                        ));
                        self.user_f = Some(PagedVec::new(
                            kernel,
                            self.config.n_users as usize,
                            self.config.factor_stride,
                        ));
                        self.item_f = Some(PagedVec::new(
                            kernel,
                            self.config.n_items as usize,
                            self.config.factor_stride,
                        ));
                    }
                    let ratings = self.ratings.as_mut().expect("allocated above");
                    while *pos < ratings.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        self.input.consume(m);
                        ratings.touch_write(*pos, kernel, m);
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
                    self.phase = Phase::InitUsers { pos: 0 };
                }
                Phase::InitUsers { ref mut pos } => {
                    while *pos < self.config.n_users as usize {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let row = small_random(&mut self.rng);
                        self.user_f
                            .as_mut()
                            .expect("factors allocated in load")
                            .set(*pos, row, kernel, m);
                        *pos += 1;
                    }
                    self.phase = Phase::InitItems { pos: 0 };
                }
                Phase::InitItems { ref mut pos } => {
                    while *pos < self.config.n_items as usize {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let row = small_random(&mut self.rng);
                        self.item_f
                            .as_mut()
                            .expect("factors allocated in load")
                            .set(*pos, row, kernel, m);
                        *pos += 1;
                    }
                    let n_parts = self.config.n_ratings.div_ceil(PARTITION_RATINGS);
                    self.phase = Phase::Train {
                        epoch: 0,
                        order: shuffled_partitions(&mut self.rng, n_parts),
                        part_pos: 0,
                        in_part: 0,
                    };
                }
                Phase::Train {
                    ref mut epoch,
                    ref mut order,
                    ref mut part_pos,
                    ref mut in_part,
                } => {
                    let ratings = self.ratings.as_ref().expect("live during training");
                    let user_f = self.user_f.as_mut().expect("live during training");
                    let item_f = self.item_f.as_mut().expect("live during training");
                    let lr = self.config.learning_rate;
                    let reg = self.config.regularization;
                    while *part_pos < order.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let base = order[*part_pos] as usize * PARTITION_RATINGS;
                        let pos = base + *in_part;
                        if pos >= self.config.n_ratings {
                            // Short tail partition.
                            *part_pos += 1;
                            *in_part = 0;
                            continue;
                        }
                        let r = ratings.get(pos, kernel, m);
                        let u = user_f.get(r.user as usize, kernel, m);
                        let v = item_f.get(r.item as usize, kernel, m);
                        let pred: f32 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
                        let err = r.value - pred;
                        let mut nu = [0.0f32; RANK];
                        let mut nv = [0.0f32; RANK];
                        for k in 0..RANK {
                            nu[k] = u[k] + lr * (err * v[k] - reg * u[k]);
                            nv[k] = v[k] + lr * (err * u[k] - reg * v[k]);
                        }
                        user_f.set(r.user as usize, nu, kernel, m);
                        item_f.set(r.item as usize, nv, kernel, m);
                        m.budget.charge_compute(self.config.compute_per_rating);
                        *in_part += 1;
                        if *in_part == PARTITION_RATINGS {
                            *part_pos += 1;
                            *in_part = 0;
                        }
                    }
                    *epoch += 1;
                    self.milestones.push(Milestone(format!("epoch:{epoch}")));
                    self.pause.arm(self.config.gc_pause_per_epoch);
                    if *epoch == self.config.epochs {
                        self.phase = Phase::Evaluate { pos: 0, sse: 0.0 };
                    } else {
                        let n_parts = self.config.n_ratings.div_ceil(PARTITION_RATINGS);
                        *order = shuffled_partitions(&mut self.rng, n_parts);
                        *part_pos = 0;
                        *in_part = 0;
                    }
                }
                Phase::Evaluate {
                    ref mut pos,
                    ref mut sse,
                } => {
                    let ratings = self.ratings.as_ref().expect("live during evaluation");
                    let user_f = self.user_f.as_ref().expect("live during evaluation");
                    let item_f = self.item_f.as_ref().expect("live during evaluation");
                    while *pos < self.config.n_ratings {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let r = ratings.get(*pos, kernel, m);
                        let u = user_f.get(r.user as usize, kernel, m);
                        let v = item_f.get(r.item as usize, kernel, m);
                        let pred: f32 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
                        let err = f64::from(r.value - pred);
                        *sse += err * err;
                        m.budget.charge_compute(self.config.compute_per_rating);
                        *pos += 1;
                    }
                    self.rmse = Some((*sse / self.config.n_ratings as f64).sqrt());
                    self.free_all(kernel, m);
                    self.phase = Phase::Finished;
                    return StepOutcome::Done;
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

    fn small_config() -> InMemoryAnalyticsConfig {
        InMemoryAnalyticsConfig {
            n_users: 50,
            n_items: 30,
            n_ratings: 4000,
            rating_stride: 64,
            factor_stride: 128,
            cold_bytes: 16 * 4096,
            epochs: 3,
            learning_rate: 0.02,
            regularization: 0.05,
            seed: 42,
            compute_per_rating: SimDuration::from_nanos(1_500),
            gc_pause_per_epoch: SimDuration::from_micros(500),
        }
    }

    fn run_to_completion(
        config: InMemoryAnalyticsConfig,
        ram_pages: u64,
        tmem_pages: u64,
    ) -> (InMemoryAnalytics, GuestKernel) {
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
        let mut w = InMemoryAnalytics::new(config);
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
    fn training_reduces_rmse_below_trivial_predictor() {
        let (w, kernel) = run_to_completion(small_config(), 512, 512);
        let rmse = w.rmse().expect("evaluation ran");
        // The zero-factor predictor's RMSE equals the rating RMS (≈ 2.8 for
        // a 0.5–5 distribution); training must beat it comfortably.
        assert!(rmse < 1.6, "rmse={rmse}");
        assert_eq!(kernel.resident_pages(), 0, "memory released");
    }

    #[test]
    fn result_is_identical_under_memory_pressure() {
        // Same seed, vastly different memory conditions: paging must not
        // change the computation's outcome, only its cost.
        let (comfortable, _) = run_to_completion(small_config(), 512, 512);
        let (pressured, kernel) = run_to_completion(small_config(), 48, 24);
        assert_eq!(comfortable.rmse(), pressured.rmse());
        assert!(
            kernel.stats().evictions_to_tmem > 0 || kernel.stats().evictions_to_disk > 0,
            "the pressured run really did swap"
        );
    }

    #[test]
    fn footprint_sizing_is_close_to_target() {
        let cfg = InMemoryAnalyticsConfig::with_footprint(64 << 20, 1);
        let got = cfg.footprint_bytes() as f64;
        let want = (64u64 << 20) as f64;
        assert!(
            (got / want - 1.0).abs() < 0.15,
            "footprint {got} vs target {want}"
        );
    }

    #[test]
    fn milestones_mark_phases() {
        let (mut w, _) = run_to_completion(small_config(), 512, 512);
        let labels: Vec<_> = w.drain_milestones().into_iter().map(|m| m.0).collect();
        assert!(labels.contains(&"loaded".to_string()));
        assert!(labels.contains(&"epoch:3".to_string()));
    }
}
