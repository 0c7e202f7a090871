//! The three workloads, run end to end through `run_training` and
//! `run_serving` with tracing off.
//!
//! Every workload runs world 4 under the sequential executor over an
//! instant wire: four rank threads, at most one running at a time, so a
//! real 4-way all-to-all happens without four runnable threads competing
//! for the host's cores and the timing does not hinge on the OS scheduler.
//!
//! A run first sets up `SETUP_REPEATS` times. One set-up is everything
//! done before work is timed: the dataset, the offline plan (train-adaptive)
//! and one call of one iteration (training) or one window (serving), which
//! pays the fixed per-call cost of spawning ranks and building their model
//! shards. The timed calls then each run `TRAIN_ITERATIONS` iterations or
//! `SERVE_REQUESTS` requests; subtracting the median fixed cost leaves the
//! time of the remaining iterations or requests alone.

use crate::output::Report;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use dlrm_adaptive::CompressionPlan;
use dlrm_bench::workloads::{serve_workload, Scale, PAPER_BANDWIDTH, PAPER_HYBRID_THROUGHPUT};
use dlrm_comm::{phase, NetworkConfig};
use dlrm_data::{presets, DatasetConfig, SyntheticCriteo};
use dlrm_serve::{ServeConfig, ServingReport};
use dlrm_trainer::{
    plan, run_training, CompressionSetting, ExecutorSetting, ObsSetting, OverlapSetting,
    TrainerConfig, TrainingReport,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ranks of every workload.
pub const WORLD: usize = 4;
/// Global training batch (128 samples per rank).
pub const GLOBAL_BATCH: usize = 512;
/// Iterations of one timed training call.
pub const TRAIN_ITERATIONS: usize = 24;
/// Requests of one timed serving call (the `serve1` full-scale size).
pub const SERVE_REQUESTS: usize = 32_768;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Fewest timed calls a run makes, whatever `--seconds` says.
const MIN_CALLS: usize = 2;
/// Measured compute is charged at this scale in the modeled clock, as the
/// `adapt1` experiment does, so modeled time is a function of bytes and
/// schedule.
const COMPUTE_TIME_SCALE: f64 = 1.0 / 50_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainAdaptive,
    TrainRaw,
    ServeZipf,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "train-adaptive" => Some(Workload::TrainAdaptive),
            "train-raw" => Some(Workload::TrainRaw),
            "serve-zipf" => Some(Workload::ServeZipf),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainAdaptive => "train-adaptive",
            Workload::TrainRaw => "train-raw",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    /// Track id of the workload in the Chrome trace.
    pub fn id(self) -> usize {
        self as usize
    }

    pub fn is_training(self) -> bool {
        !matches!(self, Workload::ServeZipf)
    }

    /// Samples per iteration (training) or requests per window (serving).
    pub fn unit_items(self) -> usize {
        if self.is_training() {
            GLOBAL_BATCH
        } else {
            serve_workload(Scale::Full).1.window
        }
    }
}

/// Seeds of every input the run generates, all derived from `--seed`. The
/// served model is part of the serving workload (the `serve1` snapshot
/// seed), so serving varies only its request stream.
pub struct Seeds {
    pub trainer: u64,
    pub plan: u64,
    pub requests: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds {
            trainer: next(),
            plan: next(),
            requests: next(),
        }
    }
}

/// One build of the offline plan.
pub struct PlanBuild {
    pub plan: CompressionPlan,
    pub fingerprint: u64,
    pub seconds: f64,
}

/// Build the paper's dual-level plan (table-wise EB 0.05/0.03/0.01, step
/// decay over the first half of a timed call) from the workload seed.
pub fn build_plan(dataset: &DatasetConfig, seed: u64) -> PlanBuild {
    let t = Instant::now();
    let plan = plan::paper_default_plan(
        dataset,
        TRAIN_ITERATIONS / 2,
        TRAIN_ITERATIONS - TRAIN_ITERATIONS / 2,
        PAPER_BANDWIDTH,
        seed,
    )
    .expect("offline analysis succeeds on synthetic traffic");
    let seconds = t.elapsed().as_secs_f64();
    PlanBuild {
        fingerprint: plan_fingerprint(&plan),
        plan,
        seconds,
    }
}

/// FNV-1a over each table's codec and base error bound.
pub fn plan_fingerprint(plan: &CompressionPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in &plan.tables {
        eat(&(t.table_id as u64).to_le_bytes());
        eat(t.compressor.label().as_bytes());
        eat(&t.base_error_bound.to_bits().to_le_bytes());
    }
    h
}

pub fn trainer_config(
    compression: CompressionSetting,
    iterations: usize,
    seed: u64,
) -> TrainerConfig {
    TrainerConfig {
        world: WORLD,
        global_batch: GLOBAL_BATCH,
        iterations,
        learning_rate: 0.05,
        compression,
        overlap: OverlapSetting::DoubleBuffered,
        dense_compression: Default::default(),
        grad_push: Default::default(),
        network: NetworkConfig::paper_figure11(),
        topology: Default::default(),
        adaptive: Default::default(),
        bandwidth_trace: None,
        fault: None,
        codec_profile: None,
        executor: ExecutorSetting::Sequential,
        realtime_wire: false,
        obs: ObsSetting::Off,
        seed,
        device_throughput: Some(PAPER_HYBRID_THROUGHPUT),
        compute_time_scale: COMPUTE_TIME_SCALE,
    }
}

/// The `serve1` full-scale workload at world 4 under the sequential
/// executor, serving `requests` requests generated from the run's seeds.
pub fn serve_config(seeds: &Seeds, requests: usize) -> (DatasetConfig, ServeConfig) {
    let (dataset, mut cfg) = serve_workload(Scale::Full);
    cfg.world = WORLD;
    cfg.executor = ExecutorSetting::Sequential;
    cfg.realtime_wire = false;
    cfg.requests = requests;
    cfg.seed = seeds.requests;
    (dataset, cfg)
}

/// Wire bytes of one training report: forward and backward all-to-all plus
/// the MLP all-reduce, from the ledger.
pub fn train_wire_bytes(r: &TrainingReport) -> u64 {
    r.breakdown.bytes(phase::FWD_A2A)
        + r.breakdown.bytes(phase::BWD_A2A)
        + r.breakdown.bytes(phase::ALLREDUCE)
}

/// Mean binary cross-entropy of the served logits against the labels the
/// request stream carries.
fn served_loss(dataset: &DatasetConfig, cfg: &ServeConfig, r: &ServingReport) -> f64 {
    let mut gen = SyntheticCriteo::new(dataset.clone(), cfg.seed);
    let mut labels = Vec::with_capacity(cfg.requests);
    while labels.len() < cfg.requests {
        let len = cfg.window.min(cfg.requests - labels.len());
        labels.extend_from_slice(&gen.next_batch(len).labels);
    }
    f64::from(dlrm_tensor::ops::bce_mean(&r.responses, &labels))
}

/// What the end-to-end part of a run measured.
pub struct E2e {
    pub workload: Workload,
    pub dataset: DatasetConfig,
    pub setup_s: Vec<f64>,
    /// Wall seconds of the one-iteration / one-window set-up calls.
    pub fixed_s: Vec<f64>,
    /// Plans built during set-up (train-adaptive only).
    pub plans: Vec<PlanBuild>,
    /// Items (samples or requests) per wall second, one per timed call.
    pub throughput: Vec<f64>,
    pub wire_bytes_per_item: Vec<f64>,
    pub modeled_ms: Vec<f64>,
    pub loss: Vec<f64>,
    /// Plan fingerprint and overall forward ratio of each timed training
    /// call: a plan that differs between set-ups of one seed shows here.
    pub call_plans: Vec<(u64, f64)>,
    /// Wall seconds of each timed call.
    pub call_seconds: Vec<f64>,
    /// The last timed call's report.
    pub train: Option<TrainingReport>,
    pub serve: Option<(ServeConfig, ServingReport)>,
}

impl E2e {
    /// Median wall milliseconds per iteration (training) or window
    /// (serving), fixed cost excluded.
    pub fn wall_ms_per_unit(&self) -> f64 {
        1e3 * self.workload.unit_items() as f64 / median(&self.throughput)
    }

    /// Print the repeat statistics and record the end-to-end metrics.
    pub fn publish(&self, report: &mut Report) {
        let unit = if self.workload.is_training() {
            "samples"
        } else {
            "requests"
        };
        println!("setup_s: {}", summarize(&self.setup_s, false));
        println!("fixed per-call cost s: {}", summarize(&self.fixed_s, false));
        println!("throughput {unit}/s: {}", summarize(&self.throughput, true));
        println!(
            "wall ms per {}: {:.3}",
            if self.workload.is_training() {
                "iteration"
            } else {
                "window"
            },
            self.wall_ms_per_unit()
        );
        println!(
            "wire B per {}: {}",
            &unit[..unit.len() - 1],
            summarize(&self.wire_bytes_per_item, false)
        );
        println!("modeled ms: {}", summarize(&self.modeled_ms, false));
        println!("timed call seconds: {:?}", self.call_seconds);
        for (fp, ratio) in &self.call_plans {
            println!("timed call: plan {fp:016x} overall ratio {ratio:.4}");
        }
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric("throughput_per_s", median(&self.throughput), "1/s");
        report.metric(
            "wire_bytes_per_item",
            median(&self.wire_bytes_per_item),
            "B",
        );
        report.metric("modeled_ms", median(&self.modeled_ms), "ms");
        report.metric("loss_bce", median(&self.loss), "BCE");
    }
}

/// Set up and run the workload's timed calls. Under `trace_run` a single
/// timed call is made: the traced run needs its wall time per iteration and
/// its report, not its repeat statistics.
pub fn run(
    workload: Workload,
    seeds: &Seeds,
    budget: Duration,
    trace_run: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> E2e {
    if workload.is_training() {
        run_training_workload(workload, seeds, budget, trace_run, tracer, report)
    } else {
        run_serving_workload(seeds, budget, trace_run, tracer, report)
    }
}

/// Time `f` and record it as one traced call named `name`.
pub fn traced_call<T>(
    tracer: &mut Tracer,
    index: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    tracer.begin(index);
    tracer.mark("bench.prep");
    let t = Instant::now();
    let out = f();
    let seconds = t.elapsed().as_secs_f64();
    tracer.mark(name);
    tracer.end();
    (out, seconds)
}

/// Whether another timed call fits: at least `MIN_CALLS`, then only while
/// one more call of the mean length ends within the budget.
fn another_call(calls: usize, loop_start: Instant, budget: Duration, trace_run: bool) -> bool {
    if trace_run {
        return calls == 0;
    }
    if calls < MIN_CALLS {
        return true;
    }
    let spent = loop_start.elapsed();
    spent + spent / calls as u32 <= budget
}

fn run_training_workload(
    workload: Workload,
    seeds: &Seeds,
    budget: Duration,
    trace_run: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> E2e {
    let adaptive = workload == Workload::TrainAdaptive;
    let mut setup_s = Vec::new();
    let mut fixed_s = Vec::new();
    let mut plans: Vec<PlanBuild> = Vec::new();
    // Loss bits per (plan fingerprint, iterations): one seed and one plan
    // must give one loss.
    let mut losses: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    let mut check_loss = |report: &mut Report, fp: u64, iters: usize, r: &TrainingReport| {
        let loss = r.final_metrics.loss;
        report.check(loss.is_finite(), "training loss is finite");
        let bits = *losses.entry((fp, iters)).or_insert(loss.to_bits());
        report.check(
            bits == loss.to_bits(),
            "training loss is bit-identical across runs of one seed and plan",
        );
    };
    let compression = |plans: &[PlanBuild], i: usize| match plans.get(i % plans.len().max(1)) {
        Some(p) if adaptive => (CompressionSetting::Adaptive(p.plan.clone()), p.fingerprint),
        _ => (CompressionSetting::None, 0),
    };

    let mut dataset = presets::criteo_kaggle_like();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        dataset = presets::criteo_kaggle_like();
        if adaptive {
            let (plan, _) = traced_call(tracer, i as u64, "adaptive.build_plan", || {
                build_plan(&dataset, seeds.plan)
            });
            plans.push(plan);
        }
        let (setting, fp) = compression(&plans, i);
        let cfg = trainer_config(setting, 1, seeds.trainer);
        let (r, seconds) = traced_call(tracer, i as u64, "trainer.setup_call", || {
            run_training(&dataset, &cfg)
        });
        fixed_s.push(seconds);
        setup_s.push(t0.elapsed().as_secs_f64());
        check_loss(report, fp, 1, &r);
    }
    let fixed = median(&fixed_s);

    let mut out = E2e {
        workload,
        dataset,
        setup_s,
        fixed_s,
        plans: Vec::new(),
        throughput: Vec::new(),
        wire_bytes_per_item: Vec::new(),
        modeled_ms: Vec::new(),
        loss: Vec::new(),
        call_plans: Vec::new(),
        call_seconds: Vec::new(),
        train: None,
        serve: None,
    };
    let loop_start = Instant::now();
    let mut calls = 0;
    while another_call(calls, loop_start, budget, trace_run) {
        let (setting, fp) = compression(&plans, calls);
        let cfg = trainer_config(setting, TRAIN_ITERATIONS, seeds.trainer);
        let (r, seconds) = traced_call(tracer, calls as u64, "trainer.run_training", || {
            run_training(&out.dataset, &cfg)
        });
        calls += 1;
        out.call_seconds.push(seconds);
        check_loss(report, fp, TRAIN_ITERATIONS, &r);
        let steady = seconds - fixed;
        report.check(
            steady > 0.0,
            "a timed call outlasts the one-iteration set-up call",
        );
        let samples = (TRAIN_ITERATIONS * GLOBAL_BATCH) as f64;
        out.throughput
            .push((TRAIN_ITERATIONS - 1) as f64 * GLOBAL_BATCH as f64 / steady);
        out.wire_bytes_per_item
            .push(train_wire_bytes(&r) as f64 / samples);
        out.modeled_ms
            .push(1e3 * r.total_seconds / TRAIN_ITERATIONS as f64);
        out.loss.push(r.final_metrics.loss);
        out.call_plans.push((fp, r.overall_ratio));
        out.train = Some(r);
    }
    out.plans = plans;
    out
}

fn run_serving_workload(
    seeds: &Seeds,
    budget: Duration,
    trace_run: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> E2e {
    let mut setup_s = Vec::new();
    let mut fixed_s = Vec::new();
    let mut fingerprints: BTreeMap<usize, u64> = BTreeMap::new();
    let mut check_serving = |report: &mut Report, cfg: &ServeConfig, r: &ServingReport| {
        report.check(
            r.responses.len() == cfg.requests && r.responses.iter().all(|v| v.is_finite()),
            "every request gets a finite response",
        );
        let fp = *fingerprints
            .entry(cfg.requests)
            .or_insert_with(|| r.fingerprint());
        report.check(
            fp == r.fingerprint(),
            "serving fingerprint is identical across runs of one seed",
        );
    };
    let window = Workload::ServeZipf.unit_items();
    let mut dataset = presets::criteo_kaggle_like();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (ds, cfg) = serve_config(seeds, window);
        let (r, seconds) = traced_call(tracer, i as u64, "serve.setup_call", || {
            dlrm_serve::run_serving(&ds, &cfg)
        });
        fixed_s.push(seconds);
        setup_s.push(t0.elapsed().as_secs_f64());
        check_serving(report, &cfg, &r);
        dataset = ds;
    }
    let fixed = median(&fixed_s);

    let mut out = E2e {
        workload: Workload::ServeZipf,
        dataset,
        setup_s,
        fixed_s,
        plans: Vec::new(),
        throughput: Vec::new(),
        wire_bytes_per_item: Vec::new(),
        modeled_ms: Vec::new(),
        loss: Vec::new(),
        call_plans: Vec::new(),
        call_seconds: Vec::new(),
        train: None,
        serve: None,
    };
    let loop_start = Instant::now();
    let mut calls = 0;
    while another_call(calls, loop_start, budget, trace_run) {
        let (ds, cfg) = serve_config(seeds, SERVE_REQUESTS);
        let (r, seconds) = traced_call(tracer, calls as u64, "serve.run_serving", || {
            dlrm_serve::run_serving(&ds, &cfg)
        });
        calls += 1;
        out.call_seconds.push(seconds);
        check_serving(report, &cfg, &r);
        let steady = seconds - fixed;
        report.check(
            steady > 0.0,
            "a timed call outlasts the one-window set-up call",
        );
        out.throughput
            .push((SERVE_REQUESTS - window) as f64 / steady);
        out.wire_bytes_per_item
            .push((r.fetch_wire_bytes + r.request_wire_bytes) as f64 / SERVE_REQUESTS as f64);
        out.modeled_ms.push(r.p99_ms);
        let loss = served_loss(&ds, &cfg, &r);
        report.check(loss.is_finite(), "served loss is finite");
        out.loss.push(loss);
        out.serve = Some((cfg, r));
    }
    out
}
