//! Trainer-wide test matrix of the overlapped chunked all-to-all: every
//! `CompressionSetting` variant × overlap on/off trains end to end,
//! numerics are bit-identical across overlap modes and repeated runs,
//! overlap strictly reduces modelled time when the wire can hide codec
//! work, the zero-allocation steady state survives the double-buffered
//! pipeline, and the warm-up allocation counters are reproducible.

use dlrm_comm::phase as phases;
use dlrm_comm::NetworkConfig;
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_trainer::{
    plan, run_training, CompressionSetting, ExecutorSetting, ObsSetting, OverlapSetting,
    TrainerConfig, TrainingReport,
};

/// Every compression mode the pipeline supports, Adaptive included.
fn all_settings(iterations: usize) -> Vec<CompressionSetting> {
    let dataset = presets::tiny();
    let adaptive = plan::paper_default_plan(
        &dataset,
        iterations / 2,
        iterations - iterations / 2,
        4e9,
        7,
    )
    .expect("offline analysis succeeds on synthetic traffic");
    vec![
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::Fp8,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        CompressionSetting::Adaptive(adaptive),
    ]
}

fn tiny_config(compression: CompressionSetting, iterations: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(compression);
    cfg.iterations = iterations;
    cfg
}

/// Bit-exact view of a report's numeric outcome (everything that must not
/// depend on timing or thread scheduling).
fn metric_bits(report: &TrainingReport) -> Vec<(u64, u64, u64, usize)> {
    report
        .accuracy_curve
        .iter()
        .map(|m| {
            (
                m.loss.to_bits(),
                m.accuracy.to_bits(),
                m.auc.to_bits(),
                m.samples,
            )
        })
        .collect()
}

#[test]
fn every_compression_setting_trains_with_and_without_overlap() {
    let dataset = presets::tiny();
    let iterations = 60;
    for setting in all_settings(iterations) {
        for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
            let cfg = tiny_config(setting.clone(), iterations).with_overlap(overlap);
            let report = run_training(&dataset, &cfg);
            let tag = format!("{} / {}", report.label, overlap.label());
            assert_eq!(report.accuracy_curve.len(), iterations, "{tag}");
            assert_eq!(report.overlap, overlap, "{tag}");
            // Loss improves first-vs-last quarter (single iterations are too
            // noisy to compare).
            assert!(
                report.final_metrics.loss < report.initial_metrics.loss,
                "{tag}: loss did not decrease: {} -> {}",
                report.initial_metrics.loss,
                report.final_metrics.loss
            );
            // Every reported number is finite.
            assert!(report.final_metrics.loss.is_finite(), "{tag}");
            assert!(report.final_metrics.accuracy.is_finite(), "{tag}");
            assert!(report.final_metrics.auc.is_finite(), "{tag}");
            assert!(report.total_seconds.is_finite(), "{tag}");
            assert!(report.overall_ratio.is_finite(), "{tag}");
            assert!(report.overlap_saved_seconds >= 0.0, "{tag}");
            for m in &report.accuracy_curve {
                assert!(m.loss.is_finite() && m.auc.is_finite(), "{tag}");
            }
            // Sequential runs must not record hidden time.
            if !overlap.is_enabled() {
                assert_eq!(report.overlap_saved_seconds, 0.0, "{tag}");
            }
        }
    }
}

#[test]
fn same_seed_and_config_reproduce_metrics_bit_for_bit() {
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let cfg = tiny_config(
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            24,
        )
        .with_overlap(overlap);
        let a = run_training(&dataset, &cfg);
        let b = run_training(&dataset, &cfg);
        assert_eq!(
            metric_bits(&a),
            metric_bits(&b),
            "{}: two identical runs diverged",
            overlap.label()
        );
        assert_eq!(a.overall_ratio.to_bits(), b.overall_ratio.to_bits());
        assert_eq!(a.per_table, b.per_table);
    }
}

#[test]
fn overlap_changes_timing_but_not_numerics() {
    let dataset = presets::tiny();
    for setting in all_settings(24) {
        let base = tiny_config(setting, 24);
        let seq = run_training(&dataset, &base.clone().with_overlap(OverlapSetting::Off));
        let ovl = run_training(&dataset, &base.with_overlap(OverlapSetting::DoubleBuffered));
        assert_eq!(
            metric_bits(&seq),
            metric_bits(&ovl),
            "{}: overlap changed the numerics",
            seq.label
        );
        assert_eq!(seq.overall_ratio.to_bits(), ovl.overall_ratio.to_bits());
        assert_eq!(seq.per_table, ovl.per_table);
        // Per-destination chunk bytes do not depend on the schedule, so the
        // codec and wire byte counters agree too.
        for phase in EXCHANGE_BYTE_PHASES {
            assert_eq!(
                seq.breakdown.bytes(phase),
                ovl.breakdown.bytes(phase),
                "{}: {phase} bytes depend on the schedule",
                seq.label
            );
        }
    }
}

/// Phases whose byte counters must not depend on the exchange schedule.
const EXCHANGE_BYTE_PHASES: [&str; 4] = [
    phases::FWD_COMPRESS,
    phases::FWD_A2A,
    phases::BWD_COMPRESS,
    phases::BWD_A2A,
];

/// Timing-dominant configuration: analytic codec throughput and a slow link,
/// so the modelled comm/codec time dwarfs this machine's (scaled-down)
/// measured compute and the overlap saving is deterministic.
fn timing_config(compression: CompressionSetting) -> TrainerConfig {
    TrainerConfig {
        world: 4,
        global_batch: 256,
        iterations: 6,
        learning_rate: 0.05,
        compression,
        overlap: OverlapSetting::Off,
        dense_compression: Default::default(),
        grad_push: Default::default(),
        network: NetworkConfig::alltoall_bound(5e7),
        topology: Default::default(),
        adaptive: Default::default(),
        bandwidth_trace: None,
        fault: None,
        codec_profile: None,
        executor: ExecutorSetting::Threaded,
        realtime_wire: false,
        obs: ObsSetting::Off,
        seed: 20_240_614,
        device_throughput: Some((0.5e9, 2e9)),
        compute_time_scale: 1.0 / 5000.0,
    }
}

#[test]
fn overlap_strictly_reduces_modelled_time_for_multiple_codecs() {
    let dataset = presets::tiny();
    for kind in [CompressorKind::OursHybrid, CompressorKind::FzLike] {
        let base = timing_config(CompressionSetting::fixed(0.02, kind));
        let seq = run_training(&dataset, &base.clone());
        let ovl = run_training(&dataset, &base.with_overlap(OverlapSetting::DoubleBuffered));
        assert!(
            ovl.overlap_saved_seconds > 0.0,
            "{}: nothing was hidden",
            ovl.label
        );
        assert!(
            ovl.total_seconds < seq.total_seconds,
            "{}: overlapped {} >= sequential {}",
            ovl.label,
            ovl.total_seconds,
            seq.total_seconds
        );
        // The hidden time is codec time: it reappears as the gap between the
        // un-overlapped cost (seconds + overlap_saved) and the charged cost.
        let a2a = ovl.breakdown.seconds(phases::FWD_A2A) + ovl.breakdown.seconds(phases::BWD_A2A);
        let saved = ovl.breakdown.overlap_saved(phases::FWD_A2A)
            + ovl.breakdown.overlap_saved(phases::BWD_A2A);
        assert!(a2a > 0.0);
        assert!((saved - ovl.overlap_saved_seconds).abs() < 1e-12);
    }
}

#[test]
fn zero_allocation_steady_state_survives_the_overlapped_pipeline() {
    // Acceptance: steady_state_allocated_bytes == 0 with overlap on, for
    // raw / fp16 / hybrid / fz modes.
    let dataset = presets::tiny();
    for setting in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        CompressionSetting::fixed(0.02, CompressorKind::FzLike),
    ] {
        let label = setting.label();
        let mut cfg = tiny_config(setting, 12).with_overlap(OverlapSetting::DoubleBuffered);
        cfg.global_batch = 64;
        let report = run_training(&dataset, &cfg);
        assert_eq!(
            report.steady_state_allocated_bytes, 0,
            "{label}: overlapped steady state allocated {} bytes",
            report.steady_state_allocated_bytes
        );
        assert!(
            report.buffer_reused_bytes > 0,
            "{label}: reuse counters never moved"
        );
    }
}

#[test]
fn warmup_allocation_counters_are_reproducible_and_never_double_counted() {
    // Regression for the counter audit: a single-rank run is fully
    // deterministic (no cross-thread pool races), so every per-phase
    // allocated/reused byte counter must pin to the same value on repeated
    // runs — a double-counted warm-up allocation (e.g. a retried chunk
    // counted both by the pool and as lease growth) would show up here as a
    // drifting or inflated counter.
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let mut cfg = tiny_config(
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            8,
        )
        .with_overlap(overlap);
        cfg.world = 1;
        cfg.global_batch = 32;
        let a = run_training(&dataset, &cfg);
        let b = run_training(&dataset, &cfg);
        for &phase in phases::ALL {
            assert_eq!(
                a.breakdown.allocated_bytes(phase),
                b.breakdown.allocated_bytes(phase),
                "{}: allocated counter for {phase:?} not reproducible",
                overlap.label()
            );
            assert_eq!(
                a.breakdown.reused_bytes(phase),
                b.breakdown.reused_bytes(phase),
                "{}: reused counter for {phase:?} not reproducible",
                overlap.label()
            );
        }
        // Warm-up allocates (the pool starts empty), the steady state never.
        assert!(
            a.breakdown.total_allocated_bytes() > 0,
            "{}: warm-up counters never moved",
            overlap.label()
        );
        assert_eq!(a.steady_state_allocated_bytes, 0, "{}", overlap.label());
        assert_eq!(
            a.breakdown.total_allocated_bytes(),
            b.breakdown.total_allocated_bytes()
        );
    }
}
