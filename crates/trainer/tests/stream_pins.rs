//! Pinned numerics of the shared batch stream.
//!
//! Every rank of a training segment takes its global batch from one
//! [`BatchStream`](dlrm_data::BatchStream) instead of running a private
//! generator. Who draws a batch must never change what is drawn: this suite
//! pins the per-iteration loss bits and the all-to-all bytes of a tiny
//! world-4 compressed run, plain and with a checkpointed rank loss (whose
//! replay segment starts from a fast-forwarded stream), under both
//! executors. The values were recorded with one private generator per
//! rank, so they also show that sharing the draw changes nothing.

use dlrm_ckpt::CheckpointSpec;
use dlrm_comm::phase as phases;
use dlrm_comm::FaultPlan;
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_grad::GradCodecKind;
use dlrm_trainer::{
    run_training, CompressionSetting, ExecutorSetting, FaultSetting, TrainerConfig, TrainingReport,
};

fn config(executor: ExecutorSetting) -> TrainerConfig {
    let mut cfg =
        TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid));
    cfg.executor = executor;
    cfg
}

/// Per-iteration loss bits and `(fwd, bwd)` all-to-all bytes of a run.
fn pins(report: &TrainingReport) -> (Vec<u64>, (u64, u64)) {
    let losses = report
        .accuracy_curve
        .iter()
        .map(|m| m.loss.to_bits())
        .collect();
    let bytes = (
        report.breakdown.bytes(phases::FWD_A2A),
        report.breakdown.bytes(phases::BWD_A2A),
    );
    (losses, bytes)
}

#[test]
fn world_four_run_is_pinned() {
    let losses = vec![
        0x3fe6215b50000000,
        0x3fe64d50c8000000,
        0x3fe63f4b40000000,
        0x3fe6553e68000000,
        0x3fe65d2fd0000000,
        0x3fe645a890000000,
        0x3fe660a438000000,
        0x3fe645c700000000,
    ];
    for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
        let report = run_training(&presets::tiny(), &config(executor));
        assert_eq!(
            pins(&report),
            (losses.clone(), (9208, 3696)),
            "{executor:?}"
        );
    }
}

#[test]
fn rank_loss_replay_is_pinned() {
    // 12 iterations, checkpoints every 4, rank 3 lost at 6: the survivors
    // replay from iteration 4 on a stream fast-forwarded past 4 batches.
    let losses = vec![
        0x3fe620fd78000000,
        0x3fe65d4f10000000,
        0x3fe62949b8000000,
        0x3fe65a3278000000,
        0x3fe6548c75555555,
        0x3fe64d7520000000,
        0x3fe645ed15555555,
        0x3fe651b3e0000000,
        0x3fe6544c2aaaaaab,
        0x3fe62366d5555555,
        0x3fe612836aaaaaab,
        0x3fe6331d8aaaaaab,
    ];
    for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
        let mut cfg = config(executor);
        cfg.iterations = 12;
        cfg.global_batch = 120;
        cfg.fault = Some(
            FaultSetting::new(FaultPlan::none().with_rank_loss(6, 3)).with_checkpoint(
                CheckpointSpec::new(
                    4,
                    GradCodecKind::ErrorBounded {
                        compressor: CompressorKind::OursHybrid,
                        error_bound: 1e-3,
                    },
                ),
            ),
        );
        let report = run_training(&presets::tiny(), &cfg);
        assert_eq!(report.final_world, 3, "{executor:?}");
        assert_eq!(
            pins(&report),
            (losses.clone(), (15044, 6460)),
            "{executor:?}"
        );
    }
}
