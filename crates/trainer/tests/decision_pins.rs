//! Pinned runtime-adaptation decisions of the training controller.
//!
//! The other adaptive suites check that the closed loop is deterministic
//! and moves in the right direction; this one records *what* it decides.
//! For the drifting-fabric runtime configuration (fast first half, slow
//! second half, analytic codec throughputs), flat and 2×2, with and
//! without plateau error-bound control, it pins every window boundary's
//! switch set `(iteration, table, from, to)` and the error-bound scale
//! after each boundary. A change to how ranks measure, frame, exchange or
//! assemble their window observations must reproduce these exactly.

use dlrm_adaptive::{CodecProfile, PlateauEbControl};
use dlrm_comm::{BandwidthTrace, NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_trainer::{
    run_training, AdaptiveSetting, CompressionSetting, TopologySetting, TrainerConfig,
    TrainingReport,
};

type Switch = (usize, usize, &'static str, &'static str);

/// The switch set and the error-bound scale sequence of a run.
fn decisions(report: &TrainingReport) -> (Vec<Switch>, Vec<f32>) {
    let switches = report
        .reselections
        .iter()
        .flat_map(|r| {
            r.switches
                .iter()
                .map(move |s| (r.iteration, s.table_id, s.from.label(), s.to.label()))
        })
        .collect();
    let scales = report.reselections.iter().map(|r| r.eb_scale).collect();
    (switches, scales)
}

/// The adaptive matrix's runtime configuration: 24 iterations, a window of
/// 3, a 60 GB/s → 0.5 GB/s step at iteration 12, optionally on a 2×2
/// hierarchy and with plateau error-bound control.
fn runtime(hierarchical: bool, eb_control: bool) -> TrainingReport {
    let iterations = 24;
    let dataset = dlrm_data::presets::tiny();
    let fast = NetworkConfig::alltoall_bound(60e9);
    let slow = NetworkConfig::alltoall_bound(5e8);
    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(0.05, CompressorKind::Fp16));
    cfg.iterations = iterations;
    cfg.global_batch = 64;
    cfg.network = fast;
    if hierarchical {
        cfg = cfg.with_topology(TopologySetting::Hierarchical(Topology::new(
            2,
            2,
            NetworkConfig::nvlink_intra_node(),
            fast,
        )));
    }
    let cfg = cfg
        .with_adaptive(AdaptiveSetting::Runtime {
            window: 3,
            hysteresis: 0.1,
            eb_control: eb_control.then(PlateauEbControl::default),
        })
        .with_bandwidth_trace(BandwidthTrace::step(fast, slow, iterations / 2))
        .with_codec_profile(CodecProfile::paper_reference());
    run_training(&dataset, &cfg)
}

#[test]
fn decisions_are_pinned() {
    // The 60 GB/s -> 0.5 GB/s step lands at iteration 12; the first window
    // that sees it closes at 15 and moves every table off the fp16 cast.
    let switched = |table0: &'static str| -> Vec<Switch> {
        let mut s = vec![(15, 0, "fp16", table0)];
        s.extend((1..4).map(|t| (15, t, "fp16", "fz-like")));
        s
    };
    for hierarchical in [false, true] {
        let (switches, scales) = decisions(&runtime(hierarchical, false));
        assert_eq!(switches, switched("fz-like"), "hierarchical {hierarchical}");
        assert_eq!(scales, [1.0; 7], "hierarchical {hierarchical}");

        let (switches, scales) = decisions(&runtime(hierarchical, true));
        assert_eq!(
            switches,
            switched("ours-hybrid"),
            "hierarchical {hierarchical}"
        );
        assert_eq!(
            scales,
            [1.0, 0.5, 0.25, 0.25, 0.25, 0.25, 0.25],
            "hierarchical {hierarchical}"
        );
    }
}
