//! Trainer-wide test matrix of the node-aware hierarchical topology:
//! hierarchical runs are bit-identical to flat runs in everything numeric
//! (the topology changes the route and the modeled time, never the data),
//! `TopologySetting::Flat` reproduces the topology-less trainer's reports
//! bit for bit, tier accounting is recorded exactly when a hierarchy is
//! configured, and the zero-allocation steady state survives the
//! hierarchical route.

use dlrm_comm::phase as phases;
use dlrm_comm::{NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_trainer::{
    run_training, CompressionSetting, DenseCompression, OverlapSetting, TopologySetting,
    TrainerConfig, TrainingReport,
};

fn tiny_config(compression: CompressionSetting, iterations: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(compression);
    cfg.iterations = iterations;
    cfg
}

fn hier(nodes: usize, rpn: usize) -> TopologySetting {
    TopologySetting::Hierarchical(Topology::new(
        nodes,
        rpn,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig::paper_figure11(),
    ))
}

/// Bit-exact view of a report's numeric outcome (everything that must not
/// depend on the route the bytes took).
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
fn hierarchical_topology_never_changes_numerics() {
    // The tentpole headline: for every compression mode and every cluster
    // shape — the degenerate nodes == 1 and ranks_per_node == 1 included —
    // the hierarchical route delivers bit-identical training to flat.
    let dataset = presets::tiny();
    let iterations = 24;
    for setting in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
    ] {
        let flat = run_training(&dataset, &tiny_config(setting.clone(), iterations));
        for topo in [hier(2, 2), hier(1, 4), hier(4, 1)] {
            let label = format!("{} / {}", flat.label, topo.label());
            let report = run_training(
                &dataset,
                &tiny_config(setting.clone(), iterations).with_topology(topo),
            );
            assert_eq!(
                metric_bits(&flat),
                metric_bits(&report),
                "{label}: topology changed the numerics"
            );
            assert_eq!(
                flat.overall_ratio.to_bits(),
                report.overall_ratio.to_bits(),
                "{label}"
            );
            assert_eq!(flat.per_table, report.per_table, "{label}");
        }
    }
}

#[test]
fn hierarchical_topology_composes_with_overlap_and_dense_compression() {
    let dataset = presets::tiny();
    let base = tiny_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        24,
    )
    .with_dense_compression(DenseCompression::fp16_ef());
    let flat = run_training(&dataset, &base.clone());
    let mut exchange_bytes = Vec::new();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let report = run_training(
            &dataset,
            &base.clone().with_topology(hier(2, 2)).with_overlap(overlap),
        );
        assert_eq!(
            metric_bits(&flat),
            metric_bits(&report),
            "{}: hier + {} changed the numerics",
            report.label,
            overlap.label()
        );
        // Dense compression still reports a sane wire ratio and a bounded
        // residual through the tiered collective.
        assert!(
            (report.dense_ratio - 2.0).abs() < 0.1,
            "{}",
            report.dense_ratio
        );
        assert!(report.dense_residual_norm.is_finite());
        assert!(report.final_metrics.loss < report.initial_metrics.loss);
        if overlap.is_enabled() {
            assert!(report.overlap_saved_seconds >= 0.0);
        } else {
            assert_eq!(report.overlap_saved_seconds, 0.0);
        }
        exchange_bytes.push(
            [
                phases::FWD_COMPRESS,
                phases::FWD_A2A,
                phases::BWD_COMPRESS,
                phases::BWD_A2A,
            ]
            .map(|phase| report.breakdown.bytes(phase)),
        );
    }
    // Per-destination chunk bytes do not depend on the schedule: the codec
    // and wire byte counters agree with and without overlap.
    assert_eq!(
        exchange_bytes[0], exchange_bytes[1],
        "hier 2x2: exchange bytes depend on the schedule"
    );
}

#[test]
fn topology_setting_flat_reproduces_todays_reports_bit_for_bit() {
    // Satellite acceptance: an explicit `TopologySetting::Flat` takes
    // exactly the topology-less code path — numerics AND the deterministic
    // virtual-time charges (the measured codec/compute phases are the only
    // run-to-run variation, so the comparison pins the virtual phases).
    let dataset = presets::tiny();
    let mut untouched = tiny_config(CompressionSetting::Fp16, 16);
    untouched.topology = TopologySetting::default();
    let explicit = untouched.clone().with_topology(TopologySetting::Flat);
    let a = run_training(&dataset, &untouched);
    let b = run_training(&dataset, &explicit);
    assert_eq!(metric_bits(&a), metric_bits(&b));
    for phase in [phases::FWD_A2A, phases::BWD_A2A, phases::ALLREDUCE] {
        assert_eq!(
            a.breakdown.seconds(phase).to_bits(),
            b.breakdown.seconds(phase).to_bits(),
            "virtual charge of {phase:?} drifted"
        );
        assert_eq!(a.breakdown.bytes(phase), b.breakdown.bytes(phase));
    }
    assert_eq!(a.topology, "flat");
    // Flat runs record no tier accounting at all.
    for r in [&a, &b] {
        assert_eq!(r.intra_tier_bytes, 0);
        assert_eq!(r.inter_tier_bytes, 0);
        assert_eq!(r.intra_tier_seconds, 0.0);
        assert_eq!(r.inter_tier_seconds, 0.0);
    }
}

#[test]
fn hierarchical_runs_record_tier_accounting() {
    let dataset = presets::tiny();
    let report = run_training(
        &dataset,
        &tiny_config(CompressionSetting::Fp16, 8).with_topology(hier(2, 2)),
    );
    assert_eq!(report.topology, "2x2");
    // A 2×2 shape has traffic on both tiers, in bytes and in seconds.
    assert!(report.intra_tier_bytes > 0);
    assert!(report.inter_tier_bytes > 0);
    assert!(report.intra_tier_seconds > 0.0);
    assert!(report.inter_tier_seconds > 0.0);
    // Per rank, the sequential network-phase charges ARE the tier times, so
    // the merged totals sit in the same ballpark — but the two merges
    // maximise over ranks differently (per phase vs per tier), so no strict
    // inequality holds between them in general. Sanity-check magnitude only.
    let network = report.breakdown.seconds(phases::FWD_A2A)
        + report.breakdown.seconds(phases::BWD_A2A)
        + report.breakdown.seconds(phases::ALLREDUCE);
    let tiers = report.intra_tier_seconds + report.inter_tier_seconds;
    assert!(
        network > 0.0 && tiers > 0.0 && network <= tiers * report.world as f64,
        "tier accounting ({tiers}) wildly inconsistent with phase charges ({network})"
    );

    // Single-node hierarchy: everything is intra, nothing crosses a fabric.
    let single = run_training(
        &dataset,
        &tiny_config(CompressionSetting::Fp16, 8).with_topology(hier(1, 4)),
    );
    assert!(single.intra_tier_bytes > 0);
    assert_eq!(single.inter_tier_bytes, 0);
    assert_eq!(single.inter_tier_seconds, 0.0);
}

#[test]
fn zero_allocation_steady_state_survives_the_hierarchical_route() {
    let dataset = presets::tiny();
    for setting in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
    ] {
        let label = setting.label();
        let mut cfg = tiny_config(setting, 12).with_topology(hier(2, 2));
        cfg.global_batch = 64;
        let report = run_training(&dataset, &cfg);
        assert_eq!(
            report.steady_state_allocated_bytes, 0,
            "{label}: hierarchical steady state allocated {} bytes",
            report.steady_state_allocated_bytes
        );
        assert!(
            report.buffer_reused_bytes > 0,
            "{label}: reuse counters never moved"
        );
    }
}
