//! Pinned responses of serving's shared request stream.
//!
//! Every frontend takes its request window from one
//! [`BatchStream`](dlrm_data::BatchStream) instead of running a private
//! generator. Who draws a window must never change what is served: this
//! suite pins the small test configuration's served BCE loss bits, a hash of
//! every response logit and the wire bytes, under both executors. The values
//! were recorded with one private generator per frontend, so they also show
//! that sharing the draw changes nothing.

use dlrm_data::{presets, SyntheticCriteo};
use dlrm_serve::{run_serving, ServeConfig};
use dlrm_trainer::ExecutorSetting;

/// Mean BCE-with-logits of the responses against the request labels,
/// redrawn from an independent generator.
fn served_loss(cfg: &ServeConfig, responses: &[f32]) -> f64 {
    let mut gen = SyntheticCriteo::new(presets::tiny(), cfg.seed);
    let labels: Vec<f32> = (0..cfg.num_windows())
        .flat_map(|w| {
            let len = cfg.window.min(cfg.requests - w * cfg.window);
            gen.next_batch(len).labels
        })
        .collect();
    assert_eq!(labels.len(), responses.len());
    let total: f64 = responses
        .iter()
        .zip(&labels)
        .map(|(&z, &y)| {
            let z = f64::from(z);
            z.max(0.0) - z * f64::from(y) + (-z.abs()).exp().ln_1p()
        })
        .sum();
    total / labels.len() as f64
}

/// FNV-1a over the response bits.
fn response_hash(responses: &[f32]) -> u64 {
    responses.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn small_test_responses_are_pinned() {
    for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
        let mut cfg = ServeConfig::small_test();
        cfg.executor = executor;
        let report = run_serving(&presets::tiny(), &cfg);
        assert_eq!(report.responses.len(), 2048, "{executor:?}");
        assert_eq!(
            served_loss(&cfg, &report.responses).to_bits(),
            0x3fe6_4dc4_4564_faa6,
            "{executor:?}"
        );
        assert_eq!(
            response_hash(&report.responses),
            0x6595_390e_edd6_1d11,
            "{executor:?}"
        );
        assert_eq!(
            (report.fetch_wire_bytes, report.request_wire_bytes),
            (24527, 11456),
            "{executor:?}"
        );
    }
}
