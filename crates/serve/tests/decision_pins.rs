//! Pinned runtime-adaptation decisions of the serving controller.
//!
//! `serve_determinism` checks that adaptive serving replays identically;
//! this suite records *what* the controller decides on the small test
//! configuration under rotating hot rows: every window boundary's switch
//! set `(iteration, table, from, to)` and the error-bound scale after each
//! boundary, with the miss-rate error-bound control off and on. A change
//! to how ranks measure, frame, exchange or assemble their window
//! observations must reproduce these exactly, and the exchange must stay
//! allocation-free in the steady state.

use dlrm_data::{presets, TrafficDrift};
use dlrm_serve::{run_serving, ServeAdaptive, ServeConfig, ServingReport};

type Switch = (usize, usize, &'static str, &'static str);

/// The switch set and the error-bound scale sequence of a run.
fn decisions(report: &ServingReport) -> (Vec<Switch>, Vec<f32>) {
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

fn adaptive(eb_control: bool) -> ServingReport {
    let dataset = presets::tiny().with_drift(TrafficDrift::hot_rotation(4, 7));
    let mut cfg = ServeConfig::small_test();
    let mut adaptive = ServeAdaptive::new(4, 0.02);
    adaptive.eb_control = eb_control;
    cfg.adaptive = Some(adaptive);
    run_serving(&dataset, &cfg)
}

#[test]
fn decisions_are_pinned() {
    // The first boundary moves every table off the hybrid; later windows
    // hold.
    let switched: Vec<Switch> = (0..4).map(|t| (4, t, "ours-hybrid", "fz-like")).collect();

    let report = adaptive(false);
    let (switches, scales) = decisions(&report);
    assert_eq!(switches, switched);
    assert_eq!(scales, [1.0; 8]);
    // Without error-bound control the loss signal is not fed at all.
    assert!(report.reselections.iter().all(|r| r.mean_loss == 0.0));

    let (switches, scales) = decisions(&adaptive(true));
    assert_eq!(switches, switched);
    assert_eq!(scales, [1.0, 0.5, 1.0, 1.0, 0.5, 1.0, 0.5, 1.0]);
}

#[test]
fn the_observation_exchange_keeps_the_zero_alloc_steady_state() {
    // Every window boundary all-gathers the shares over pool leases that
    // return to their pools, so the steady state allocates nothing with
    // the controller on either.
    for eb_control in [false, true] {
        assert_eq!(adaptive(eb_control).steady_state_allocated_bytes, 0);
    }
}
