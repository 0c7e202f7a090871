//! # dlrm-adaptive
//!
//! The paper's **dual-level adaptive error-bound strategy** and the offline
//! analysis that configures it.
//!
//! * **Table-wise** ([`homo`], [`classify`]): each embedding table is scored
//!   with the *Homogenization Index* — how strongly its vectors collapse into
//!   repeated patterns once quantized — and assigned a Large, Medium or Small
//!   error bound accordingly (Algorithm 1 of the paper).
//! * **Iteration-wise** ([`decay`]): the error bound starts larger and decays
//!   over the initial training phase (step-wise by default), mirroring how a
//!   learning-rate schedule front-loads tolerance for noise.
//! * **Runtime control** ([`controller`]): the offline choices above are
//!   made once, before iteration 0; a [`controller::RuntimeController`]
//!   re-runs Equation-2 selection *during* training from live per-window
//!   observations (measured ratios, effective wire bandwidth, the loss
//!   curve), with hysteresis so selection doesn't thrash — the closed loop
//!   that lets the dual-level scheme survive drifting networks and shifting
//!   traffic.
//! * **Compressor selection** ([`speedup`]): Equation 2 of the paper converts
//!   a compressor's ratio and throughput plus the network bandwidth into an
//!   expected all-to-all speedup; the offline analysis uses it to pick the
//!   best encoder per table ([`analysis`], Algorithm 2). The same model has
//!   an allreduce-aware variant
//!   ([`speedup::estimate_allreduce_speedup`]) for the dense-gradient
//!   reduce-scatter + all-gather, so dense codec selection works like table
//!   selection does — and a **homomorphic** variant
//!   ([`speedup::estimate_homomorphic_allreduce_speedup`]) that drops one of
//!   the two decode terms and charges a compressed-domain combine term
//!   instead, for codecs whose encoded shards add without decoding.

pub mod analysis;
pub mod classify;
pub mod controller;
pub mod decay;
pub mod homo;
pub mod speedup;

pub use analysis::{analyze_tables, CompressionPlan, TablePlan};
pub use classify::{EbClass, EbConfig, Thresholds};
pub use controller::{
    advise_dense_allreduce, CodecProfile, ControllerConfig, DenseAdvice, DenseCandidate,
    ObservationShare, PlateauEbControl, Reselection, RuntimeController, ShareError,
    TableObservation, TableRevision, TierAdvice, WindowObservation,
};
pub use decay::{DecaySchedule, EbSchedule, TrainingPhases};
pub use homo::{homogenization_index, pattern_counts, HomoReport};
pub use speedup::{
    estimate_allreduce_speedup, estimate_allreduce_speedup_auto, estimate_hierarchical_speedup,
    estimate_homomorphic_allreduce_speedup, estimate_speedup, select_allreduce_compressor,
    select_compressor, select_compressor_per_tier, SpeedupInputs, TierSelection,
};
