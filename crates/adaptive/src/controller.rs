//! Closed-loop **runtime adaptive controller**: Equation-2 selection re-run
//! *during* training from live measurements.
//!
//! The offline analysis ([`crate::analysis`]) picks one codec and one
//! error-bound class per table before iteration 0 and never looks back; the
//! [`crate::decay`] schedule is a fixed function of the iteration counter.
//! Nothing reacts to what training actually observes — yet the conditions
//! Equation 2 depends on all move at runtime: the wire bandwidth drifts
//! (congestion, co-tenants, degraded links), traffic skew shifts the
//! per-table compression ratios, and the loss curve tells you how much
//! error the optimizer currently tolerates.
//!
//! A [`RuntimeController`] closes the loop. Once per *window* of iterations
//! it ingests a [`WindowObservation`] — measured per-table compression
//! ratios, fresh candidate-codec ratios probed on live payloads, the
//! effective wire bandwidth derived from the communication ledger, and the
//! window's mean loss — and emits a [`Reselection`]: per-table codec
//! revisions (Equation-2 selection at the *observed* bandwidth, guarded by
//! hysteresis so selection doesn't thrash), an error-bound scale driven by
//! the loss-plateau signal, and per-tier advice when a second (intra-node)
//! bandwidth is observed.
//!
//! The controller is **deterministic**: its decisions are pure functions of
//! the observations and its configuration (codec throughputs come from a
//! fixed [`CodecProfile`], optionally calibrated by the *measured*
//! throughput of the codecs currently running — which is itself
//! deterministic whenever codec time is charged analytically). Every rank of
//! an SPMD trainer can therefore run an identical controller on identical
//! gathered observations and arrive at identical revisions, which is what
//! keeps a mid-run codec switch consistent between the rank that compresses
//! a table and the ranks that decompress it.
//!
//! ```
//! use dlrm_adaptive::controller::{
//!     ControllerConfig, RuntimeController, TableObservation, WindowObservation,
//! };
//! use dlrm_compress::CompressorKind;
//!
//! // One table, two candidate codecs, starting on the cheap fp16 cast.
//! let config = ControllerConfig::new(4, 0.1)
//!     .with_candidates(vec![CompressorKind::Fp16, CompressorKind::OursHybrid]);
//! let mut ctl = RuntimeController::new(config, vec![CompressorKind::Fp16]);
//!
//! let observe = |bandwidth: f64, iteration: usize| WindowObservation {
//!     iteration,
//!     effective_bandwidth: bandwidth,
//!     intra_bandwidth: None,
//!     mean_loss: 0.5,
//!     measured_compress_throughput: 0.0, // no calibration
//!     tables: vec![TableObservation {
//!         table_id: 0,
//!         original_bytes: 1 << 20,
//!         compressed_bytes: 1 << 19,
//!         candidate_ratios: vec![2.0, 12.0], // fp16 vs hybrid on a fresh sample
//!     }],
//! };
//!
//! // On a 60 GB/s link the hybrid codec cannot pay for itself: no switch.
//! let fast = ctl.observe(&observe(60e9, 4));
//! assert!(fast.switches.is_empty());
//!
//! // The fabric drifts down to 2 GB/s: Equation 2 now favours the heavy
//! // codec by far more than the hysteresis margin — one reselection step.
//! let slow = ctl.observe(&observe(2e9, 8));
//! assert_eq!(slow.switches.len(), 1);
//! assert_eq!(slow.switches[0].to, CompressorKind::OursHybrid);
//! assert_eq!(ctl.current(0), CompressorKind::OursHybrid);
//! assert_eq!(ctl.log().len(), 2);
//! ```

use crate::speedup::{estimate_allreduce_speedup_auto, estimate_speedup_with, SpeedupInputs};
use dlrm_compress::CompressorKind;
use serde::{Deserialize, Serialize};

/// One dense-path all-reduce codec candidate for
/// [`advise_dense_allreduce`]: a label plus the Equation-2 inputs, with an
/// optional compressed-domain combine throughput for homomorphic codecs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseCandidate {
    /// Display label (matches `GradCodecKind::label()` in `dlrm-grad`).
    pub label: String,
    /// Compression ratio on a fresh sample of the live gradient.
    pub ratio: f64,
    /// Compression throughput, bytes/s.
    pub compress_throughput: f64,
    /// Decompression throughput, bytes/s.
    pub decompress_throughput: f64,
    /// Compressed-domain combine throughput (bytes of encoded payload
    /// folded per second) — `Some` only for homomorphic codecs, which are
    /// then ranked with the homomorphic Equation-2 variant.
    #[serde(default)]
    pub combine_throughput: Option<f64>,
}

/// The winning dense all-reduce candidate and its estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseAdvice {
    /// Label of the winning candidate.
    pub label: String,
    /// Its Equation-2 all-reduce estimate at the observed bandwidth.
    pub estimated_speedup: f64,
    /// Whether the winner rides the homomorphic combine path.
    pub homomorphic: bool,
}

/// Rank dense-gradient all-reduce candidates at an observed bandwidth:
/// homomorphic candidates (those advertising a combine throughput) are
/// scored with
/// [`estimate_homomorphic_allreduce_speedup`](crate::speedup::estimate_homomorphic_allreduce_speedup)
/// — no second decode term, a combine term instead — and the rest with the
/// classic [`estimate_allreduce_speedup`](crate::speedup::estimate_allreduce_speedup),
/// so a homomorphic codec wins exactly when its eliminated re-encode cycles
/// outweigh its ratio penalty. Pure and deterministic (safe to evaluate
/// independently on every rank of an SPMD trainer against identical
/// post-all-reduce data). Returns `None` on an empty candidate list.
pub fn advise_dense_allreduce(
    candidates: &[DenseCandidate],
    bandwidth: f64,
    world: usize,
) -> Option<DenseAdvice> {
    candidates
        .iter()
        .map(|c| {
            let s = estimate_allreduce_speedup_auto(
                SpeedupInputs {
                    ratio: c.ratio.max(1e-6),
                    compress_throughput: c.compress_throughput,
                    decompress_throughput: c.decompress_throughput,
                    bandwidth: bandwidth.max(1.0),
                },
                c.combine_throughput,
                world,
            );
            DenseAdvice {
                label: c.label.clone(),
                estimated_speedup: s,
                homomorphic: c.combine_throughput.is_some(),
            }
        })
        .max_by(|a, b| {
            a.estimated_speedup
                .partial_cmp(&b.estimated_speedup)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// Reference `(compress, decompress)` throughputs per codec, in bytes/s —
/// the deterministic stand-in for "measured codec throughput" that keeps
/// controller decisions reproducible and identical across ranks.
///
/// The defaults ([`CodecProfile::paper_reference`]) are GPU-scale figures
/// anchored on the paper's measurements (the hybrid's 40.5 / 205.4 GB/s);
/// the surrounding entries follow the relative ordering of Figure 11. A
/// [`WindowObservation`] may carry the live measured throughput of the
/// currently-running codecs, which the controller uses to *calibrate* the
/// whole profile (scale it so the profile agrees with what was measured).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodecProfile {
    entries: Vec<(CompressorKind, (f64, f64))>,
}

impl CodecProfile {
    /// GPU-scale reference throughputs anchored on the paper's hybrid
    /// measurements.
    pub fn paper_reference() -> Self {
        Self {
            entries: vec![
                (CompressorKind::OursHybrid, (40.5e9, 205.4e9)),
                (CompressorKind::OursVector, (45.0e9, 210.0e9)),
                (CompressorKind::OursHuffman, (38.0e9, 200.0e9)),
                (CompressorKind::SzLike, (60.0e9, 120.0e9)),
                (CompressorKind::FzLike, (136.0e9, 136.0e9)),
                (CompressorKind::Lz4Like, (20.0e9, 80.0e9)),
                (CompressorKind::DeflateLike, (10.0e9, 40.0e9)),
                (CompressorKind::Fp16, (300.0e9, 300.0e9)),
                (CompressorKind::Fp8, (300.0e9, 300.0e9)),
            ],
        }
    }

    /// Every codec at the same `(compress, decompress)` throughput — useful
    /// when selection should rank on ratio alone.
    pub fn uniform(compress: f64, decompress: f64) -> Self {
        assert!(
            compress > 0.0 && decompress > 0.0,
            "throughputs must be positive"
        );
        Self {
            entries: CompressorKind::all()
                .iter()
                .map(|&k| (k, (compress, decompress)))
                .collect(),
        }
    }

    /// Override one codec's throughputs (builder-style).
    pub fn with(mut self, kind: CompressorKind, compress: f64, decompress: f64) -> Self {
        assert!(
            compress > 0.0 && decompress > 0.0,
            "throughputs must be positive"
        );
        match self.entries.iter_mut().find(|(k, _)| *k == kind) {
            Some(e) => e.1 = (compress, decompress),
            None => self.entries.push((kind, (compress, decompress))),
        }
        self
    }

    /// `(compress, decompress)` throughput of `kind`; falls back to the
    /// hybrid's paper figures for a codec without an entry.
    pub fn throughput(&self, kind: CompressorKind) -> (f64, f64) {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or((40.5e9, 205.4e9))
    }
}

/// Loss-plateau-driven error-bound control: when a window's mean loss stops
/// improving, the controller assumes training entered a phase where
/// compression error has become the binding constraint and *tightens* the
/// error bound (scales every table's bound down); when the loss resumes
/// improving it relaxes the scale back toward 1. The scale multiplies the
/// decay schedule's bound, so iteration-wise decay and runtime control
/// compose.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlateauEbControl {
    /// Relative per-window loss improvement below which the window counts as
    /// plateaued, e.g. `0.02` = less than 2% improvement.
    pub plateau_threshold: f64,
    /// Multiplier applied to the error-bound scale on a plateau (and divided
    /// back out on recovery). Must be in `(0, 1)`.
    pub tighten_factor: f32,
    /// Floor of the error-bound scale.
    pub min_scale: f32,
}

impl Default for PlateauEbControl {
    fn default() -> Self {
        Self {
            plateau_threshold: 0.02,
            tighten_factor: 0.5,
            min_scale: 0.25,
        }
    }
}

/// Static configuration of a [`RuntimeController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Iterations per observation window (one [`WindowObservation`] is
    /// expected per window).
    pub window: usize,
    /// Relative Equation-2 advantage a challenger codec must have over the
    /// incumbent before a table switches (e.g. `0.1` = 10% better). This is
    /// what keeps selection from thrashing when two codecs sit near the
    /// crossover bandwidth.
    pub hysteresis: f64,
    /// Candidate codecs, probed on fresh payloads each window.
    /// [`TableObservation::candidate_ratios`] must follow this order.
    pub candidates: Vec<CompressorKind>,
    /// Reference codec throughputs used by the Equation-2 estimates.
    pub profile: CodecProfile,
    /// Rank codecs with the overlapped Equation-2 variant (codec time that
    /// hides behind the wire is not penalised).
    pub overlapped: bool,
    /// Loss-plateau-driven error-bound control; `None` leaves error bounds
    /// to the decay schedule alone.
    pub eb_control: Option<PlateauEbControl>,
}

impl ControllerConfig {
    /// A controller over the default candidate set (fp16 cast, FZ-like, the
    /// paper's hybrid) with the paper-reference throughput profile.
    pub fn new(window: usize, hysteresis: f64) -> Self {
        Self {
            window,
            hysteresis,
            candidates: vec![
                CompressorKind::Fp16,
                CompressorKind::FzLike,
                CompressorKind::OursHybrid,
            ],
            profile: CodecProfile::paper_reference(),
            overlapped: false,
            eb_control: None,
        }
    }

    /// Builder: replace the candidate set.
    pub fn with_candidates(mut self, candidates: Vec<CompressorKind>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Builder: replace the throughput profile.
    pub fn with_profile(mut self, profile: CodecProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Builder: rank with the overlapped Equation-2 estimate.
    pub fn with_overlap(mut self, overlapped: bool) -> Self {
        self.overlapped = overlapped;
        self
    }

    /// Builder: enable loss-plateau error-bound control.
    pub fn with_eb_control(mut self, eb_control: PlateauEbControl) -> Self {
        self.eb_control = Some(eb_control);
        self
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("controller window must be at least one iteration".into());
        }
        if !(self.hysteresis >= 0.0 && self.hysteresis.is_finite()) {
            return Err("hysteresis must be finite and non-negative".into());
        }
        if self.candidates.is_empty() {
            return Err("controller needs at least one candidate codec".into());
        }
        if let Some(ebc) = &self.eb_control {
            if !(ebc.plateau_threshold >= 0.0 && ebc.plateau_threshold.is_finite()) {
                return Err("plateau threshold must be finite and non-negative".into());
            }
            if !(ebc.tighten_factor > 0.0 && ebc.tighten_factor < 1.0) {
                return Err("tighten factor must be in (0, 1)".into());
            }
            if !(ebc.min_scale > 0.0 && ebc.min_scale <= 1.0) {
                return Err("min scale must be in (0, 1]".into());
            }
        }
        Ok(())
    }
}

/// One table's share of a window observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableObservation {
    /// Table id.
    pub table_id: usize,
    /// Uncompressed payload bytes this table moved during the window.
    pub original_bytes: u64,
    /// Compressed payload bytes this table moved during the window.
    pub compressed_bytes: u64,
    /// Compression ratio of each configured candidate codec on a fresh
    /// sample of this table's live payload, in
    /// [`ControllerConfig::candidates`] order.
    pub candidate_ratios: Vec<f64>,
}

impl TableObservation {
    /// Measured compression ratio of the currently-running codec over the
    /// window (1.0 when nothing moved).
    pub fn measured_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Everything the controller sees about one window of training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowObservation {
    /// Iteration at which the window ended (the reselection point).
    pub iteration: usize,
    /// Effective wire bandwidth (bytes/s) observed over the window — on a
    /// hierarchical cluster, the bottleneck (inter-node) tier.
    pub effective_bandwidth: f64,
    /// Effective intra-node bandwidth, when a second tier was observed;
    /// enables per-tier advice.
    pub intra_bandwidth: Option<f64>,
    /// Mean training loss over the window (the loss-plateau signal).
    pub mean_loss: f64,
    /// Measured aggregate compression throughput (bytes/s) of the codecs
    /// that actually ran during the window; `<= 0` disables profile
    /// calibration.
    pub measured_compress_throughput: f64,
    /// Per-table observations, sorted by table id.
    pub tables: Vec<TableObservation>,
}

impl WindowObservation {
    /// Assemble the observation of the window ending at `iteration` from
    /// every rank's share, summed in the order given (rank order), so ranks
    /// folding the same gathered shares agree bit for bit. Bandwidths are
    /// bytes over charged seconds; with no wire seconds the effective
    /// bandwidth is `fallback_bandwidth`, with no intra seconds there is no
    /// intra tier.
    pub fn from_shares(
        iteration: usize,
        shares: impl IntoIterator<Item = ObservationShare>,
        fallback_bandwidth: f64,
    ) -> Self {
        let mut sum = ObservationShare::default();
        for share in shares {
            sum.loss_sum += share.loss_sum;
            sum.loss_count = sum.loss_count.saturating_add(share.loss_count);
            sum.wire_bytes += share.wire_bytes;
            sum.wire_seconds += share.wire_seconds;
            sum.intra_bytes += share.intra_bytes;
            sum.intra_seconds += share.intra_seconds;
            sum.codec_bytes += share.codec_bytes;
            sum.codec_seconds += share.codec_seconds;
            sum.tables.extend(share.tables);
        }
        sum.tables.sort_by_key(|t| t.table_id);
        let quotient = |num: f64, den: f64| (den > 0.0).then(|| num / den);
        Self {
            iteration,
            effective_bandwidth: quotient(sum.wire_bytes, sum.wire_seconds)
                .unwrap_or(fallback_bandwidth),
            intra_bandwidth: quotient(sum.intra_bytes, sum.intra_seconds),
            mean_loss: quotient(sum.loss_sum, sum.loss_count as f64).unwrap_or(0.0),
            measured_compress_throughput: quotient(sum.codec_bytes, sum.codec_seconds)
                .unwrap_or(0.0),
            tables: sum.tables,
        }
    }
}

/// Words before the table records, and words of a record before its ratios.
const SHARE_HEADER_WORDS: usize = 9;
const TABLE_HEADER_WORDS: usize = 3;

/// One rank's raw measurements over one controller window, all-gathered so
/// every rank can assemble the same [`WindowObservation`]
/// ([`WindowObservation::from_shares`]).
///
/// Encoded as little-endian 8-byte words, `f64`s as their bits, in field
/// order: the eight scalars, the table count, then per table its id,
/// original and compressed bytes and one ratio per candidate. The candidate
/// count is not on the wire; every rank knows it from
/// [`ControllerConfig::candidates`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationShare {
    /// Sum of the losses seen over the window.
    pub loss_sum: f64,
    /// Number of losses in `loss_sum`.
    pub loss_count: u64,
    /// Bottleneck-tier wire bytes.
    pub wire_bytes: f64,
    /// Seconds charged for `wire_bytes`.
    pub wire_seconds: f64,
    /// Intra-node tier bytes (zero on a flat cluster).
    pub intra_bytes: f64,
    /// Seconds charged for `intra_bytes`.
    pub intra_seconds: f64,
    /// Bytes the running codecs compressed.
    pub codec_bytes: f64,
    /// Seconds charged for compressing `codec_bytes`.
    pub codec_seconds: f64,
    /// The tables this rank owns.
    pub tables: Vec<TableObservation>,
}

/// Why [`ObservationShare::decode`] rejected a share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareError {
    /// Fewer bytes than the fixed header.
    Truncated {
        /// Header bytes.
        needed: usize,
        /// Bytes present.
        got: usize,
    },
    /// The table count disagrees with the `body` bytes after the header.
    TableCount {
        /// Declared table count.
        declared: u64,
        /// Bytes after the header.
        body: usize,
    },
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "share of {got} bytes, header needs {needed}")
            }
            Self::TableCount { declared, body } => {
                write!(f, "share declares {declared} tables in {body} body bytes")
            }
        }
    }
}

impl std::error::Error for ShareError {}

impl ObservationShare {
    /// Encoded size of a share of `tables` tables with `candidates` ratios
    /// each (every share of that shape encodes to exactly this).
    pub fn max_encoded_len(tables: usize, candidates: usize) -> usize {
        8 * (SHARE_HEADER_WORDS + tables * (TABLE_HEADER_WORDS + candidates))
    }

    /// Append the encoded share to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut put = |word: u64| out.extend_from_slice(&word.to_le_bytes());
        put(self.loss_sum.to_bits());
        put(self.loss_count);
        for v in [
            self.wire_bytes,
            self.wire_seconds,
            self.intra_bytes,
            self.intra_seconds,
            self.codec_bytes,
            self.codec_seconds,
        ] {
            put(v.to_bits());
        }
        put(self.tables.len() as u64);
        for t in &self.tables {
            put(t.table_id as u64);
            put(t.original_bytes);
            put(t.compressed_bytes);
            t.candidate_ratios.iter().for_each(|r| put(r.to_bits()));
        }
    }

    /// Decode a share whose tables carry `candidates` ratios each. The
    /// table count sizes nothing until the body is shown to hold exactly
    /// that many records, so a corrupt count is an `Err`, not an allocation.
    pub fn decode(bytes: &[u8], candidates: usize) -> Result<Self, ShareError> {
        let header = 8 * SHARE_HEADER_WORDS;
        let body = bytes
            .len()
            .checked_sub(header)
            .ok_or(ShareError::Truncated {
                needed: header,
                got: bytes.len(),
            })?;
        let record = 8 * (TABLE_HEADER_WORDS + candidates);
        let declared = u64::from_le_bytes(bytes[header - 8..header].try_into().unwrap_or_default());
        if body % record != 0 || (body / record) as u64 != declared {
            return Err(ShareError::TableCount { declared, body });
        }
        // Every word read below lies inside the length validated above.
        let mut words = bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap_or_default()));
        let mut next = || words.next().unwrap_or_default();
        Ok(Self {
            loss_sum: f64::from_bits(next()),
            loss_count: next(),
            wire_bytes: f64::from_bits(next()),
            wire_seconds: f64::from_bits(next()),
            intra_bytes: f64::from_bits(next()),
            intra_seconds: f64::from_bits(next()),
            codec_bytes: f64::from_bits(next()),
            codec_seconds: f64::from_bits(next()),
            tables: {
                next(); // the table count, validated above
                (0..body / record)
                    .map(|_| TableObservation {
                        table_id: next() as usize,
                        original_bytes: next(),
                        compressed_bytes: next(),
                        candidate_ratios: (0..candidates).map(|_| f64::from_bits(next())).collect(),
                    })
                    .collect()
            },
        })
    }
}

/// One table's codec switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableRevision {
    /// Table id.
    pub table_id: usize,
    /// Codec the table ran during the window.
    pub from: CompressorKind,
    /// Codec selected for the next window.
    pub to: CompressorKind,
    /// Equation-2 estimate of the selected codec at the observed bandwidth.
    pub estimated_speedup: f64,
    /// Equation-2 estimate of the incumbent at the observed bandwidth.
    pub incumbent_speedup: f64,
}

/// Per-tier selection advice on a hierarchical cluster: Equation 2 answered
/// once against each observed tier bandwidth, over byte-weighted aggregate
/// candidate ratios.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierAdvice {
    /// Best `(codec, estimated speedup)` for the intra-node tier; `None`
    /// when even the best candidate loses to the fast link (send raw).
    pub intra: Option<(CompressorKind, f64)>,
    /// Best `(codec, estimated speedup)` for the inter-node (fabric) tier.
    pub inter: (CompressorKind, f64),
}

/// One entry of the controller's reselection log: what it saw and what it
/// decided at one window boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reselection {
    /// Zero-based reselection counter.
    pub index: usize,
    /// Iteration at which the revisions take effect.
    pub iteration: usize,
    /// Effective wire bandwidth the decision used.
    pub effective_bandwidth: f64,
    /// Mean loss of the window.
    pub mean_loss: f64,
    /// Whether the loss-plateau signal fired (always `false` without
    /// [`ControllerConfig::eb_control`]).
    pub plateaued: bool,
    /// Error-bound scale in effect after this reselection (multiplies every
    /// table's scheduled bound; 1.0 without eb control).
    pub eb_scale: f32,
    /// Tables whose codec changed (empty when selection held steady).
    pub switches: Vec<TableRevision>,
    /// Per-tier advice, when an intra-node bandwidth was observed.
    pub tier_advice: Option<TierAdvice>,
    /// Whether the window ran in degraded mode (a fault-plan straggler was
    /// active), which drops the hysteresis guard — see
    /// [`RuntimeController::observe_degraded`].
    #[serde(default)]
    pub degraded: bool,
}

/// The closed-loop controller. See the [module docs](self) for the design
/// and a worked reselection step.
#[derive(Debug, Clone)]
pub struct RuntimeController {
    config: ControllerConfig,
    current: Vec<CompressorKind>,
    eb_scale: f32,
    prev_loss: Option<f64>,
    log: Vec<Reselection>,
}

impl RuntimeController {
    /// A controller over `initial` per-table selections (one entry per
    /// table, the codecs the run starts on).
    ///
    /// # Panics
    /// Panics if the configuration fails [`ControllerConfig::validate`] or
    /// `initial` is empty.
    pub fn new(config: ControllerConfig, initial: Vec<CompressorKind>) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid controller config: {e}");
        }
        assert!(!initial.is_empty(), "controller needs at least one table");
        Self {
            config,
            current: initial,
            eb_scale: 1.0,
            prev_loss: None,
            log: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The codec currently selected for `table`.
    pub fn current(&self, table: usize) -> CompressorKind {
        self.current[table]
    }

    /// Current per-table selections.
    pub fn selections(&self) -> &[CompressorKind] {
        &self.current
    }

    /// The error-bound scale currently in effect (1.0 without eb control).
    pub fn eb_scale(&self) -> f32 {
        self.eb_scale
    }

    /// The full reselection log, in observation order.
    pub fn log(&self) -> &[Reselection] {
        &self.log
    }

    /// Number of tables whose codec ever switched.
    pub fn total_switches(&self) -> usize {
        self.log.iter().map(|r| r.switches.len()).sum()
    }

    /// Equation-2 estimate for one `(ratio, kind)` pair at `bandwidth`,
    /// under this controller's profile, calibration and overlap mode.
    fn speedup(&self, ratio: f64, kind: CompressorKind, bandwidth: f64, calibration: f64) -> f64 {
        let (tc, td) = self.config.profile.throughput(kind);
        estimate_speedup_with(
            SpeedupInputs {
                ratio: ratio.max(1e-6),
                compress_throughput: tc * calibration,
                decompress_throughput: td * calibration,
                bandwidth: bandwidth.max(1.0),
            },
            self.config.overlapped,
        )
    }

    /// Profile calibration factor from the window's measured aggregate
    /// compression throughput: the ratio of what was measured to what the
    /// profile predicts for the codecs that actually ran (byte-weighted
    /// harmonic aggregate), clamped to one order of magnitude either way.
    fn calibration(&self, obs: &WindowObservation) -> f64 {
        if obs.measured_compress_throughput <= 0.0 {
            return 1.0;
        }
        let mut bytes = 0.0f64;
        let mut seconds = 0.0f64;
        for t in &obs.tables {
            let (tc, _) = self.config.profile.throughput(self.current[t.table_id]);
            bytes += t.original_bytes as f64;
            seconds += t.original_bytes as f64 / tc;
        }
        if seconds <= 0.0 {
            return 1.0;
        }
        let expected = bytes / seconds;
        (obs.measured_compress_throughput / expected).clamp(0.1, 10.0)
    }

    /// Ingest one window observation and decide: per-table codec revisions
    /// (with hysteresis), the error-bound scale (with the loss-plateau
    /// signal), and per-tier advice. Applies the revisions to the
    /// controller's state, appends to the log, and returns the entry.
    ///
    /// Deterministic: the same sequence of observations always produces the
    /// same log.
    ///
    /// # Panics
    /// Panics if a table id is out of range or a candidate-ratio list does
    /// not match the configured candidate count.
    pub fn observe(&mut self, obs: &WindowObservation) -> Reselection {
        self.observe_degraded(obs, false)
    }

    /// [`RuntimeController::observe`] with a degraded-mode flag. While a
    /// fault-plan straggler is slowing the collective, waiting out the
    /// hysteresis band just prolongs the pain — the bandwidth drop is known
    /// to be real (scheduled), not noise. Degraded windows therefore rank
    /// candidates with the hysteresis guard dropped to zero, shifting to
    /// heavier compression the moment Equation 2 favours it; healthy
    /// windows behave exactly as [`RuntimeController::observe`].
    pub fn observe_degraded(&mut self, obs: &WindowObservation, degraded: bool) -> Reselection {
        let hysteresis = if degraded {
            0.0
        } else {
            self.config.hysteresis
        };
        let calibration = self.calibration(obs);
        let bw = obs.effective_bandwidth;
        let mut switches = Vec::new();
        for t in &obs.tables {
            assert!(t.table_id < self.current.len(), "table id out of range");
            assert_eq!(
                t.candidate_ratios.len(),
                self.config.candidates.len(),
                "candidate ratios must match the configured candidates"
            );
            let incumbent = self.current[t.table_id];
            // The incumbent's estimate uses its fresh-sample ratio when it is
            // among the candidates (apples to apples), else the ratio it
            // actually achieved over the window.
            let incumbent_speedup =
                match self.config.candidates.iter().position(|&k| k == incumbent) {
                    Some(i) => self.speedup(t.candidate_ratios[i], incumbent, bw, calibration),
                    None => self.speedup(t.measured_ratio(), incumbent, bw, calibration),
                };
            let best = self
                .config
                .candidates
                .iter()
                .zip(&t.candidate_ratios)
                .map(|(&kind, &ratio)| (kind, self.speedup(ratio, kind, bw, calibration)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one candidate");
            if best.0 != incumbent && best.1 > incumbent_speedup * (1.0 + hysteresis) {
                switches.push(TableRevision {
                    table_id: t.table_id,
                    from: incumbent,
                    to: best.0,
                    estimated_speedup: best.1,
                    incumbent_speedup,
                });
                self.current[t.table_id] = best.0;
            }
        }

        // Loss-plateau error-bound control.
        let mut plateaued = false;
        if let Some(ebc) = self.config.eb_control {
            if let Some(prev) = self.prev_loss {
                let improvement = (prev - obs.mean_loss) / prev.abs().max(1e-9);
                plateaued = improvement < ebc.plateau_threshold;
            }
            if plateaued {
                self.eb_scale = (self.eb_scale * ebc.tighten_factor).max(ebc.min_scale);
            } else if self.eb_scale < 1.0 {
                self.eb_scale = (self.eb_scale / ebc.tighten_factor).min(1.0);
            }
        }
        self.prev_loss = Some(obs.mean_loss);

        // Per-tier advice over byte-weighted aggregate candidate ratios.
        let tier_advice = obs.intra_bandwidth.map(|intra_bw| {
            let mut weights = 0.0f64;
            let mut agg = vec![0.0f64; self.config.candidates.len()];
            for t in &obs.tables {
                let w = t.original_bytes as f64;
                weights += w;
                for (a, &r) in agg.iter_mut().zip(&t.candidate_ratios) {
                    *a += w * r;
                }
            }
            let ratios: Vec<f64> = agg
                .iter()
                .map(|&a| if weights > 0.0 { a / weights } else { 1.0 })
                .collect();
            let pick = |bandwidth: f64| {
                self.config
                    .candidates
                    .iter()
                    .zip(&ratios)
                    .map(|(&kind, &ratio)| {
                        (kind, self.speedup(ratio, kind, bandwidth, calibration))
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("at least one candidate")
            };
            let intra = pick(intra_bw);
            TierAdvice {
                intra: (intra.1 > 1.0).then_some(intra),
                inter: pick(bw),
            }
        });

        let entry = Reselection {
            index: self.log.len(),
            iteration: obs.iteration,
            effective_bandwidth: bw,
            mean_loss: obs.mean_loss,
            plateaued,
            eb_scale: self.eb_scale,
            switches,
            tier_advice,
            degraded,
        };
        self.log.push(entry.clone());
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: usize, ratios: &[f64]) -> TableObservation {
        TableObservation {
            table_id: id,
            original_bytes: 1 << 20,
            compressed_bytes: 1 << 18,
            candidate_ratios: ratios.to_vec(),
        }
    }

    fn obs(
        iteration: usize,
        bw: f64,
        loss: f64,
        tables: Vec<TableObservation>,
    ) -> WindowObservation {
        WindowObservation {
            iteration,
            effective_bandwidth: bw,
            intra_bandwidth: None,
            mean_loss: loss,
            measured_compress_throughput: 0.0,
            tables,
        }
    }

    fn two_codec_config(hysteresis: f64) -> ControllerConfig {
        ControllerConfig::new(4, hysteresis)
            .with_candidates(vec![CompressorKind::Fp16, CompressorKind::OursHybrid])
    }

    #[test]
    fn selection_follows_the_observed_bandwidth() {
        let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        // Fast fabric: the fp16 cast holds.
        let r = ctl.observe(&obs(4, 60e9, 0.6, vec![table(0, &[2.0, 12.0])]));
        assert!(r.switches.is_empty());
        assert_eq!(ctl.current(0), CompressorKind::Fp16);
        // Drifted fabric: heavy compression wins, one switch.
        let r = ctl.observe(&obs(8, 2e9, 0.55, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.switches.len(), 1);
        assert_eq!(r.switches[0].from, CompressorKind::Fp16);
        assert_eq!(r.switches[0].to, CompressorKind::OursHybrid);
        assert!(r.switches[0].estimated_speedup > r.switches[0].incumbent_speedup);
        // Same conditions again: selection holds (no thrash).
        let r = ctl.observe(&obs(12, 2e9, 0.5, vec![table(0, &[2.0, 12.0])]));
        assert!(r.switches.is_empty());
        assert_eq!(ctl.total_switches(), 1);
    }

    #[test]
    fn hysteresis_suppresses_marginal_switches() {
        // Near the crossover, a small advantage must not flip the table
        // (at 17 GB/s the hybrid leads the fp16 cast by only ~5%).
        let bw = 17e9;
        let mut free = RuntimeController::new(two_codec_config(0.0), vec![CompressorKind::Fp16]);
        let r_free = free.observe(&obs(4, bw, 0.5, vec![table(0, &[2.0, 12.0])]));
        // Without hysteresis this bandwidth flips to the hybrid…
        assert_eq!(r_free.switches.len(), 1);
        // …but a 10% hysteresis band holds the incumbent.
        let mut guarded = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let r_guarded = guarded.observe(&obs(4, bw, 0.5, vec![table(0, &[2.0, 12.0])]));
        assert!(r_guarded.switches.is_empty());
    }

    #[test]
    fn degraded_mode_drops_the_hysteresis_guard() {
        // Same marginal-advantage bandwidth as the hysteresis test: a
        // healthy window holds the incumbent, a degraded window switches
        // immediately (and records that it ran degraded).
        let bw = 17e9;
        let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let healthy = ctl.observe_degraded(&obs(4, bw, 0.5, vec![table(0, &[2.0, 12.0])]), false);
        assert!(healthy.switches.is_empty());
        assert!(!healthy.degraded);
        let degraded = ctl.observe_degraded(&obs(8, bw, 0.5, vec![table(0, &[2.0, 12.0])]), true);
        assert_eq!(degraded.switches.len(), 1);
        assert_eq!(degraded.switches[0].to, CompressorKind::OursHybrid);
        assert!(degraded.degraded);
    }

    #[test]
    fn per_table_ratios_drive_per_table_decisions() {
        let mut ctl = RuntimeController::new(
            two_codec_config(0.1),
            vec![CompressorKind::Fp16, CompressorKind::Fp16],
        );
        // Table 0 homogenizes (ratio 15), table 1 does not (ratio 2.1): at a
        // mid fabric only table 0 is worth the heavy codec.
        let r = ctl.observe(&obs(
            4,
            4e9,
            0.5,
            vec![table(0, &[2.0, 15.0]), table(1, &[2.0, 2.1])],
        ));
        assert_eq!(r.switches.len(), 1);
        assert_eq!(r.switches[0].table_id, 0);
        assert_eq!(ctl.current(0), CompressorKind::OursHybrid);
        assert_eq!(ctl.current(1), CompressorKind::Fp16);
    }

    #[test]
    fn determinism_same_observations_same_log() {
        let run = || {
            let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
            for (i, bw) in [(4usize, 60e9), (8, 2e9), (12, 2e9), (16, 60e9)] {
                ctl.observe(&obs(
                    i,
                    bw,
                    0.5 - i as f64 * 0.01,
                    vec![table(0, &[2.0, 12.0])],
                ));
            }
            ctl.log().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plateau_tightens_then_recovery_relaxes_the_error_bound() {
        let config = two_codec_config(0.1).with_eb_control(PlateauEbControl {
            plateau_threshold: 0.02,
            tighten_factor: 0.5,
            min_scale: 0.25,
        });
        let mut ctl = RuntimeController::new(config, vec![CompressorKind::Fp16]);
        // First window: no previous loss, nothing fires.
        let r = ctl.observe(&obs(4, 60e9, 1.0, vec![table(0, &[2.0, 12.0])]));
        assert!(!r.plateaued);
        assert_eq!(r.eb_scale, 1.0);
        // Loss stalls: plateau, bound tightens.
        let r = ctl.observe(&obs(8, 60e9, 0.999, vec![table(0, &[2.0, 12.0])]));
        assert!(r.plateaued);
        assert_eq!(r.eb_scale, 0.5);
        // Stalls again: tightens to the floor.
        let r = ctl.observe(&obs(12, 60e9, 0.998, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.eb_scale, 0.25);
        let r = ctl.observe(&obs(16, 60e9, 0.9975, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.eb_scale, 0.25, "scale must respect the floor");
        // Loss falls hard: the scale relaxes back toward 1.
        let r = ctl.observe(&obs(20, 60e9, 0.5, vec![table(0, &[2.0, 12.0])]));
        assert!(!r.plateaued);
        assert_eq!(r.eb_scale, 0.5);
        let r = ctl.observe(&obs(24, 60e9, 0.25, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.eb_scale, 1.0);
    }

    #[test]
    fn tier_advice_compresses_the_fabric_not_the_fast_tier() {
        let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let mut o = obs(4, 2e9, 0.5, vec![table(0, &[2.0, 12.0])]);
        o.intra_bandwidth = Some(150e9);
        let r = ctl.observe(&o);
        let advice = r.tier_advice.expect("intra bandwidth observed");
        assert_eq!(advice.inter.0, CompressorKind::OursHybrid);
        assert!(advice.inter.1 > 1.0);
        assert!(
            advice.intra.is_none(),
            "nothing should compress a 150 GB/s link: {:?}",
            advice.intra
        );
    }

    #[test]
    fn calibration_scales_the_profile_with_measured_throughput() {
        // A machine 100x slower than the profile (clamped to 10x): at a
        // bandwidth where the uncalibrated profile would switch to the
        // hybrid, the calibrated controller knows the codec cannot keep up.
        let mut o = obs(4, 4e9, 0.5, vec![table(0, &[2.0, 12.0])]);
        o.measured_compress_throughput = 3e9; // fp16 profile says 300e9
        let mut calibrated =
            RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let r = calibrated.observe(&o);
        assert!(
            r.switches.is_empty(),
            "calibrated controller must not switch: {:?}",
            r.switches
        );
        let mut uncalibrated =
            RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let mut o2 = o.clone();
        o2.measured_compress_throughput = 0.0;
        assert_eq!(uncalibrated.observe(&o2).switches.len(), 1);
    }

    #[test]
    fn dense_advice_weighs_combine_cycles_against_ratio() {
        let classic = |ratio: f64| DenseCandidate {
            label: format!("classic-{ratio}"),
            ratio,
            compress_throughput: 150e9,
            decompress_throughput: 180e9,
            combine_throughput: None,
        };
        let homo = |ratio: f64, tm: f64| DenseCandidate {
            label: format!("homo-{ratio}"),
            ratio,
            compress_throughput: 150e9,
            decompress_throughput: 180e9,
            combine_throughput: Some(tm),
        };
        // Equal ratio: the homomorphic candidate's skipped decode pass wins.
        let a = advise_dense_allreduce(&[classic(2.0), homo(2.0, 250e9)], 8e9, 8).unwrap();
        assert!(a.homomorphic, "{a:?}");
        // A much better classic ratio overcomes the combine advantage.
        let b = advise_dense_allreduce(&[classic(16.0), homo(2.0, 250e9)], 8e9, 8).unwrap();
        assert!(!b.homomorphic, "{b:?}");
        // Deterministic, and empty input yields no advice.
        assert_eq!(
            advise_dense_allreduce(&[classic(2.0), homo(2.0, 250e9)], 8e9, 8),
            advise_dense_allreduce(&[classic(2.0), homo(2.0, 250e9)], 8e9, 8)
        );
        assert!(advise_dense_allreduce(&[], 8e9, 8).is_none());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ControllerConfig::new(0, 0.1).validate().is_err());
        assert!(ControllerConfig::new(4, -1.0).validate().is_err());
        assert!(ControllerConfig::new(4, 0.1)
            .with_candidates(vec![])
            .validate()
            .is_err());
        assert!(ControllerConfig::new(4, 0.1)
            .with_eb_control(PlateauEbControl {
                plateau_threshold: 0.02,
                tighten_factor: 1.5,
                min_scale: 0.25,
            })
            .validate()
            .is_err());
        assert!(ControllerConfig::new(4, 0.1).validate().is_ok());
    }
}
