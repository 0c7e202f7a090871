//! The per-rank hybrid-parallel training pipeline.
//!
//! Every rank executes [`run_rank`] inside the simulated cluster. The code is
//! SPMD: all ranks generate the same global batch (a simulation convenience —
//! in the real system the indices arrive via the input pipeline), shard it by
//! rank, and then perform exactly the stages of the paper's Figure 3
//! pipeline, with compression spliced around both all-to-alls.

use crate::config::{
    AdaptiveSetting, CompressionSetting, DenseCompression, OverlapSetting, TopologySetting,
    TrainerConfig,
};
use crate::grad_push::GradPushState;
use crate::partition::TablePartition;
use dlrm_adaptive::controller::{
    ControllerConfig, ObservationShare, Reselection, RuntimeController, TableObservation,
    WindowObservation,
};
use dlrm_adaptive::{advise_dense_allreduce, CodecProfile, DenseAdvice, EbSchedule};
use dlrm_ckpt::{Checkpoint, CheckpointSpec, CkptCodec, RankCheckpoint};
use dlrm_comm::cluster::{
    ExchangeBytes, RankCtx, CHUNK_HEADER_BYTES, HIER_ENTRY_HEADER_BYTES, METADATA_RECORD_BYTES,
};
use dlrm_comm::phase as phases;
use dlrm_comm::pool::{PoolStats, PooledBuf};
use dlrm_comm::reduce::{
    allreduce_tier_bytes, shard_range, RawF32Codec, ReduceCodec, ReduceScratch,
};
use dlrm_comm::topology::{HierExchangeBytes, TieredCostModel, Topology};
use dlrm_comm::{CostModel, OverlapTimeline, TimingLedger};
use dlrm_compress::lowprec::{self, Precision};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};
use dlrm_data::{BatchStream, DatasetConfig, MiniBatch};
use dlrm_grad::GradCompressor;
use dlrm_model::{Dlrm, DlrmConfig, EvalMetrics};
use dlrm_obs::{ClockDomain, MetricsRow, MetricsSeries, RankTrack, RecordKind, SpanRecorder};
use dlrm_tensor::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// Iterations before the steady-state allocation counter starts: the first
/// couple of iterations grow the pool, the compress scratch and the float
/// recycler to their working sizes.
pub const WARMUP_ITERATIONS: usize = 2;

/// The compression setting resolved to something the inner loop can use
/// without matching on the config every time.
pub enum ResolvedCompression {
    /// Raw FP32 payloads.
    Raw,
    /// FP16/FP8 casting.
    LowPrec(Precision),
    /// Error-bounded lossy compression: per-table `(compressor, base error
    /// bound)` plus the shared iteration-wise schedule.
    Lossy {
        /// Compressor and base error bound per table.
        per_table: Vec<(Box<dyn Compressor>, f32)>,
        /// Iteration-wise decay schedule.
        schedule: EbSchedule,
        /// Runtime multiplier on every table's scheduled bound, revised by
        /// the closed-loop controller's loss-plateau signal. Stays exactly
        /// `1.0` under [`AdaptiveSetting::Static`], where multiplying by it
        /// is a bit-exact no-op.
        eb_scale: f32,
    },
}

impl ResolvedCompression {
    /// Resolve a [`CompressionSetting`] for a model with `num_tables` tables.
    pub fn from_setting(setting: &CompressionSetting, num_tables: usize) -> Self {
        match setting {
            CompressionSetting::None => ResolvedCompression::Raw,
            CompressionSetting::Fp16 => ResolvedCompression::LowPrec(Precision::Fp16),
            CompressionSetting::Fp8 => ResolvedCompression::LowPrec(Precision::Fp8E4M3),
            CompressionSetting::FixedLossy {
                error_bound,
                compressor,
                schedule,
            } => ResolvedCompression::Lossy {
                per_table: (0..num_tables)
                    .map(|_| (compressor.build(), *error_bound))
                    .collect(),
                schedule: *schedule,
                eb_scale: 1.0,
            },
            CompressionSetting::Adaptive(plan) => {
                assert_eq!(
                    plan.tables.len(),
                    num_tables,
                    "compression plan does not match the model's table count"
                );
                ResolvedCompression::Lossy {
                    per_table: plan
                        .tables
                        .iter()
                        .map(|t| (t.compressor.build(), t.base_error_bound))
                        .collect(),
                    schedule: plan.schedule,
                    eb_scale: 1.0,
                }
            }
        }
    }

    /// Compress one table's payload (a `rows x dim` matrix, row-major).
    #[cfg(test)]
    fn compress(&self, table: usize, iter: usize, data: &[f32], dim: usize) -> Vec<u8> {
        let mut scratch = CompressScratch::new();
        let mut out = Vec::new();
        self.compress_into(table, iter, data, dim, &mut scratch, &mut out);
        out
    }

    /// Allocation-free compression of one table's payload: *appends* the
    /// stream to `out`, drawing intermediates from `scratch`. Byte-identical
    /// to the legacy allocating path.
    fn compress_into(
        &self,
        table: usize,
        iter: usize,
        data: &[f32],
        dim: usize,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) {
        match self {
            ResolvedCompression::Raw => {
                out.reserve(data.len() * 4);
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            ResolvedCompression::LowPrec(p) => lowprec::compress_into(data, *p, out),
            ResolvedCompression::Lossy {
                per_table,
                schedule,
                eb_scale,
            } => {
                let (comp, base_eb) = &per_table[table];
                let eb = schedule.error_bound_at(*base_eb, iter) * eb_scale;
                comp.compress_into(data, dim, eb, scratch, out)
                    .expect("lossy compression of finite training data cannot fail");
            }
        }
    }

    /// Decompress one table's payload.
    #[cfg(test)]
    fn decompress(&self, table: usize, bytes: &[u8]) -> Vec<f32> {
        let mut scratch = CompressScratch::new();
        let mut out = Vec::new();
        self.decompress_into(table, bytes, &mut scratch, &mut out);
        out
    }

    /// Allocation-free decompression of one table's payload: *appends* the
    /// values to `out`.
    fn decompress_into(
        &self,
        table: usize,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) {
        match self {
            ResolvedCompression::Raw => {
                out.reserve(bytes.len() / 4);
                out.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
                );
            }
            ResolvedCompression::LowPrec(_) => {
                lowprec::decompress_into(bytes, out).expect("low-precision payload is well-formed")
            }
            ResolvedCompression::Lossy { per_table, .. } => per_table[table]
                .0
                .decompress_into(bytes, scratch, out)
                .expect("lossy payload is well-formed"),
        }
    }

    /// True for the uncompressed (raw FP32) mode. The byte conversion the
    /// simulator does in that mode stands in for NCCL sending the original
    /// buffer directly, so its measured cost is not charged to the pipeline.
    fn is_raw(&self) -> bool {
        matches!(self, ResolvedCompression::Raw)
    }

    /// Registry kind of the codec `table` runs under this setting (`None`
    /// for raw fp32) — what the per-codec analytic throughput profile and
    /// the runtime controller key on.
    pub fn kind_of(&self, table: usize) -> Option<CompressorKind> {
        match self {
            ResolvedCompression::Raw => None,
            ResolvedCompression::LowPrec(Precision::Fp16) => Some(CompressorKind::Fp16),
            ResolvedCompression::LowPrec(Precision::Fp8E4M3) => Some(CompressorKind::Fp8),
            ResolvedCompression::Lossy { per_table, .. } => Some(per_table[table].0.kind()),
        }
    }

    /// The effective error bound of `table` at `iter` (scheduled bound times
    /// the runtime scale); 0 for non-lossy settings.
    fn effective_eb(&self, table: usize, iter: usize) -> f32 {
        match self {
            ResolvedCompression::Lossy {
                per_table,
                schedule,
                eb_scale,
            } => schedule.error_bound_at(per_table[table].1, iter) * eb_scale,
            _ => 0.0,
        }
    }

    /// Swap `table`'s codec — how the runtime controller applies a
    /// reselection. Only meaningful for the lossy setting (the controller is
    /// only ever constructed over one).
    fn set_compressor(&mut self, table: usize, comp: Box<dyn Compressor>) {
        if let ResolvedCompression::Lossy { per_table, .. } = self {
            per_table[table].0 = comp;
        }
    }

    /// Set the runtime error-bound scale (no-op for non-lossy settings).
    fn set_eb_scale(&mut self, scale: f32) {
        if let ResolvedCompression::Lossy { eb_scale, .. } = self {
            *eb_scale = scale;
        }
    }

    /// Numeric tag describing the compressor of `table` (carried in the
    /// variable all-to-all metadata, as the paper's pipeline does).
    fn tag(&self, table: usize) -> u32 {
        match self {
            ResolvedCompression::Raw => 0,
            ResolvedCompression::LowPrec(Precision::Fp16) => 1,
            ResolvedCompression::LowPrec(Precision::Fp8E4M3) => 2,
            ResolvedCompression::Lossy { per_table, .. } => 10 + per_table[table].0.kind() as u32,
        }
    }
}

/// Per-rank observability state ([`crate::config::ObsSetting::On`] only):
/// the span ring, the per-iteration metrics series, and the ledger baselines
/// each end-of-iteration row is computed against. Everything is preallocated
/// at construction — ring capacity, row capacity and the ratio scratch — so
/// the hot loop's recording path never allocates and the zero-allocation
/// steady state survives with tracing enabled. `Off` never constructs one,
/// keeping the default path bit-identical.
struct ObsState {
    rec: SpanRecorder,
    metrics: MetricsSeries,
    /// Scratch for one row's per-table ratios (capacity `num_tables`).
    ratio_buf: Vec<f64>,
    /// Ledger totals at iteration start, for per-iteration deltas.
    modeled_mark: f64,
    wall_mark: f64,
    comm_seconds_mark: f64,
    wire_bytes_mark: u64,
    tier_bytes_mark: (u64, u64),
    /// Per-table `(original, compressed)` forward bytes at iteration start.
    fwd_mark: Vec<(u64, u64)>,
    /// Decompress-phase seconds at iteration start, so the modeled clock can
    /// split an overlapped exchange region without touching measured time.
    fwd_dec_mark: f64,
    bwd_dec_mark: f64,
    /// Max fabric channel depth sampled at this iteration's exchange
    /// boundaries.
    depth_max: u64,
    /// Straggler factor of the previous iteration (≤ 1.0 = healthy link).
    prev_straggler: f64,
    /// Error-bound scale last seen at a reselection boundary.
    prev_eb_scale: f32,
}

impl ObsState {
    fn new(rank: usize, clock: ClockDomain, iterations: usize, num_tables: usize) -> Self {
        ObsState {
            rec: SpanRecorder::new(rank, clock, SpanRecorder::capacity_for(iterations)),
            metrics: MetricsSeries::with_capacity(iterations, num_tables),
            ratio_buf: Vec::with_capacity(num_tables),
            modeled_mark: 0.0,
            wall_mark: 0.0,
            comm_seconds_mark: 0.0,
            wire_bytes_mark: 0,
            tier_bytes_mark: (0, 0),
            fwd_mark: vec![(0, 0); num_tables],
            fwd_dec_mark: 0.0,
            bwd_dec_mark: 0.0,
            depth_max: 0,
            prev_straggler: 1.0,
            prev_eb_scale: 1.0,
        }
    }

    /// Modeled seconds charged to the wire phases so far.
    fn comm_seconds(ledger: &TimingLedger) -> f64 {
        ledger.seconds(phases::FWD_A2A)
            + ledger.seconds(phases::BWD_A2A)
            + ledger.seconds(phases::ALLREDUCE)
    }

    /// Bytes moved through the wire phases so far.
    fn wire_bytes(ledger: &TimingLedger) -> u64 {
        ledger.bytes(phases::FWD_A2A)
            + ledger.bytes(phases::BWD_A2A)
            + ledger.bytes(phases::ALLREDUCE)
    }

    /// Open this iteration's span and snapshot the deltas' baselines.
    fn begin_iteration(
        &mut self,
        iter: usize,
        ledger: &TimingLedger,
        wall: &TimingLedger,
        fwd_traffic: &[(u64, u64)],
        tier_bytes: (u64, u64),
    ) {
        self.modeled_mark = ledger.total_seconds();
        self.wall_mark = wall.total_seconds();
        self.comm_seconds_mark = Self::comm_seconds(ledger);
        self.wire_bytes_mark = Self::wire_bytes(ledger);
        self.tier_bytes_mark = tier_bytes;
        self.fwd_mark.copy_from_slice(fwd_traffic);
        self.fwd_dec_mark = ledger.seconds(phases::FWD_DECOMPRESS);
        self.bwd_dec_mark = ledger.seconds(phases::BWD_DECOMPRESS);
        self.depth_max = 0;
        self.rec.begin_iteration(iter as u64, self.modeled_mark);
    }

    /// Close an overlapped exchange region: codec time to `codec_phase`, the
    /// rest to `rest_phase`. Under the wall clock the measured codec seconds
    /// split the region; under the modeled clock the ledger's own charge
    /// does, so the trace stays independent of measured time.
    fn mark_split(
        &mut self,
        codec_phase: &'static str,
        measured_s: f64,
        rest_phase: &'static str,
        ledger: &TimingLedger,
    ) {
        let codec_s = match self.rec.clock() {
            ClockDomain::Wall => measured_s,
            ClockDomain::Modeled => {
                let mark = if codec_phase == phases::FWD_DECOMPRESS {
                    self.fwd_dec_mark
                } else {
                    self.bwd_dec_mark
                };
                ledger.seconds(codec_phase) - mark
            }
        };
        self.rec
            .mark_split(codec_phase, codec_s, rest_phase, ledger.total_seconds());
    }

    /// Sample the fabric's pending message depth at an exchange boundary.
    fn sample_depth(&mut self, ctx: &RankCtx) {
        self.depth_max = self.depth_max.max(ctx.fabric().pending_depth() as u64);
    }

    /// Record straggler window edges by comparing against the previous
    /// iteration's factor.
    fn note_straggler(&mut self, factor: f64, ledger: &TimingLedger) {
        if factor > 1.0 && self.prev_straggler <= 1.0 {
            self.rec.instant(
                RecordKind::StragglerStart,
                ledger.total_seconds(),
                0,
                factor,
            );
        } else if factor <= 1.0 && self.prev_straggler > 1.0 {
            self.rec.instant(
                RecordKind::StragglerEnd,
                ledger.total_seconds(),
                0,
                self.prev_straggler,
            );
        }
        self.prev_straggler = factor;
    }

    /// Record the boundary's controller decisions: one instant per codec
    /// switch, plus an instant when the error-bound scale moved.
    fn note_reselection(&mut self, sel: &Reselection, ledger: &TimingLedger) {
        let now = ledger.total_seconds();
        for rev in &sel.switches {
            self.rec
                .instant(RecordKind::CodecReselection, now, rev.table_id as u64, 0.0);
        }
        if sel.eb_scale != self.prev_eb_scale {
            self.rec
                .instant(RecordKind::EbScaleChange, now, 0, f64::from(sel.eb_scale));
            self.prev_eb_scale = sel.eb_scale;
        }
    }

    /// Record a checkpoint write (`arg` = encoded bytes, `value` = modeled
    /// store-write seconds).
    fn note_checkpoint(&mut self, encoded_bytes: u64, write_s: f64, ledger: &TimingLedger) {
        self.rec.instant(
            RecordKind::CheckpointWrite,
            ledger.total_seconds(),
            encoded_bytes,
            write_s,
        );
    }

    /// Close this iteration's span and push its metrics row.
    fn end_iteration(
        &mut self,
        iter: usize,
        ledger: &TimingLedger,
        wall: &TimingLedger,
        fwd_traffic: &[(u64, u64)],
        tier_bytes: (u64, u64),
        ef_residual_norm: f64,
    ) {
        let now = ledger.total_seconds();
        let comm = Self::comm_seconds(ledger) - self.comm_seconds_mark;
        let wire = Self::wire_bytes(ledger) - self.wire_bytes_mark;
        let mut fwd_orig = 0u64;
        let mut fwd_enc = 0u64;
        self.ratio_buf.clear();
        for (t, &(orig, enc)) in fwd_traffic.iter().enumerate() {
            let (o0, e0) = self.fwd_mark[t];
            let (d_orig, d_enc) = (orig - o0, enc - e0);
            fwd_orig += d_orig;
            fwd_enc += d_enc;
            self.ratio_buf.push(if d_enc == 0 {
                0.0
            } else {
                d_orig as f64 / d_enc as f64
            });
        }
        let row = MetricsRow {
            iteration: iter as u64,
            modeled_seconds: now - self.modeled_mark,
            wall_seconds: wall.total_seconds() - self.wall_mark,
            comm_seconds: comm,
            wire_bytes: wire,
            intra_bytes: tier_bytes.0 - self.tier_bytes_mark.0,
            inter_bytes: tier_bytes.1 - self.tier_bytes_mark.1,
            fwd_original_bytes: fwd_orig,
            fwd_encoded_bytes: fwd_enc,
            compression_ratio: if fwd_enc == 0 {
                0.0
            } else {
                fwd_orig as f64 / fwd_enc as f64
            },
            ef_residual_norm,
            effective_bandwidth: if comm > 0.0 { wire as f64 / comm } else { 0.0 },
            channel_depth: self.depth_max,
        };
        self.metrics.push_row(row, &self.ratio_buf);
        self.rec.end_iteration(now);
    }
}

/// One contiguous run of global iterations executed on a fixed world — the
/// unit the fault-tolerant driver schedules. A fault-free run is a single
/// full segment; every scheduled [`WorldEvent`](dlrm_comm::WorldEvent) cuts
/// a new segment whose world, partition and restore point the driver picks.
#[derive(Clone)]
pub struct SegmentSpec {
    /// First global iteration this segment executes.
    pub start: usize,
    /// One past the last global iteration this segment executes.
    pub end: usize,
    /// True when the leading iterations replay work lost to a rank failure.
    pub recovery: bool,
    /// Checkpoint to restore model/shards/residuals from before iterating.
    pub restore: Option<Arc<Checkpoint>>,
    /// Checkpoint cadence and codec in effect during this segment.
    pub checkpoint: Option<CheckpointSpec>,
    /// Force a checkpoint of the final state at `end` (a planned resize
    /// hands the grown/shrunk world its restore point this way).
    pub checkpoint_at_end: bool,
}

impl SegmentSpec {
    /// The whole run as one segment — the fault-free path.
    pub fn full(iterations: usize) -> Self {
        Self {
            start: 0,
            end: iterations,
            recovery: false,
            restore: None,
            checkpoint: None,
            checkpoint_at_end: false,
        }
    }
}

/// Everything a rank needs to run; shared read-only across rank threads.
pub struct RankSetup {
    /// Dataset preset being trained on.
    pub dataset: DatasetConfig,
    /// Trainer configuration.
    pub trainer: TrainerConfig,
    /// Table-to-rank assignment.
    pub partition: TablePartition,
    /// The slice of global iterations this execution covers.
    pub segment: SegmentSpec,
    /// The global batches, indexed by global iteration: drawn once per
    /// iteration, shared by every rank of the segment, fast-forwarded to
    /// `segment.start`.
    pub batches: BatchStream,
}

/// Per-rank result of a training run.
pub struct RankOutcome {
    /// This rank's id.
    pub rank: usize,
    /// Metrics of this rank's batch shard, one entry per iteration
    /// (pre-update, i.e. evaluated with the parameters the iteration started
    /// with).
    pub per_iteration: Vec<EvalMetrics>,
    /// Accumulated time per pipeline phase (virtual network seconds plus
    /// measured compute seconds), including per-phase buffer
    /// allocated/reused byte counters.
    pub ledger: TimingLedger,
    /// Wall-clock seconds per pipeline phase of this rank's training loop —
    /// the measured counterpart of [`RankOutcome::ledger`]'s modeled times.
    /// The buckets partition the loop's real elapsed time, so their sum is
    /// the loop's wall time on this rank.
    pub wall: TimingLedger,
    /// Per-table `(original bytes, compressed bytes)` of the forward
    /// all-to-all payloads this rank produced as a table owner.
    pub fwd_traffic: Vec<(u64, u64)>,
    /// Final counters of this rank's buffer pool.
    pub pool_stats: PoolStats,
    /// Bytes of fresh buffer capacity the compress/send path allocated
    /// *after* [`WARMUP_ITERATIONS`] — zero when the pool, the compress
    /// scratch and the float recycler are fully reused in the steady state.
    pub steady_state_allocated_bytes: u64,
    /// `(raw bytes, wire bytes)` this rank's dense-gradient all-reduce would
    /// have moved uncompressed vs actually moved, summed over iterations
    /// (equal when dense compression is off).
    pub dense_traffic: (u64, u64),
    /// Virtual seconds the compressed dense all-reduce saved vs charging
    /// the raw ring formula, summed over iterations (0 when off).
    pub dense_saved_seconds: f64,
    /// Final L2 norm of the error-feedback residual (0 without EF).
    pub dense_residual_norm: f64,
    /// Compressed-domain combines this rank's owner shards performed across
    /// the segment (zero on the classic decode → reduce → re-encode path).
    pub homo_combines: u64,
    /// Virtual seconds charged to [`phases::COMBINE`] for those combines
    /// (zero without a device-throughput override).
    pub homo_combine_seconds: f64,
    /// Virtual codec seconds the homomorphic path saved vs the classic
    /// counterpart of the same schedule — the eliminated owner-shard decodes
    /// and re-encodes, minus the combine charge (zero without a
    /// device-throughput override; can go negative if combining were slower
    /// than the decodes it replaces).
    pub homo_saved_seconds: f64,
    /// Compressed-domain combines of the backward embedding-gradient push
    /// (leader + owner roles; zero on the per-sample default path).
    pub grad_push_combines: u64,
    /// Combine-aware Equation-2 advice over the dense candidate pool,
    /// evaluated on the last post-all-reduce gradient (`None` when the
    /// segment ran no iterations; identical on every rank — asserted by the
    /// report merger).
    pub dense_advice: Option<DenseAdvice>,
    /// `(intra, inter)` tier bytes this rank moved (both directions, all
    /// network phases) under a hierarchical topology; zeros when flat.
    pub tier_bytes: (u64, u64),
    /// `(intra, inter)` virtual tier seconds charged to this rank's network
    /// phases under a hierarchical topology (un-overlapped charge — hidden
    /// time is accounted separately in the ledger); zeros when flat.
    pub tier_seconds: (f64, f64),
    /// The runtime controller's reselection log (empty under
    /// [`AdaptiveSetting::Static`]; identical on every rank — asserted by
    /// the report merger).
    pub reselections: Vec<Reselection>,
    /// `(original, compressed)` forward-payload bytes of this rank's owned
    /// tables per completed controller window (empty under `Static`).
    pub window_traffic: Vec<(u64, u64)>,
    /// The last checkpoint part this rank produced in its segment (`None`
    /// without a [`CheckpointSpec`]); the driver assembles the per-rank
    /// parts into the global restore point for the next segment.
    pub last_checkpoint: Option<RankCheckpoint>,
    /// Checkpoints this rank took during the segment.
    pub checkpoints_taken: usize,
    /// Raw bytes across all sections of all checkpoints taken.
    pub checkpoint_original_bytes: u64,
    /// Encoded bytes across all sections of all checkpoints taken.
    pub checkpoint_encoded_bytes: u64,
    /// Modeled store-write seconds across all checkpoints taken.
    pub checkpoint_write_seconds: f64,
    /// This rank's span-trace track (`None` with
    /// [`crate::config::ObsSetting::Off`]).
    pub obs_track: Option<RankTrack>,
    /// This rank's per-iteration metrics series (`None` with
    /// [`crate::config::ObsSetting::Off`]).
    pub obs_metrics: Option<MetricsSeries>,
}

/// Per-rank reusable state threaded through every pipeline stage so the
/// steady-state loop allocates nothing: compression scratch, the pooled
/// send/recv containers of both all-to-alls, and a recycler for the float
/// storage of lookup/gradient matrices.
pub struct PipelineScratch {
    /// Codec scratch shared by every compress/decompress call on this rank.
    pub compress: CompressScratch,
    /// Send-side lease container (drained by the collectives).
    pub send: Vec<PooledBuf>,
    /// Receive-side lease container.
    pub recv: Vec<PooledBuf>,
    /// Metadata records of the variable all-to-all.
    pub meta: Vec<(usize, u32)>,
    /// Flattened MLP gradient buffer for the all-reduce.
    pub flat_grads: Vec<f32>,
    /// Staging buffers of the compressed dense all-reduce.
    pub dense_reduce: ReduceScratch,
    /// Recycled float storage for lookup/gradient matrices.
    float_pool: Vec<Vec<f32>>,
    /// Bytes of float storage freshly allocated by `take_floats`.
    float_allocated: u64,
    /// Bytes of float storage served from the recycler.
    float_reused: u64,
    /// Requested send-lease capacity per peer, learned from earlier
    /// iterations so pool leases rarely have to grow: `[0]` for the forward
    /// (lookup) exchange, `[1]` for the backward (gradient) one.
    capacity_hints: [Vec<usize>; 2],
    /// Per-chunk codec seconds of the current exchange (in the schedule's
    /// peer order), feeding the [`OverlapTimeline`].
    chunk_codec_s: Vec<f64>,
    /// Per-chunk bytes this rank sent (peer order, headers included).
    chunk_sent: Vec<usize>,
    /// Per-chunk bytes this rank received (chunked schedule only).
    chunk_recv: Vec<usize>,
}

impl PipelineScratch {
    /// Create an empty scratch for a rank of a `world`-sized cluster.
    pub fn new(world: usize) -> Self {
        Self {
            compress: CompressScratch::new(),
            send: Vec::with_capacity(world),
            recv: Vec::with_capacity(world),
            meta: Vec::with_capacity(world),
            flat_grads: Vec::new(),
            dense_reduce: ReduceScratch::new(),
            float_pool: Vec::new(),
            float_allocated: 0,
            float_reused: 0,
            capacity_hints: [vec![64; world], vec![64; world]],
            chunk_codec_s: Vec::with_capacity(world),
            chunk_sent: Vec::with_capacity(world),
            chunk_recv: Vec::with_capacity(world),
        }
    }

    /// Take a cleared float buffer with at least `len_hint` capacity from
    /// the recycler (allocating only when empty, with the event counted).
    pub fn take_floats(&mut self, len_hint: usize) -> Vec<f32> {
        match self.float_pool.pop() {
            Some(mut v) => {
                v.clear();
                if v.capacity() >= len_hint {
                    self.float_reused += (len_hint * 4) as u64;
                } else {
                    // Growing a cleared Vec allocates a whole new block of
                    // the full requested size (and frees the old one) —
                    // count the full size, not the delta.
                    self.float_allocated += (len_hint * 4) as u64;
                    v.reserve(len_hint);
                }
                v
            }
            None => {
                self.float_allocated += (len_hint * 4) as u64;
                Vec::with_capacity(len_hint)
            }
        }
    }

    /// Return a float buffer's storage to the recycler.
    pub fn put_floats(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.float_pool.push(v);
        }
    }

    /// Cumulative `(allocated, reused)` float-recycler bytes.
    fn float_counters(&self) -> (u64, u64) {
        (self.float_allocated, self.float_reused)
    }
}

/// Zero-copy walk over one all-to-all chunk — `[count u32]` followed by
/// `count` blocks as [`write_block`] appends them: yields `(table, payload)`
/// with payloads borrowed from `bytes`.
fn block_slices(bytes: &[u8]) -> impl Iterator<Item = (u32, &[u8])> {
    let count = u32::from_le_bytes(bytes[0..4].try_into().expect("block count")) as usize;
    let mut pos = 4usize;
    (0..count).map(move |_| {
        let table = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("table id"));
        pos += 4;
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("payload len")) as usize;
        pos += 4;
        let payload = &bytes[pos..pos + len];
        pos += len;
        (table, payload)
    })
}

/// Seconds a piece of codec work is charged: the per-codec analytic sum
/// when a [`CodecProfile`] is configured (accumulated per block by the
/// caller and passed as `analytic`), `bytes / throughput` under the flat
/// device-throughput override, the measured seconds otherwise. The one rule
/// behind every codec charge — whole stages through [`charge_codec`], single
/// chunks on the overlap timeline.
fn codec_seconds(measured: f64, bytes: u64, throughput: Option<f64>, analytic: Option<f64>) -> f64 {
    match (analytic, throughput) {
        (Some(a), _) => a,
        (None, Some(t)) if t > 0.0 => bytes as f64 / t,
        _ => measured,
    }
}

/// Charge a compression/decompression phase by [`codec_seconds`].
fn charge_codec(
    ledger: &mut TimingLedger,
    phase: &str,
    measured: f64,
    bytes: u64,
    throughput: Option<f64>,
    analytic: Option<f64>,
) {
    ledger.add_time(phase, codec_seconds(measured, bytes, throughput, analytic));
    ledger.add_bytes(phase, bytes);
}

/// Per-block analytic codec seconds under a per-codec throughput profile:
/// `bytes` over the profile throughput of the codec `table` runs (the
/// compress side, or the decompress side with `decompress`). Zero without a
/// profile or for raw payloads — callers sum this per block and pass the
/// total as the `analytic` argument of [`codec_seconds`].
fn block_profile_seconds(
    profile: Option<&CodecProfile>,
    resolved: &ResolvedCompression,
    table: usize,
    bytes: u64,
    decompress: bool,
) -> f64 {
    match (profile, resolved.kind_of(table)) {
        (Some(p), Some(kind)) => {
            let (tc, td) = p.throughput(kind);
            bytes as f64 / if decompress { td } else { tc }
        }
        _ => 0.0,
    }
}

/// Settle one freshly compressed chunk lease before it is begin-sent.
///
/// If the chunk outgrew the capacity leased at take time, the mid-fill `Vec`
/// growth was a real heap reallocation the pool counters cannot see; it is
/// counted **exactly once**, here, as the returned grown bytes. The chunk is
/// then *retried* into a right-sized lease — the simulated analogue of
/// re-posting a send whose registered buffer was too small — and the
/// abandoned storage recycles through the pool, where it usually serves the
/// retry itself as a *reuse*: the pool's own counters never record the same
/// realloc a second time (the audit behind the warm-up double-count
/// regression test).
fn settle_chunk(ctx: &RankCtx, buf: PooledBuf, cap_at_take: usize) -> (PooledBuf, u64) {
    let grown = buf.capacity().saturating_sub(cap_at_take) as u64;
    if grown == 0 {
        return (buf, 0);
    }
    // Retry: move the already-compressed bytes into a fresh right-sized
    // lease. The pool's take counters record the re-lease as whatever it
    // truly was (a reuse of parked storage, or a genuine allocation); the
    // mid-fill realloc is reported once via `grown` — never both for the
    // same bytes. The grown storage parks on drop and serves later takes.
    let mut fresh = ctx.take_buf(buf.len());
    fresh.extend_from_slice(&buf);
    (fresh, grown)
}

/// Charge an exchange whose chunks overlap codec work with the wire: the
/// per-chunk codec seconds feed an [`OverlapTimeline`], the collective's
/// `beta` (bandwidth) seconds are split across the chunks in proportion to
/// `weights` (so chunking never changes total wire time — only what hides
/// behind it), and `alpha` latency is charged once. The exposed wire goes
/// to `phase`'s seconds, the hidden time to its `overlap_saved` counter.
/// Returns the timeline for inspection.
fn charge_overlap(
    ledger: &mut TimingLedger,
    phase: &str,
    alpha: f64,
    beta: f64,
    codec_s: &[f64],
    weights: impl Iterator<Item = usize> + Clone,
) -> OverlapTimeline {
    let weight_total: f64 = weights.clone().map(|w| w as f64).sum();
    let mut timeline = OverlapTimeline::new();
    for (&codec, w) in codec_s.iter().zip(weights) {
        let wire = if weight_total > 0.0 {
            beta * w as f64 / weight_total
        } else {
            0.0
        };
        timeline.push(codec, wire);
    }
    ledger.add_time(phase, alpha + timeline.exposed_wire());
    ledger.add_overlap_saved(phase, timeline.saved());
    timeline
}

/// Charge one overlapped chunked all-to-all through [`charge_overlap`]: one
/// α latency, and the collective's bottleneck-bandwidth time weighted by
/// each chunk's bottleneck bytes.
fn charge_overlapped_a2a(
    ledger: &mut TimingLedger,
    phase: &str,
    cost: &CostModel,
    codec_s: &[f64],
    sent: &[usize],
    recv: &[usize],
) -> OverlapTimeline {
    debug_assert_eq!(codec_s.len(), sent.len());
    debug_assert_eq!(codec_s.len(), recv.len());
    let sent_total: usize = sent.iter().sum();
    let recv_total: usize = recv.iter().sum();
    ledger.add_bytes(phase, (sent_total + recv_total) as u64);
    charge_overlap(
        ledger,
        phase,
        cost.config().latency,
        cost.bandwidth_time(sent_total.max(recv_total)),
        codec_s,
        sent.iter().zip(recv).map(|(&s, &r)| s.max(r)),
    )
}

/// Modeled seconds of one variable all-to-all on `cost`: the metadata
/// records' phase plus the payload phase. `stats` counts the records too,
/// but `metadata_time` already charges their bandwidth, so the payload term
/// leaves them out. Also returns the payload bottleneck bytes (the larger of
/// sent and received).
pub(crate) fn var_a2a_seconds(
    cost: &CostModel,
    world: usize,
    stats: &ExchangeBytes,
) -> (f64, usize) {
    let peers = world.saturating_sub(1);
    let meta_bytes = peers * METADATA_RECORD_BYTES;
    let sent = stats.sent.saturating_sub(meta_bytes);
    let received = stats.received.saturating_sub(meta_bytes);
    let seconds =
        cost.metadata_time(peers, METADATA_RECORD_BYTES) + cost.alltoall_time(sent, received);
    (seconds, sent.max(received))
}

/// Charge one hierarchical all-to-all. Sequential mode charges the full
/// tiered time (gather + exchange + scatter, each phase one α of its tier
/// plus its bottleneck bytes over the tier bandwidth). Double-buffered mode
/// goes through [`charge_overlap`]: the α's once, the β seconds weighted by
/// `weights` (this rank's per-destination chunk bytes). Either way the
/// collective's total wire time is the tiered model's; overlap only changes
/// what hides behind it. Returns the un-overlapped `(intra, inter)` tier
/// seconds for the report's per-tier breakdown.
fn charge_hier_a2a(
    ledger: &mut TimingLedger,
    phase: &str,
    tiered: &TieredCostModel,
    bytes: &HierExchangeBytes,
    overlapped: bool,
    codec_s: &[f64],
    weights: &[usize],
) -> (f64, f64) {
    let (intra_t, inter_t) = tiered.hier_tier_times(bytes);
    ledger.add_bytes(phase, bytes.total());
    if overlapped {
        debug_assert_eq!(codec_s.len(), weights.len());
        let alpha = tiered.hier_alpha_seconds();
        let beta = (intra_t + inter_t - alpha).max(0.0);
        charge_overlap(ledger, phase, alpha, beta, codec_s, weights.iter().copied());
    } else {
        ledger.add_time(phase, intra_t + inter_t);
    }
    (intra_t, inter_t)
}

/// Append one `[table u32][len u32][payload]` block to a send lease,
/// compressing the payload in place and back-patching the length — with
/// [`block_slices`], the single definition of the chunk wire format.
/// Returns the compressed payload length.
#[allow(clippy::too_many_arguments)]
fn write_block(
    resolved: &ResolvedCompression,
    table: usize,
    iter: usize,
    data: &[f32],
    dim: usize,
    scratch: &mut CompressScratch,
    buf: &mut Vec<u8>,
) -> usize {
    buf.extend_from_slice(&(table as u32).to_le_bytes());
    let len_pos = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let start = buf.len();
    resolved.compress_into(table, iter, data, dim, scratch, buf);
    let payload_len = buf.len() - start;
    buf[len_pos..len_pos + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    payload_len
}

/// Per-rank recorder of pipeline phase boundaries. Every boundary is closed
/// exactly once, and that one close feeds all three per-phase views: the
/// wall-clock bucket, the span trace (observability on only) and the
/// allocation counters. Modeled charges are not its business — they go into
/// the [`TimingLedger`] where they are computed, before the close.
///
/// The wall buckets partition real time: every elapsed instant goes to the
/// phase whose boundary closes next, so they sum to the loop's wall time.
/// Work the cost model does not charge (batch synthesis, lease bookkeeping,
/// warm-up parking) lands in the bucket it precedes.
struct PhaseClock<'a> {
    ctx: &'a RankCtx,
    wall: TimingLedger,
    /// The previous boundary.
    last: Instant,
    obs: Option<ObsState>,
    /// Allocation counters at the previous boundary: pool, compress-scratch
    /// capacity, float recycler `(allocated, reused)`.
    pool_mark: PoolStats,
    compress_mark: u64,
    float_mark: (u64, u64),
    /// Bytes freshly allocated after [`WARMUP_ITERATIONS`].
    steady_allocated: u64,
    /// Whether the current iteration counts toward `steady_allocated`.
    counting: bool,
}

impl<'a> PhaseClock<'a> {
    /// Start the clock: wall time and allocation activity are measured from
    /// here on.
    fn new(ctx: &'a RankCtx, scratch: &PipelineScratch, obs: Option<ObsState>) -> Self {
        Self {
            ctx,
            wall: TimingLedger::new(),
            last: Instant::now(),
            obs,
            pool_mark: ctx.pool().stats(),
            compress_mark: scratch.compress.capacity_bytes(),
            float_mark: scratch.float_counters(),
            steady_allocated: 0,
            counting: false,
        }
    }

    /// Close `phase`. `extra_allocated` is allocation the pool, scratch and
    /// recycler counters cannot see, measured by the caller (send-lease
    /// growth, dense-state growth).
    fn close(
        &mut self,
        phase: &'static str,
        ledger: &mut TimingLedger,
        scratch: &PipelineScratch,
        extra_allocated: u64,
    ) {
        self.account(phase, ledger, scratch, extra_allocated);
        if let Some(o) = self.obs.as_mut() {
            if matches!(phase, phases::FWD_A2A | phases::BWD_A2A | phases::ALLREDUCE) {
                o.sample_depth(self.ctx);
            }
            o.rec.mark(phase, ledger.total_seconds());
        }
        let elapsed = self.lap();
        self.wall.add_time(phase, elapsed);
    }

    /// Close an overlapped exchange region where decoding interleaved with
    /// waiting on the wire: `codec_s` measured codec seconds go to
    /// `codec_phase` (which also takes the region's allocations), the rest
    /// of the region to `rest_phase`.
    fn close_split(
        &mut self,
        codec_phase: &'static str,
        codec_s: f64,
        rest_phase: &'static str,
        ledger: &mut TimingLedger,
        scratch: &PipelineScratch,
    ) {
        self.account(codec_phase, ledger, scratch, 0);
        if let Some(o) = self.obs.as_mut() {
            o.sample_depth(self.ctx);
            o.mark_split(codec_phase, codec_s, rest_phase, ledger);
        }
        let elapsed = self.lap();
        let codec = codec_s.clamp(0.0, elapsed);
        self.wall.add_time(codec_phase, codec);
        self.wall.add_time(rest_phase, elapsed - codec);
    }

    /// Wall seconds since the previous boundary, which this one becomes.
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        elapsed
    }

    /// Fold the allocation activity since the previous boundary into
    /// `phase`'s ledger counters (pool misses, compress-scratch growth,
    /// float-recycler misses, plus `extra_allocated`) and, past warm-up,
    /// into the steady-state total.
    fn account(
        &mut self,
        phase: &str,
        ledger: &mut TimingLedger,
        scratch: &PipelineScratch,
        extra_allocated: u64,
    ) {
        let now = self.ctx.pool().stats();
        let pool_delta = now.since(&self.pool_mark);
        self.pool_mark = now;
        let capacity_now = scratch.compress.capacity_bytes();
        let scratch_growth = capacity_now.saturating_sub(self.compress_mark);
        self.compress_mark = capacity_now;
        let (fa, fr) = scratch.float_counters();
        let float_allocated = fa - self.float_mark.0;
        let float_reused = fr - self.float_mark.1;
        self.float_mark = (fa, fr);
        let allocated =
            pool_delta.allocated_bytes + scratch_growth + float_allocated + extra_allocated;
        // The flag is read once per process; this diagnostic sits inside the
        // very instrumentation that demonstrates the allocation-free loop.
        static ALLOC_DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let debug = *ALLOC_DEBUG.get_or_init(|| std::env::var("DLRM_ALLOC_DEBUG").is_ok());
        if debug && allocated > 0 {
            eprintln!(
                "[alloc] rank {} phase {phase}: pool {} scratch {} float {} extra {}",
                self.ctx.rank(),
                pool_delta.allocated_bytes,
                scratch_growth,
                float_allocated,
                extra_allocated
            );
        }
        ledger.add_allocated_bytes(phase, allocated);
        ledger.add_reused_bytes(phase, pool_delta.reused_bytes + float_reused);
        if self.counting {
            self.steady_allocated += allocated;
        }
    }
}

/// `(intra, inter)` tier bytes and seconds a rank's network phases moved
/// and were charged under a hierarchical topology (zeros when flat).
#[derive(Default)]
struct TierTotals {
    bytes: (u64, u64),
    seconds: (f64, f64),
}

/// How an embedding all-to-all moves its per-peer chunks, derived from the
/// trainer's overlap and topology settings. Every schedule moves the same
/// chunk bytes and decodes to bit-identical values; they differ in the
/// lease kind, the collective and the wire charge.
#[derive(Clone, Copy)]
enum Schedule<'a> {
    /// Compress every chunk, run the variable all-to-all (metadata records,
    /// then payloads), decompress.
    Sequential,
    /// Double-buffered rotation: chunk k goes to rank+k and is begin-sent
    /// as soon as it is compressed; arrivals (from rank−k) are decoded as
    /// they complete, so codec time hides behind the wire.
    Chunked,
    /// The two-level collective of a node topology; `overlapped` hides
    /// per-chunk codec time behind its bandwidth seconds.
    Hierarchical {
        topo: &'a Topology,
        tiered: &'a TieredCostModel,
        overlapped: bool,
    },
}

impl<'a> Schedule<'a> {
    fn new(overlapped: bool, hier: Option<&'a (Topology, TieredCostModel)>) -> Self {
        match hier {
            Some((topo, tiered)) => Schedule::Hierarchical {
                topo,
                tiered,
                overlapped,
            },
            None if overlapped => Schedule::Chunked,
            None => Schedule::Sequential,
        }
    }

    /// The peer this rank's `step`-th chunk goes to, and the one its
    /// `step`-th arrival comes from.
    fn peers(self, rank: usize, step: usize, world: usize) -> (usize, usize) {
        match self {
            Schedule::Chunked => ((rank + step) % world, (rank + world - step) % world),
            _ => (step, step),
        }
    }
}

/// Which of the two embedding all-to-alls an [`exchange`] runs: where its
/// blocks come from and where the decoded blocks go.
enum Direction<'a> {
    /// Stages 2–4: owners send every destination its shard's lookups of
    /// the owned tables; decoded blocks fill `slots` by table.
    Forward {
        owned: &'a [usize],
        /// Lookups indexed `[local table index * world + destination]`.
        lookups: &'a [Matrix],
        slots: &'a mut [Option<Matrix>],
        /// Per-table `(original, compressed)` bytes this rank produced.
        traffic: &'a mut [(u64, u64)],
    },
    /// Stages 6–7: every rank sends each owner its shard's gradients of the
    /// owner's tables; decoded blocks are collected as
    /// `(table, source rank, gradient)`.
    Backward {
        partition: &'a TablePartition,
        grads: &'a [Matrix],
        entries: &'a mut Vec<(u32, u32, Matrix)>,
    },
}

impl<'a> Direction<'a> {
    fn is_forward(&self) -> bool {
        matches!(self, Direction::Forward { .. })
    }

    /// `[compress, all-to-all, decompress]` ledger phases.
    fn phases(&self) -> [&'static str; 3] {
        use dlrm_comm::phase::*;
        if self.is_forward() {
            [FWD_COMPRESS, FWD_A2A, FWD_DECOMPRESS]
        } else {
            [BWD_COMPRESS, BWD_A2A, BWD_DECOMPRESS]
        }
    }

    /// Tables of the chunk sent to `peer`, in block order (ascending).
    fn tables(&self, peer: usize) -> &'a [usize] {
        match *self {
            Direction::Forward { owned, .. } => owned,
            Direction::Backward { partition, .. } => partition.tables_of(peer),
        }
    }

    /// The block of `table` (the `local`-th of [`Self::tables`]) for `peer`.
    fn block(&self, local: usize, table: usize, peer: usize, world: usize) -> &'a Matrix {
        match *self {
            Direction::Forward { lookups, .. } => &lookups[local * world + peer],
            Direction::Backward { grads, .. } => &grads[table],
        }
    }

    /// Rows of the blocks exchanged with `peer`: `(sent, received)`.
    fn rows(&self, shards: &[MiniBatch], rank: usize, peer: usize) -> (usize, usize) {
        let (mine, theirs) = (shards[rank].batch_size(), shards[peer].batch_size());
        if self.is_forward() {
            (theirs, mine)
        } else {
            (mine, theirs)
        }
    }

    /// Record a compressed block (forward traffic accounting only).
    fn note_sent(&mut self, table: usize, original: u64, encoded: u64) {
        if let Direction::Forward { traffic, .. } = self {
            traffic[table].0 += original;
            traffic[table].1 += encoded;
        }
    }

    /// Hand over a decoded block that arrived from `src`.
    fn deliver(&mut self, table: u32, src: usize, block: Matrix) {
        match self {
            Direction::Forward { slots, .. } => slots[table as usize] = Some(block),
            Direction::Backward { entries, .. } => entries.push((table, src as u32, block)),
        }
    }
}

/// Per-iteration inputs of both embedding exchanges.
struct ExchangeEnv<'a> {
    resolved: &'a ResolvedCompression,
    iter: usize,
    dim: usize,
    /// This iteration's batch shards, one per rank.
    shards: &'a [MiniBatch],
    cost: &'a CostModel,
    schedule: Schedule<'a>,
    /// Compressor tag per destination (carried in the collective metadata).
    tags: &'a [u32],
    profile: Option<&'a CodecProfile>,
    device_throughput: Option<(f64, f64)>,
}

/// One embedding all-to-all: compress one chunk per peer straight into a
/// pooled send lease, move the chunks by `env.schedule`, decompress what
/// arrives — the paper's compress → all-to-all → decompress step, shared by
/// the forward lookups and the backward gradients. Charges the direction's
/// three ledger phases and closes them on `clock`.
fn exchange(
    env: &ExchangeEnv,
    mut dir: Direction,
    clock: &mut PhaseClock,
    ledger: &mut TimingLedger,
    scratch: &mut PipelineScratch,
    mut controller: Option<&mut ControllerState>,
    tiers: &mut TierTotals,
) {
    let ctx = clock.ctx;
    let (rank, world) = (ctx.rank(), ctx.world());
    let [compress_phase, a2a_phase, decompress_phase] = dir.phases();
    let resolved = env.resolved;
    let raw = resolved.is_raw();
    let tc = env.device_throughput.map(|(c, _)| c);
    let td = env.device_throughput.map(|(_, d)| d);
    let mut chunked = matches!(env.schedule, Schedule::Chunked).then(|| ctx.begin_chunked());
    let header = chunked.as_ref().map_or(0, |_| CHUNK_HEADER_BYTES);
    let hints = usize::from(!dir.is_forward());

    // ── Compress: one `[count u32]` + blocks chunk per peer. Chunk codec
    // seconds and sent bytes are kept in peer order for the overlap
    // timeline.
    scratch.send.clear();
    scratch.chunk_codec_s.clear();
    scratch.chunk_sent.clear();
    scratch.chunk_recv.clear();
    let stage_t0 = Instant::now();
    let mut original = 0u64;
    let mut profile_s = 0.0f64;
    let mut lease_growth = 0u64;
    for step in 0..world {
        let (peer, _) = env.schedule.peers(rank, step, world);
        let tables = dir.tables(peer);
        let t0 = Instant::now();
        // Lease capacity covers the worst case of every codec (≤ 3× the raw
        // bytes plus per-block headers), so a chunk does not grow its lease
        // mid-fill — sizes that fluctuate with the data would otherwise
        // defeat the zero-allocation steady state.
        let rows = dir.rows(env.shards, rank, peer).0;
        let worst = header + 4 + tables.len() * (rows * env.dim * 12 + 708);
        let capacity = scratch.capacity_hints[hints][peer].max(worst);
        let mut buf = if chunked.is_some() {
            ctx.take_chunk_buf(capacity)
        } else {
            ctx.take_buf(capacity)
        };
        let cap_at_take = buf.capacity();
        buf.extend_from_slice(&(tables.len() as u32).to_le_bytes());
        let mut chunk_original = 0u64;
        let mut chunk_profile_s = 0.0f64;
        for (local, &t) in tables.iter().enumerate() {
            let block = dir.block(local, t, peer, world);
            let encoded = write_block(
                resolved,
                t,
                env.iter,
                block.as_slice(),
                env.dim,
                &mut scratch.compress,
                &mut buf,
            );
            let bytes = (block.len() * 4) as u64;
            chunk_original += bytes;
            chunk_profile_s += block_profile_seconds(env.profile, resolved, t, bytes, false);
            dir.note_sent(t, bytes, encoded as u64);
        }
        // Growth past the leased capacity is an allocation the pool cannot
        // see; a chunked send is re-leased at the right size first.
        let (buf, grown) = if chunked.is_some() {
            settle_chunk(ctx, buf, cap_at_take)
        } else {
            let grown = buf.capacity().saturating_sub(cap_at_take) as u64;
            (buf, grown)
        };
        lease_growth += grown;
        let hint = &mut scratch.capacity_hints[hints][peer];
        *hint = (*hint).max(buf.len());
        let codec_s = codec_seconds(
            t0.elapsed().as_secs_f64(),
            chunk_original,
            tc,
            env.profile.map(|_| chunk_profile_s),
        );
        scratch.chunk_codec_s.push(if raw { 0.0 } else { codec_s });
        scratch
            .chunk_sent
            .push(if peer == rank { 0 } else { buf.len() });
        original += chunk_original;
        profile_s += chunk_profile_s;
        match chunked.as_mut() {
            Some(ex) => ex.send(peer, buf, env.tags[peer]),
            None => scratch.send.push(buf),
        }
    }
    if matches!(env.schedule, Schedule::Sequential) {
        // The raw byte conversion stands in for NCCL sending the original
        // buffer, so its measured cost is not charged.
        let elapsed = stage_t0.elapsed().as_secs_f64();
        let measured = if raw { 0.0 } else { elapsed };
        let analytic = env.profile.map(|_| profile_s);
        charge_codec(ledger, compress_phase, measured, original, tc, analytic);
    } else {
        ledger.add_time(compress_phase, scratch.chunk_codec_s.iter().sum::<f64>());
        ledger.add_bytes(compress_phase, original);
    }
    clock.close(compress_phase, ledger, scratch, lease_growth);

    // ── Move the chunks (the chunked rotation already has them in flight
    // and is charged once it retires).
    match env.schedule {
        Schedule::Sequential => {
            let stats = ctx.all_to_all_var_pooled(
                &mut scratch.send,
                &mut scratch.recv,
                env.tags,
                &mut scratch.meta,
            );
            let (seconds, bottleneck) = var_a2a_seconds(env.cost, world, &stats);
            ledger.add_time(a2a_phase, seconds);
            ledger.add_bytes(a2a_phase, (stats.sent + stats.received) as u64);
            if let Some(state) = controller.as_mut() {
                state.add_wire(bottleneck, env.cost.bandwidth_time(bottleneck));
            }
            clock.close(a2a_phase, ledger, scratch, 0);
        }
        Schedule::Hierarchical {
            topo,
            tiered,
            overlapped,
        } => {
            let bytes = ctx.all_to_all_hier_pooled(topo, &mut scratch.send, &mut scratch.recv);
            let (ti, te) = charge_hier_a2a(
                ledger,
                a2a_phase,
                tiered,
                &bytes,
                overlapped,
                &scratch.chunk_codec_s,
                &scratch.chunk_sent,
            );
            tiers.seconds.0 += ti;
            tiers.seconds.1 += te;
            tiers.bytes.0 += bytes.intra_total();
            tiers.bytes.1 += bytes.inter_total();
            if let Some(state) = controller.as_mut() {
                let ex = bytes.exchange;
                let inter_b = ex.sent.max(ex.received);
                state.add_wire(inter_b, inter_b as f64 / tiered.node_fabric_bandwidth());
                let intra_b = bytes.gather.sent.max(bytes.gather.received)
                    + bytes.scatter.sent.max(bytes.scatter.received);
                state.add_intra(intra_b, intra_b as f64 / topo.intra().alltoall_bandwidth);
            }
            clock.close(a2a_phase, ledger, scratch, 0);
        }
        Schedule::Chunked => {}
    }

    // ── Decompress every arrival (the chunked rotation retires chunks in
    // matching order, each lease dropping back to its sender's pool at
    // once; the others walk the received leases in place).
    let mut recv = std::mem::take(&mut scratch.recv);
    let mut decoded = 0u64;
    let mut profile_d_s = 0.0f64;
    let mut measured = 0.0f64;
    for step in 0..world {
        let (_, src) = env.schedule.peers(rank, step, world);
        let lease;
        let chunk: &[u8] = match chunked.as_mut() {
            Some(ex) => {
                lease = ex.recv(src).0;
                scratch
                    .chunk_recv
                    .push(if src == rank { 0 } else { lease.len() });
                &lease[CHUNK_HEADER_BYTES..]
            }
            None => &recv[src],
        };
        let rows = dir.rows(env.shards, rank, src).1;
        let t0 = Instant::now();
        for (table, payload) in block_slices(chunk) {
            let mut values = scratch.take_floats(rows * env.dim);
            resolved.decompress_into(table as usize, payload, &mut scratch.compress, &mut values);
            let bytes = (values.len() * 4) as u64;
            decoded += bytes;
            profile_d_s +=
                block_profile_seconds(env.profile, resolved, table as usize, bytes, true);
            assert_eq!(
                values.len(),
                rows * env.dim,
                "table {table} from rank {src}: bad payload size"
            );
            dir.deliver(table, src, Matrix::from_vec(rows, env.dim, values));
        }
        measured += t0.elapsed().as_secs_f64();
    }
    recv.clear(); // release the payload leases back to their pools
    scratch.recv = recv;
    charge_codec(
        ledger,
        decompress_phase,
        if raw { 0.0 } else { measured },
        decoded,
        td,
        env.profile.map(|_| profile_d_s),
    );
    match chunked {
        None => clock.close(decompress_phase, ledger, scratch, 0),
        Some(mut ex) => {
            let stats = ex.finish();
            debug_assert_eq!(stats.sent, scratch.chunk_sent.iter().sum::<usize>());
            debug_assert_eq!(stats.received, scratch.chunk_recv.iter().sum::<usize>());
            charge_overlapped_a2a(
                ledger,
                a2a_phase,
                env.cost,
                &scratch.chunk_codec_s,
                &scratch.chunk_sent,
                &scratch.chunk_recv,
            );
            if let Some(state) = controller.as_mut() {
                let bottleneck = stats.sent.max(stats.received);
                state.add_wire(bottleneck, env.cost.bandwidth_time(bottleneck));
            }
            clock.close_split(decompress_phase, measured, a2a_phase, ledger, scratch);
        }
    }
}

/// Snapshot one rank's share of a global checkpoint: the MLP replica (rank 0
/// only — every rank holds identical dense parameters, so one copy
/// suffices), the embedding shards this rank owns, and the dense
/// error-feedback residual, each encoded through the checkpoint codec.
fn take_checkpoint(
    iteration: usize,
    rank: usize,
    model: &Dlrm,
    owned: &[usize],
    dense: Option<&GradCompressor>,
    codec: &mut CkptCodec,
    flat: &mut Vec<f32>,
) -> RankCheckpoint {
    let t0 = Instant::now();
    let mut part = RankCheckpoint::new(iteration, rank);
    if rank == 0 {
        flat.clear();
        model.flatten_mlp_params_into(flat);
        part.mlp = Some(codec.encode(flat));
    }
    for &t in owned {
        let w = model.embedding(t).weights();
        part.push_table(t, w.rows(), w.cols(), codec.encode(w.as_slice()));
    }
    if let Some(residual) = dense.and_then(GradCompressor::residual) {
        part.residual = Some(codec.encode(residual));
    }
    part.encode_seconds = t0.elapsed().as_secs_f64();
    part
}

/// Per-rank state of the closed-loop runtime controller
/// ([`AdaptiveSetting::Runtime`]); `None` under the bit-exact
/// [`AdaptiveSetting::Static`] path.
///
/// The controller itself ([`RuntimeController`]) is pure decision logic;
/// this wrapper owns the trainer-side plumbing: window accumulators
/// (per-table traffic, virtual wire bytes/seconds per tier, the loss sum),
/// candidate-codec probing on live payloads, and the window-boundary
/// **observation all-gather** that makes every rank decide on identical
/// inputs — which is what keeps a mid-run codec switch consistent between
/// the rank that compresses a table and the ranks that decompress it.
struct ControllerState {
    ctl: RuntimeController,
    /// Prebuilt candidate codecs, in controller-candidate order.
    candidates: Vec<(CompressorKind, Box<dyn Compressor>)>,
    /// Iterations per observation window.
    window: usize,
    /// `fwd_traffic` snapshot at the current window's start.
    traffic_mark: Vec<(u64, u64)>,
    /// This rank's share of the current window: the loss sum and count,
    /// and the wire bytes and the β seconds the cost model charged for
    /// them per tier (bottleneck and, under a hierarchy, intra-node). Codec
    /// totals and tables are filled in at the boundary.
    share: ObservationShare,
    /// Codec-phase marks at the window start (ledger seconds/bytes of the
    /// two compress phases), for measured-throughput calibration.
    codec_seconds_mark: f64,
    codec_bytes_mark: u64,
    /// Candidate compression ratios per owned table (local index), probed on
    /// the iteration preceding a window boundary.
    probe_ratios: Vec<Vec<f64>>,
    /// Reusable encode buffer for the observation exchange.
    blob: Vec<u8>,
    /// `(original, compressed)` bytes of this rank's owned tables per
    /// completed window.
    window_traffic: Vec<(u64, u64)>,
}

impl ControllerState {
    fn new(
        window: usize,
        hysteresis: f64,
        eb_control: Option<dlrm_adaptive::PlateauEbControl>,
        overlapped: bool,
        profile: Option<&CodecProfile>,
        resolved: &ResolvedCompression,
        num_tables: usize,
    ) -> Self {
        let initial: Vec<CompressorKind> = (0..num_tables)
            .map(|t| {
                resolved
                    .kind_of(t)
                    .expect("validated: runtime adaptation requires a lossy setting")
            })
            .collect();
        let mut cfg = ControllerConfig::new(window, hysteresis).with_overlap(overlapped);
        if let Some(p) = profile {
            cfg = cfg.with_profile(p.clone());
        }
        if let Some(ebc) = eb_control {
            cfg = cfg.with_eb_control(ebc);
        }
        let candidates = cfg.candidates.iter().map(|&k| (k, k.build())).collect();
        Self {
            ctl: RuntimeController::new(cfg, initial),
            candidates,
            window,
            traffic_mark: vec![(0, 0); num_tables],
            share: ObservationShare::default(),
            codec_seconds_mark: 0.0,
            codec_bytes_mark: 0,
            probe_ratios: Vec::new(),
            blob: Vec::new(),
            window_traffic: Vec::new(),
        }
    }

    /// Encoded size of this rank's observation share — the lease capacity
    /// the control exchange requests (spares of this class are parked at
    /// warm-up so the steady state stays allocation-free).
    fn share_len(&self, owned_tables: usize) -> usize {
        ObservationShare::max_encoded_len(owned_tables, self.candidates.len())
    }

    /// True when `iter` starts a new window (a reselection point).
    fn is_boundary(&self, iter: usize) -> bool {
        iter > 0 && iter.is_multiple_of(self.window)
    }

    /// True when the iteration *before* `boundary_iter` should probe the
    /// candidate codecs on live payloads.
    fn wants_probe(&self, iter: usize, iterations: usize) -> bool {
        let next = iter + 1;
        next < iterations && self.is_boundary(next)
    }

    /// Record one bottleneck-tier wire charge.
    fn add_wire(&mut self, bytes: usize, seconds: f64) {
        self.share.wire_bytes += bytes as f64;
        self.share.wire_seconds += seconds;
    }

    /// Record one intra-tier wire charge (hierarchical topologies).
    fn add_intra(&mut self, bytes: usize, seconds: f64) {
        self.share.intra_bytes += bytes as f64;
        self.share.intra_seconds += seconds;
    }

    /// Compress every candidate codec over each owned table's live payload
    /// (this rank's own shard of the lookups) and record the achieved
    /// ratios — the runtime analogue of Algorithm 2's offline sampling. The
    /// compressed byte counts are deterministic; the probe's time is charged
    /// to the controller phase (per-codec analytic under a profile, measured
    /// otherwise).
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        ctx: &RankCtx,
        resolved: &ResolvedCompression,
        owned: &[usize],
        lookup_matrices: &[Matrix],
        world: usize,
        rank: usize,
        dim: usize,
        iter: usize,
        scratch: &mut CompressScratch,
        ledger: &mut TimingLedger,
        profile: Option<&CodecProfile>,
        device_compress: Option<f64>,
    ) {
        self.probe_ratios.clear();
        let t0 = Instant::now();
        let mut probed_bytes = 0u64;
        let mut profile_seconds = 0.0f64;
        // Probing every candidate over the full payload would make the
        // controller's overhead scale with the batch; a bounded row sample
        // estimates the ratios at constant cost (like the offline analysis,
        // which also samples).
        const PROBE_ROWS: usize = 32;
        for (local_idx, &t) in owned.iter().enumerate() {
            let matrix = &lookup_matrices[local_idx * world + rank];
            let sample = &matrix.as_slice()[..matrix.len().min(PROBE_ROWS * dim)];
            let eb = resolved.effective_eb(t, iter);
            let mut buf = ctx.take_buf(sample.len() * 12 + 708);
            let mut ratios = Vec::with_capacity(self.candidates.len());
            for (kind, comp) in &self.candidates {
                buf.clear();
                comp.compress_into(sample, dim, eb, scratch, &mut buf)
                    .expect("probe compression of finite training data cannot fail");
                ratios.push((sample.len() * 4) as f64 / buf.len().max(1) as f64);
                probed_bytes += (sample.len() * 4) as u64;
                if let Some(p) = profile {
                    profile_seconds += (sample.len() * 4) as f64 / p.throughput(*kind).0;
                }
            }
            drop(buf);
            self.probe_ratios.push(ratios);
        }
        charge_codec(
            ledger,
            phases::CONTROLLER,
            t0.elapsed().as_secs_f64(),
            probed_bytes,
            device_compress,
            profile.map(|_| profile_seconds),
        );
    }

    /// Close the window ending at `iter`: all-gather every rank's raw
    /// measurements, assemble the identical global [`WindowObservation`] on
    /// every rank, run the controller, and apply its revisions (codec swaps
    /// and the error-bound scale) to this rank's compression state. The
    /// control exchange rides pool leases and is charged to the controller
    /// phase.
    #[allow(clippy::too_many_arguments)]
    fn window_boundary(
        &mut self,
        ctx: &RankCtx,
        cost: &CostModel,
        iter: usize,
        owned: &[usize],
        fwd_traffic: &[(u64, u64)],
        resolved: &mut ResolvedCompression,
        tags: &mut [u32],
        ledger: &mut TimingLedger,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
        degraded: bool,
    ) {
        // Codec throughput over the window, from the ledger's compress
        // phases (deterministic whenever codec time is charged
        // analytically).
        let share = &mut self.share;
        share.codec_seconds = ledger.seconds(phases::FWD_COMPRESS)
            + ledger.seconds(phases::BWD_COMPRESS)
            - self.codec_seconds_mark;
        share.codec_bytes = (ledger.bytes(phases::FWD_COMPRESS)
            + ledger.bytes(phases::BWD_COMPRESS)
            - self.codec_bytes_mark) as f64;
        for (local_idx, &t) in owned.iter().enumerate() {
            let (orig, comp) = (
                fwd_traffic[t].0 - self.traffic_mark[t].0,
                fwd_traffic[t].1 - self.traffic_mark[t].1,
            );
            // A missing probe (no probe iteration ran yet) reports the
            // measured ratio for every candidate: selection then holds.
            let candidate_ratios = match self.probe_ratios.get_mut(local_idx) {
                Some(ratios) => std::mem::take(ratios),
                None => {
                    let fallback = if comp == 0 {
                        1.0
                    } else {
                        orig as f64 / comp as f64
                    };
                    vec![fallback; self.candidates.len()]
                }
            };
            share.tables.push(TableObservation {
                table_id: t,
                original_bytes: orig,
                compressed_bytes: comp,
                candidate_ratios,
            });
        }
        self.window_traffic
            .push(share.tables.iter().fold((0, 0), |(o, c), t| {
                (o + t.original_bytes, c + t.compressed_bytes)
            }));

        // ── Exchange: every rank sends its share to every rank over pool
        // leases (an all-gather on the metadata plane).
        self.blob.clear();
        share.encode_into(&mut self.blob);
        let stats = ctx.all_gather_pooled(&self.blob, self.share_len(owned.len()), send, recv);
        // Charged as extra *bytes*, not an extra collective: the share is
        // metadata-sized and rides the α already paid by the iteration's
        // forward all-to-all (exactly how the variable collective's size
        // records travel), so only the bandwidth term is charged here.
        ledger.add_time(
            phases::CONTROLLER,
            cost.bandwidth_time(stats.sent.max(stats.received)),
        );
        ledger.add_bytes(phases::CONTROLLER, (stats.sent + stats.received) as u64);

        // ── Assemble the global observation (identical on every rank: the
        // same shares arrive in the same rank order everywhere); draining
        // releases the leases back to their origin pools.
        let candidates = self.candidates.len();
        let shares = recv.drain(..).enumerate().map(|(src, chunk)| {
            ObservationShare::decode(&chunk, candidates).unwrap_or_else(|e| {
                panic!(
                    "rank {}: observation share from rank {src} at iteration {iter}: {e}",
                    ctx.rank()
                )
            })
        });
        let obs = WindowObservation::from_shares(iter, shares, cost.config().alltoall_bandwidth);

        // ── Decide and apply. A fault-degraded network drops the
        // hysteresis guard so the controller reacts within one window.
        let reselection = self.ctl.observe_degraded(&obs, degraded);
        for rev in &reselection.switches {
            resolved.set_compressor(rev.table_id, rev.to.build());
        }
        resolved.set_eb_scale(self.ctl.eb_scale());
        let tag = owned.first().map_or(0, |&t| resolved.tag(t));
        tags.fill(tag);

        // ── Roll the window state.
        self.traffic_mark.copy_from_slice(fwd_traffic);
        self.share = ObservationShare::default();
        self.codec_seconds_mark =
            ledger.seconds(phases::FWD_COMPRESS) + ledger.seconds(phases::BWD_COMPRESS);
        self.codec_bytes_mark =
            ledger.bytes(phases::FWD_COMPRESS) + ledger.bytes(phases::BWD_COMPRESS);
        self.probe_ratios.clear();
    }
}

/// Run the full training loop on one rank. Must be called from within a
/// [`SimCluster`](dlrm_comm::SimCluster) whose world matches
/// `setup.trainer.world`.
pub fn run_rank(ctx: &RankCtx, setup: &RankSetup) -> RankOutcome {
    let rank = ctx.rank();
    let world = ctx.world();
    assert_eq!(world, setup.trainer.world, "cluster/config world mismatch");
    let trainer = &setup.trainer;
    let dataset = &setup.dataset;
    let partition = &setup.partition;
    let num_tables = dataset.num_tables();
    let dim = dataset.embedding_dim;
    let base_cost = ctx.cost_model();
    // Drifting network and per-codec analytic throughputs: both optional,
    // both `None` on the bit-exact default path.
    let trace = trainer.bandwidth_trace.as_ref();
    let profile = trainer.codec_profile.as_ref();
    // Fault plan and the segment of global iterations this execution covers
    // (the full run unless the driver scheduled world events).
    let seg = &setup.segment;
    assert!(
        seg.start <= seg.end && seg.end <= trainer.iterations,
        "segment [{}, {}) out of range for {} iterations",
        seg.start,
        seg.end,
        trainer.iterations
    );
    let plan = trainer.fault.as_ref().map(|f| &f.plan);

    let mut resolved = ResolvedCompression::from_setting(&trainer.compression, num_tables);
    let overlapped = matches!(trainer.overlap, OverlapSetting::DoubleBuffered);
    // Closed-loop runtime controller (None under the bit-exact Static path).
    let mut controller: Option<ControllerState> = match &trainer.adaptive {
        AdaptiveSetting::Static => None,
        AdaptiveSetting::Runtime {
            window,
            hysteresis,
            eb_control,
        } => Some(ControllerState::new(
            *window,
            *hysteresis,
            *eb_control,
            overlapped,
            profile,
            &resolved,
            num_tables,
        )),
    };
    // Hierarchical topology: the two-level collective replaces both
    // all-to-alls and every network phase is charged by the tiered model.
    // `None` (flat) takes exactly the topology-less code paths.
    let hier: Option<(Topology, TieredCostModel)> = match &trainer.topology {
        TopologySetting::Flat => None,
        TopologySetting::Hierarchical(topo) => Some((*topo, topo.cost_model())),
    };
    let mut tiers = TierTotals::default();
    // Dense-gradient (Stage 8) compression state: codec + error-feedback
    // residual + scratch, all per-rank and reused every iteration.
    let mut dense: Option<GradCompressor> = match &trainer.dense_compression {
        DenseCompression::Off => None,
        DenseCompression::Compressed {
            codec,
            error_feedback,
        } => {
            // The classic comparison arm: combine suppressed even for kinds
            // that could, so owner shards always decode → reduce → re-encode.
            let mut state = GradCompressor::new(codec, *error_feedback);
            state.set_allow_combine(false);
            Some(state)
        }
        DenseCompression::Homomorphic {
            codec,
            error_feedback,
        } => Some(GradCompressor::new(codec, *error_feedback)),
    };
    let mut dense_traffic = (0u64, 0u64);
    let mut dense_saved_seconds = 0.0f64;
    let mut homo_combines = 0u64;
    let mut homo_combine_seconds = 0.0f64;
    let mut homo_saved_seconds = 0.0f64;
    // Capacity mark of the dense state (codec scratch + residual +
    // reduce staging), so its warm-up growth is charged to the ALLREDUCE
    // phase and steady-state growth would break the zero-allocation test.
    let mut dense_capacity_mark = 0u64;
    let owned = partition.tables_of(rank).to_vec();

    let model_config = DlrmConfig::from_dataset(dataset);
    let mut model = Dlrm::new_partial(model_config, trainer.seed, Some(&owned));

    let mut ledger = TimingLedger::new();
    let mut per_iteration = Vec::with_capacity(seg.end - seg.start);
    let mut fwd_traffic = vec![(0u64, 0u64); num_tables];
    let compute_scale = trainer.compute_time_scale;
    // The tag follows the compressor choice: constant under Static,
    // recomputed at reselection points under the runtime controller.
    let mut tags: Vec<u32> = (0..world)
        .map(|_| owned.first().map_or(0, |&t| resolved.tag(t)))
        .collect();
    // Combined backward push (None on the bit-exact per-sample default).
    let mut grad_push = GradPushState::from_setting(&trainer.grad_push);
    let push_cards: Vec<usize> = dataset.tables.iter().map(|t| t.cardinality).collect();

    // Reusable per-rank state: everything the steady-state loop touches.
    let mut scratch = PipelineScratch::new(world);
    let mut lookup_matrices: Vec<Matrix> = Vec::new(); // [local_idx * world + dst]
    let mut lookup_slots: Vec<Option<Matrix>> = Vec::new();
    let mut my_lookups: Vec<Matrix> = Vec::new();
    let mut grad_entries: Vec<(u32, u32, Matrix)> = Vec::new();

    // ── Segment entry: restore from the checkpoint this segment resumes
    // from (recovery after a rank loss, or re-sharding onto a resized
    // world). The shared batch stream was fast-forwarded to the segment's
    // start when it was built. Sections are keyed by table id, so the
    // restore works for any partition of the surviving world.
    let mut ckpt_codec: Option<CkptCodec> =
        seg.checkpoint.as_ref().map(|s| CkptCodec::new(&s.codec));
    let mut ckpt_flat: Vec<f32> = Vec::new();
    let mut checkpoints_taken = 0usize;
    let mut checkpoint_original_bytes = 0u64;
    let mut checkpoint_encoded_bytes = 0u64;
    let mut checkpoint_write_seconds = 0.0f64;
    let mut last_checkpoint: Option<RankCheckpoint> = None;
    if let Some(ckpt) = seg.restore.as_deref() {
        let mut codec = CkptCodec::new(&ckpt.codec);
        codec.decode_into(&ckpt.mlp, &mut ckpt_flat);
        model.load_flat_mlp_params(&ckpt_flat);
        for &t in &owned {
            let section = ckpt
                .table(t)
                .unwrap_or_else(|| panic!("checkpoint is missing table {t}"));
            codec.decode_into(&section.section, &mut ckpt_flat);
            let w = model.embedding_mut(t).weights_mut();
            assert_eq!(
                (section.rows, section.cols),
                (w.rows(), w.cols()),
                "table {t}: checkpoint shape mismatch"
            );
            w.as_mut_slice().copy_from_slice(&ckpt_flat);
        }
        if let Some(section) = ckpt.residual_for(rank) {
            if let Some(state) = dense.as_mut() {
                codec.decode_into(section, &mut ckpt_flat);
                state.load_residual(&ckpt_flat);
            }
        }
        // The restore read is charged at the store bandwidth; every rank
        // reads the full checkpoint's bytes (MLP + all shards stream past).
        let read_bandwidth = seg
            .checkpoint
            .as_ref()
            .map_or(CheckpointSpec::DEFAULT_WRITE_BANDWIDTH, |s| {
                s.write_bandwidth
            });
        ledger.add_time(phases::CHECKPOINT, ckpt.read_seconds(read_bandwidth));
        ledger.add_bytes(phases::CHECKPOINT, ckpt.encoded_bytes);
    }

    // Observability (`ObsSetting::On` only): the span ring and metrics
    // series are sized to the segment up front, so recording in the loop
    // never allocates. The clock domain follows the executor — modeled
    // (deterministic) timestamps under the sequential gate, wall timestamps
    // under free-running threads.
    let obs = trainer.obs.is_enabled().then(|| {
        ObsState::new(
            rank,
            trainer.executor.clock_domain(),
            seg.end - seg.start,
            num_tables,
        )
    });

    // Wall-clock phase accounting starts when the loop does: setup cost is
    // not training time.
    let mut clock = PhaseClock::new(ctx, &scratch, obs);

    // The loop visits `seg.end` too, but only for the checkpoint cadence: a
    // planned resize checkpoints the final state there, so the regrown
    // world has an exact restore point at the boundary.
    for iter in seg.start..=seg.end {
        let exit = iter == seg.end;
        let local = iter - seg.start;
        if !exit {
            if let Some(o) = clock.obs.as_mut() {
                o.begin_iteration(iter, &ledger, &clock.wall, &fwd_traffic, tiers.bytes);
            }
            // Warm-up is per segment: a fresh executor (and so fresh pools)
            // backs every segment, so the allocation amnesty restarts with
            // it.
            clock.counting = local >= WARMUP_ITERATIONS;
        }
        // ── Checkpoint cadence: snapshot the state this iteration *starts*
        // with (model replica, owned shards, EF residual), encoded through
        // the checkpoint codec, with the store write charged at its modeled
        // bandwidth.
        let due = |spec: &CheckpointSpec| {
            if exit {
                seg.checkpoint_at_end
            } else {
                iter.is_multiple_of(spec.every)
            }
        };
        if let Some(spec) = seg.checkpoint.as_ref().filter(|spec| due(spec)) {
            let codec = ckpt_codec.as_mut().expect("codec built with the spec");
            let part = take_checkpoint(
                iter,
                rank,
                &model,
                &owned,
                dense.as_ref(),
                codec,
                &mut ckpt_flat,
            );
            let write_s = part.write_seconds(spec.write_bandwidth);
            checkpoints_taken += 1;
            checkpoint_original_bytes += part.original_bytes();
            checkpoint_encoded_bytes += part.encoded_bytes();
            checkpoint_write_seconds += write_s;
            ledger.add_time(
                phases::CHECKPOINT,
                part.encode_seconds * compute_scale + write_s,
            );
            ledger.add_bytes(phases::CHECKPOINT, part.encoded_bytes());
            if let Some(o) = clock.obs.as_mut() {
                o.note_checkpoint(part.encoded_bytes(), write_s, &ledger);
            }
            last_checkpoint = Some(part);
            clock.close(phases::CHECKPOINT, &mut ledger, &scratch, 0);
        }
        if exit {
            break;
        }
        // The link (and therefore every network charge) in effect this
        // iteration: the static network without a trace — bit for bit the
        // pre-trace path — or whatever the trace says right now. An active
        // straggler window further divides the bandwidths by its multiplier
        // (the slowest rank's link bounds every bulk-synchronous
        // collective); factor 1.0 skips the rebuild entirely, keeping the
        // no-fault path bit-identical.
        let straggler = plan.map_or(1.0, |p| p.straggler_factor(iter));
        if let Some(o) = clock.obs.as_mut() {
            o.note_straggler(straggler, &ledger);
        }
        let cost = {
            let c = match trace {
                None => base_cost,
                Some(t) => t.cost_model_at(iter),
            };
            if straggler > 1.0 {
                c.config().degraded(straggler).cost_model()
            } else {
                c
            }
        };
        let hier_iter: Option<(Topology, TieredCostModel)> = match (&hier, trace) {
            (None, _) => None,
            (Some(pair), None) if straggler <= 1.0 => Some(*pair),
            (Some((topo, _)), t) => {
                let mut topo_iter = match t {
                    None => *topo,
                    Some(tr) => tr.topology_at(topo, iter),
                };
                if straggler > 1.0 {
                    // A straggler drags the node fabric: the inter tier is
                    // where a slow rank's link sits in the two-level model.
                    topo_iter = topo_iter.with_inter(topo_iter.inter().degraded(straggler));
                }
                Some((topo_iter, topo_iter.cost_model()))
            }
        };
        // ── Reselection point: close the previous window, exchange
        // observations, and apply the controller's revisions before any of
        // this iteration's compression runs (so every rank flips codecs on
        // the same iteration).
        if let Some(state) = controller.as_mut() {
            if state.is_boundary(iter) {
                state.window_boundary(
                    ctx,
                    &cost,
                    iter,
                    &owned,
                    &fwd_traffic,
                    &mut resolved,
                    &mut tags,
                    &mut ledger,
                    &mut scratch.send,
                    &mut scratch.recv,
                    plan.is_some_and(|p| p.degraded_at(iter)),
                );
                if let Some(o) = clock.obs.as_mut() {
                    if let Some(sel) = state.ctl.log().last() {
                        if sel.iteration == iter {
                            o.note_reselection(sel, &ledger);
                        }
                    }
                }
                clock.close(phases::CONTROLLER, &mut ledger, &scratch, 0);
            }
        }
        // One shared draw: the first rank to reach the iteration draws the
        // global batch, every rank works on its own shard of it.
        let global_batch = setup.batches.take(iter, trainer.global_batch);
        let shards = global_batch.shard(world);
        let my_shard = &shards[rank];

        // ── Stage 1: owners look up their tables for every destination
        // shard, into float storage recycled from the previous iteration.
        let t0 = Instant::now();
        for &t in &owned {
            for shard in &shards {
                let storage = scratch.take_floats(shard.batch_size() * dim);
                lookup_matrices.push(model.lookup_with_storage(t, &shard.sparse[t], storage));
            }
        }
        ledger.add_time(phases::LOOKUP, t0.elapsed().as_secs_f64() * compute_scale);
        clock.close(phases::LOOKUP, &mut ledger, &scratch, 0);

        // ── Stages 2–4: compress per-destination chunks, move them through
        // the all-to-all, decompress the lookups for my shard. Every
        // schedule produces bit-identical lookups — only the charged time
        // differs.
        let env = ExchangeEnv {
            resolved: &resolved,
            iter,
            dim,
            shards: &shards,
            cost: &cost,
            schedule: Schedule::new(overlapped, hier_iter.as_ref()),
            tags: &tags,
            profile,
            device_throughput: trainer.device_throughput,
        };
        lookup_slots.clear();
        lookup_slots.resize_with(num_tables, || None);
        exchange(
            &env,
            Direction::Forward {
                owned: &owned,
                lookups: &lookup_matrices,
                slots: &mut lookup_slots,
                traffic: &mut fwd_traffic,
            },
            &mut clock,
            &mut ledger,
            &mut scratch,
            controller.as_mut(),
            &mut tiers,
        );
        my_lookups.clear();
        my_lookups.extend(
            lookup_slots
                .drain(..)
                .enumerate()
                .map(|(t, m)| m.unwrap_or_else(|| panic!("no lookup received for table {t}"))),
        );

        // ── Stage 5: data-parallel forward, metrics, backward.
        let t0 = Instant::now();
        let cache = model.forward_dense(&my_shard.dense, &my_lookups);
        ledger.add_time(phases::MLP_FWD, t0.elapsed().as_secs_f64() * compute_scale);
        per_iteration.push(EvalMetrics::from_logits(&cache.logits, &my_shard.labels));
        if let Some(state) = controller.as_mut() {
            state.share.loss_sum += per_iteration.last().expect("just pushed").loss;
            state.share.loss_count += 1;
        }
        clock.close(phases::MLP_FWD, &mut ledger, &scratch, 0);

        let t0 = Instant::now();
        let grads = model.backward_dense(&cache, &my_shard.labels);
        ledger.add_time(phases::MLP_BWD, t0.elapsed().as_secs_f64() * compute_scale);
        clock.close(phases::MLP_BWD, &mut ledger, &scratch, 0);

        // ── Stages 6–7a: compress embedding gradients, send them home, and
        // decompress them on the owning rank — the backward mirror of
        // stages 2–4, double-buffered under the same overlap setting and
        // hierarchical under the same topology setting. The combined push
        // replaces the whole block (including the owner-side apply): dense
        // per-table accumulators added in the compressed domain — at node
        // leaders when hierarchical — so owners decode one stream per table.
        if let Some(push) = grad_push.as_mut() {
            push.run(
                ctx,
                partition,
                &mut model,
                &grads,
                &my_shard.sparse,
                &push_cards,
                dim,
                trainer.learning_rate,
                &cost,
                hier_iter.as_ref(),
                &mut scratch,
                &tags,
                &mut ledger,
                compute_scale,
            );
            clock.close(phases::EMB_UPDATE, &mut ledger, &scratch, 0);
        } else {
            exchange(
                &env,
                Direction::Backward {
                    partition,
                    grads: &grads.embedding_grads,
                    entries: &mut grad_entries,
                },
                &mut clock,
                &mut ledger,
                &mut scratch,
                controller.as_mut(),
                &mut tiers,
            );
        }

        let t0 = Instant::now();
        // Apply per table in source-rank order for determinism (tables are
        // independent, so cross-table order is irrelevant).
        grad_entries.sort_unstable_by_key(|&(t, s, _)| (t, s));
        for (table, src, grad) in grad_entries.drain(..) {
            model.apply_embedding_grad(
                table as usize,
                &shards[src as usize].sparse[table as usize],
                &grad,
                trainer.learning_rate,
            );
            scratch.put_floats(grad.into_vec());
        }
        ledger.add_time(
            phases::EMB_UPDATE,
            t0.elapsed().as_secs_f64() * compute_scale,
        );
        clock.close(phases::EMB_UPDATE, &mut ledger, &scratch, 0);

        // ── Stage 8: all-reduce MLP gradients and update the replicas.
        model.flatten_mlp_grads_into(&grads, &mut scratch.flat_grads);
        // Raw (uncompressed-schedule) charge on this cluster shape — the
        // baseline `dense_saved_seconds` compares against: the flat ring
        // formula, or the tiered charge of the same schedule's analytic
        // per-tier volume under a hierarchical topology.
        let raw_time = match &hier_iter {
            None => cost.allreduce_time(scratch.flat_grads.len() * 4, world),
            Some((topo, tiered)) => {
                let (ri, re) = allreduce_tier_bytes(scratch.flat_grads.len(), topo, rank);
                let (ti, te) = tiered.allreduce_tier_times(ri, re);
                ti + te
            }
        };
        let dense_extra_alloc = match dense.as_mut() {
            None if hier_iter.is_none() => {
                let ar_stats = ctx.all_reduce_sum(&mut scratch.flat_grads);
                ledger.add_time(phases::ALLREDUCE, raw_time);
                ledger.add_bytes(
                    phases::ALLREDUCE,
                    (ar_stats.sent + ar_stats.received) as u64,
                );
                0
            }
            None => {
                // Uncompressed on a hierarchical topology: the identical
                // rank-order schedule (bit-for-bit the flat result, through
                // the lossless codec), with wire bytes bucketed by tier and
                // the tiered charge replacing the flat ring formula.
                let (topo, tiered) = hier_iter.as_ref().expect("hierarchical topology");
                let stats = ctx.all_reduce_compressed_tiered(
                    &mut scratch.flat_grads,
                    &mut RawF32Codec,
                    &mut scratch.dense_reduce,
                    topo,
                );
                let (ti, te) = tiered.allreduce_tier_times(stats.intra, stats.inter);
                ledger.add_time(phases::ALLREDUCE, ti + te);
                ledger.add_bytes(
                    phases::ALLREDUCE,
                    (stats.stats.wire.sent + stats.stats.wire.received) as u64,
                );
                tiers.seconds.0 += ti;
                tiers.seconds.1 += te;
                tiers.bytes.0 += (stats.intra.sent + stats.intra.received) as u64;
                tiers.bytes.1 += (stats.inter.sent + stats.inter.received) as u64;
                let capacity = scratch.dense_reduce.capacity_bytes();
                let grew = capacity.saturating_sub(dense_capacity_mark);
                dense_capacity_mark = capacity;
                grew
            }
            Some(state) => {
                // Error feedback: re-inject what compression lost so far,
                // then let the compressed reduce-scatter + all-gather
                // rebuild the residual from the bytes it actually sends.
                state.compensate(&mut scratch.flat_grads);
                let (stats, hier_split) = match &hier_iter {
                    None => (
                        ctx.all_reduce_compressed(
                            &mut scratch.flat_grads,
                            state,
                            &mut scratch.dense_reduce,
                        ),
                        None,
                    ),
                    Some((topo, _)) => {
                        // A combine-capable codec takes the leader-combined
                        // hierarchical schedule: members bundle encoded
                        // shards to their node leader, which folds them in
                        // the compressed domain and sends one aggregate per
                        // node pair over the inter tier.
                        let tiered_stats = if ReduceCodec::is_homomorphic(state) {
                            ctx.all_reduce_homomorphic_hier(
                                &mut scratch.flat_grads,
                                state,
                                &mut scratch.dense_reduce,
                                topo,
                            )
                        } else {
                            ctx.all_reduce_compressed_tiered(
                                &mut scratch.flat_grads,
                                state,
                                &mut scratch.dense_reduce,
                                topo,
                            )
                        };
                        (
                            tiered_stats.stats,
                            Some((tiered_stats.intra, tiered_stats.inter)),
                        )
                    }
                };
                let mut ar_time = match (&hier_iter, &hier_split) {
                    (Some((_, tiered)), Some((intra, inter))) => {
                        let (ti, te) = tiered.allreduce_tier_times(*intra, *inter);
                        tiers.seconds.0 += ti;
                        tiers.seconds.1 += te;
                        tiers.bytes.0 += (intra.sent + intra.received) as u64;
                        tiers.bytes.1 += (inter.sent + inter.received) as u64;
                        ti + te
                    }
                    _ => cost.allreduce_wire_time(stats.wire.sent, stats.wire.received, world),
                };
                // Codec time: charged under a device-throughput override
                // (the same convention the a2a codecs use for the breakdown
                // experiments); without one the codec is treated as hidden
                // behind the reduction arithmetic. The charge follows the
                // work the collective actually performed — the stats carry
                // the raw f32 bytes pushed through encode and decode, so the
                // classic schedule charges V/Tc + ((P−1)·own + V)/Td exactly
                // as `estimate_allreduce_speedup` models it, while the
                // homomorphic schedule's eliminated owner-shard decodes
                // vanish from the bill and a compressed-domain combine term
                // (encoded bytes folded, at the codec's nominal combine
                // throughput) appears in its place under
                // [`phases::COMBINE`].
                let mut combine_seconds = 0.0f64;
                if let Some((tc, td)) = trainer.device_throughput {
                    ar_time += stats.encoded_bytes as f64 / tc + stats.decoded_bytes as f64 / td;
                    if stats.combines > 0 {
                        let tm = dlrm_grad::stats::nominal_combine_throughput(state.codec().kind())
                            .unwrap_or(td);
                        combine_seconds = stats.combined_bytes as f64 / tm;
                        // What the classic counterpart of this schedule
                        // would have charged: every element encoded once
                        // (V), plus P−1 own-shard contribution decodes, the
                        // own-shard round-trip and the gathered shards
                        // ((P−1)·own + V).
                        let volume = (scratch.flat_grads.len() * 4) as f64;
                        let own_shard =
                            (shard_range(scratch.flat_grads.len(), world, rank).len() * 4) as f64;
                        let classic_decoded = (world as f64 - 1.0) * own_shard + volume;
                        homo_saved_seconds += (volume - stats.encoded_bytes as f64) / tc
                            + (classic_decoded - stats.decoded_bytes as f64) / td
                            - combine_seconds;
                        homo_combine_seconds += combine_seconds;
                        ledger.add_time(phases::COMBINE, combine_seconds);
                        ledger.add_bytes(phases::COMBINE, stats.combined_bytes as u64);
                    }
                }
                homo_combines += stats.combines as u64;
                dense_saved_seconds += (raw_time - ar_time - combine_seconds).max(0.0);
                dense_traffic.0 += (stats.raw.sent + stats.raw.received) as u64;
                dense_traffic.1 += (stats.wire.sent + stats.wire.received) as u64;
                ledger.add_time(phases::ALLREDUCE, ar_time);
                ledger.add_bytes(
                    phases::ALLREDUCE,
                    (stats.wire.sent + stats.wire.received) as u64,
                );
                let capacity = state.capacity_bytes() + scratch.dense_reduce.capacity_bytes();
                let grew = capacity.saturating_sub(dense_capacity_mark);
                dense_capacity_mark = capacity;
                grew
            }
        };
        clock.close(phases::ALLREDUCE, &mut ledger, &scratch, dense_extra_alloc);
        let t0 = Instant::now();
        let scale = 1.0 / world as f32;
        for g in scratch.flat_grads.iter_mut() {
            *g *= scale;
        }
        model.apply_flat_mlp_grads(&scratch.flat_grads, trainer.learning_rate);
        ledger.add_time(
            phases::OPTIMIZER,
            t0.elapsed().as_secs_f64() * compute_scale,
        );
        clock.close(phases::OPTIMIZER, &mut ledger, &scratch, 0);

        // ── Probe the candidate codecs on live payloads when the next
        // iteration is a reselection point — and once at the end of warm-up,
        // so every candidate's scratch demand and the probe lease class
        // reach working size before the steady-state counters arm.
        if let Some(state) = controller.as_mut() {
            if state.wants_probe(iter, trainer.iterations) || local + 1 == WARMUP_ITERATIONS {
                state.probe(
                    ctx,
                    &resolved,
                    &owned,
                    &lookup_matrices,
                    world,
                    rank,
                    dim,
                    iter,
                    &mut scratch.compress,
                    &mut ledger,
                    profile,
                    trainer.device_throughput.map(|(c, _)| c),
                );
                clock.close(phases::CONTROLLER, &mut ledger, &scratch, 0);
            }
        }

        // Reclaim the float storage of this iteration's matrices for reuse.
        for m in lookup_matrices.drain(..) {
            scratch.put_floats(m.into_vec());
        }
        for m in my_lookups.drain(..) {
            scratch.put_floats(m.into_vec());
        }

        // End of warm-up: park one extra working set of leases in the pool.
        // Peers may still hold this iteration's leases when the next
        // iteration's takes happen (the pipeline only synchronises at the
        // collectives), and the in-flight amount is bounded by one
        // iteration's working set — so a second set makes the steady state
        // deterministically allocation-free regardless of thread timing.
        if local + 1 == WARMUP_ITERATIONS {
            // Spares come in three size classes matching the three kinds of
            // lease an iteration takes (payload chunks, 16-byte metadata
            // records, the all-reduce flat buffer). The pool's best-fit
            // policy keeps each class on its own buffers, and the extra sets
            // parked here exceed the worst-case in-flight amount (bounded by
            // one iteration's takes), so no racing take can ever land on an
            // undersized buffer and grow it.
            // Spares must cover the worst-case *request* of the compress
            // stages (their takes ask for the codec worst case, not the
            // learned filled size), and the all-reduce's shard leases: raw
            // f32 shards when dense compression is off, else the dense
            // codec's worst case for the largest shard. Shard and payload
            // sizes can sit close together (unlike the old full-vector
            // all-reduce), so best-fit could let one class steal the
            // other's spares and leave a later take to grow a too-small
            // buffer — the large spares are therefore parked at one unified
            // capacity serving both classes.
            let max_shard_batch = trainer.global_batch.div_ceil(world);
            let max_tables = (0..world)
                .map(|o| partition.tables_of(o).len())
                .max()
                .unwrap_or(0);
            let block_worst = max_shard_batch * dim * 12 + 708;
            let payload_cap = scratch
                .capacity_hints
                .iter()
                .flatten()
                .copied()
                .max()
                .unwrap_or(64)
                .max(CHUNK_HEADER_BYTES + 4 + owned.len().max(max_tables) * block_worst);
            let largest_shard = shard_range(scratch.flat_grads.len(), world, 0).len();
            let dense_cap = dense
                .as_ref()
                .map_or(0, |s| s.max_encoded_bytes(largest_shard));
            let big_cap = payload_cap.max((largest_shard * 4).max(64).max(dense_cap));
            let mut spares: Vec<PooledBuf> = Vec::with_capacity(9 * world);
            // 3·world for the two a2a compress stages plus in-flight chunks,
            // 4·world for the two shard-lease waves per all-reduce
            // (reduce-scatter, then all-gather) with peers holding a wave.
            spares.extend((0..7 * world).map(|_| ctx.take_buf(big_cap)));
            spares.extend((0..2 * world).map(|_| ctx.take_buf(64)));
            drop(spares);
            if let Some((topo, _)) = &hier {
                // The hierarchical collective takes bundle leases bigger
                // than any single chunk (a node-pair exchange bundle carries
                // ranks_per_node² framed chunks, a scatter bundle carries
                // world − ranks_per_node). Park a working set sized to the
                // largest bundle any phase can request, so fluctuating
                // compressed sizes never catch the pool short.
                let rpn = topo.ranks_per_node();
                let entry = HIER_ENTRY_HEADER_BYTES + payload_cap;
                let bundle_cap = (4 + rpn * rpn * entry)
                    .max(4 + world.saturating_sub(rpn) * entry)
                    .max(4 + rpn * entry);
                let spares: Vec<PooledBuf> =
                    (0..6 * world).map(|_| ctx.take_buf(bundle_cap)).collect();
                drop(spares);
            }
            if let Some(state) = &controller {
                // The window-boundary observation exchange takes one
                // share-sized lease per peer; park two sets so a boundary
                // racing peers' in-flight returns never allocates.
                let cap = state.share_len(owned.len()).max(64);
                let spares: Vec<PooledBuf> = (0..2 * world).map(|_| ctx.take_buf(cap)).collect();
                drop(spares);
            }
            // Parking is warm-up work; exclude it from the steady counters.
            clock.pool_mark = ctx.pool().stats();
        }

        if let Some(o) = clock.obs.as_mut() {
            o.end_iteration(
                iter,
                &ledger,
                &clock.wall,
                &fwd_traffic,
                tiers.bytes,
                dense.as_ref().map_or(0.0, GradCompressor::residual_norm),
            );
        }
    }

    let (obs_track, obs_metrics) = match clock.obs {
        None => (None, None),
        Some(o) => (Some(RankTrack::from(o.rec)), Some(o.metrics)),
    };
    // Combine-aware Equation-2 advice on the last post-all-reduce gradient:
    // every rank holds the identical vector (the all-gather distributed the
    // same reduced shards), so the advice is deterministic across ranks.
    let dense_advice = if scratch.flat_grads.is_empty() {
        None
    } else {
        let gstats = dlrm_grad::GradStats::from_slice(&scratch.flat_grads);
        advise_dense_allreduce(
            &dlrm_grad::dense_candidates(&gstats),
            base_cost.config().allreduce_bandwidth,
            world,
        )
    };

    RankOutcome {
        rank,
        per_iteration,
        ledger,
        wall: clock.wall,
        fwd_traffic,
        pool_stats: ctx.pool().stats(),
        steady_state_allocated_bytes: clock.steady_allocated,
        dense_traffic,
        dense_saved_seconds,
        dense_residual_norm: dense.as_ref().map_or(0.0, GradCompressor::residual_norm),
        homo_combines,
        homo_combine_seconds,
        homo_saved_seconds,
        grad_push_combines: grad_push.map_or(0, |p| p.combines),
        dense_advice,
        tier_bytes: tiers.bytes,
        tier_seconds: tiers.seconds,
        reselections: controller
            .as_ref()
            .map_or_else(Vec::new, |s| s.ctl.log().to_vec()),
        window_traffic: controller.map_or_else(Vec::new, |s| s.window_traffic),
        last_checkpoint,
        checkpoints_taken,
        checkpoint_original_bytes,
        checkpoint_encoded_bytes,
        checkpoint_write_seconds,
        obs_track,
        obs_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_compress::CompressorKind;

    #[test]
    fn block_encoding_roundtrips() {
        let raw = ResolvedCompression::Raw;
        let mut scratch = CompressScratch::new();
        let blocks: Vec<(u32, Vec<f32>)> = vec![
            (0, vec![1.0, -2.0, 3.5, 0.25]),
            (7, vec![]),
            (25, (0..64).map(|i| i as f32 * 0.5 - 3.0).collect()),
        ];
        let mut chunk = (blocks.len() as u32).to_le_bytes().to_vec();
        for (table, values) in &blocks {
            let len = write_block(
                &raw,
                *table as usize,
                0,
                values,
                4,
                &mut scratch,
                &mut chunk,
            );
            assert_eq!(len, values.len() * 4);
        }
        let decoded: Vec<(u32, Vec<f32>)> = block_slices(&chunk)
            .map(|(table, payload)| (table, raw.decompress(table as usize, payload)))
            .collect();
        assert_eq!(decoded, blocks);
        assert_eq!(block_slices(&0u32.to_le_bytes()).count(), 0);
    }

    #[test]
    fn resolved_compression_roundtrips_each_mode() {
        let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin() * 0.3).collect();
        let raw = ResolvedCompression::Raw;
        let out = raw.decompress(0, &raw.compress(0, 0, &data, 8));
        assert_eq!(out, data);

        let fp16 = ResolvedCompression::LowPrec(Precision::Fp16);
        let out = fp16.decompress(0, &fp16.compress(0, 0, &data, 8));
        for (a, b) in data.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-3);
        }

        let lossy = ResolvedCompression::from_setting(
            &CompressionSetting::fixed(0.01, CompressorKind::OursHybrid),
            3,
        );
        let out = lossy.decompress(2, &lossy.compress(2, 5, &data, 8));
        for (a, b) in data.iter().zip(out.iter()) {
            assert!((a - b).abs() <= 0.0101);
        }
    }

    #[test]
    fn charge_codec_uses_override_when_present() {
        let mut ledger = TimingLedger::new();
        charge_codec(&mut ledger, "x", 0.5, 1_000_000, None, None);
        assert!((ledger.seconds("x") - 0.5).abs() < 1e-12);
        let mut ledger = TimingLedger::new();
        charge_codec(&mut ledger, "x", 0.5, 1_000_000, Some(1e9), None);
        assert!((ledger.seconds("x") - 1e-3).abs() < 1e-12);
        // A per-codec analytic sum takes precedence over both.
        let mut ledger = TimingLedger::new();
        charge_codec(&mut ledger, "x", 0.5, 1_000_000, Some(1e9), Some(2e-3));
        assert!((ledger.seconds("x") - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn settle_chunk_counts_a_retried_chunks_growth_exactly_once() {
        use dlrm_comm::{NetworkConfig, SimCluster};
        SimCluster::new(1, NetworkConfig::infinite()).run(|ctx| {
            // Chunk that stays within its lease: no retry, nothing counted.
            let mut buf = ctx.take_chunk_buf(256);
            let cap = buf.capacity();
            buf.extend_from_slice(&[1u8; 64]);
            let before = ctx.pool().stats();
            let (same, grown) = settle_chunk(&ctx, buf, cap);
            assert_eq!(grown, 0);
            assert_eq!(ctx.pool().stats().since(&before).allocations, 0);
            drop(same);

            // Chunk that outgrows its lease mid-fill: the realloc is
            // reported once (as grown bytes), the retry lease is a separate,
            // pool-visible take — never a second count of the same realloc.
            let mut buf = ctx.take_chunk_buf(CHUNK_HEADER_BYTES);
            let cap_at_take = buf.capacity();
            buf.extend(std::iter::repeat_n(7u8, cap_at_take + 100));
            let len = buf.len();
            let old_capacity = buf.capacity();
            let before = ctx.pool().stats();
            let (retried, grown) = settle_chunk(&ctx, buf, cap_at_take);
            // The mid-fill growth is exactly the capacity delta of the
            // abandoned lease.
            assert_eq!(grown, (old_capacity - cap_at_take) as u64);
            // The retried chunk carries the same bytes.
            assert_eq!(retried.len(), len);
            assert!(retried[CHUNK_HEADER_BYTES..].iter().all(|&b| b == 7));
            // The pool recorded the retry take once (here as an allocation —
            // the grown lease was still held when the retry was taken; on
            // its next take the parked grown storage is reused instead).
            let delta = ctx.pool().stats().since(&before);
            assert_eq!(delta.allocations + delta.reuses, 1);
            drop(retried);
            // Steady state after the retry: re-leasing the same sizes is
            // allocation-free, so the warm-up growth was a one-time cost.
            let before = ctx.pool().stats();
            let again = ctx.take_chunk_buf(len);
            let cap = again.capacity();
            let (again, grown) = settle_chunk(&ctx, again, cap);
            assert_eq!(grown, 0);
            let delta = ctx.pool().stats().since(&before);
            assert_eq!(delta.allocations, 0, "retry double-counted: {delta:?}");
            drop(again);
        });
    }

    #[test]
    fn overlapped_a2a_charge_exposes_only_unhidden_wire() {
        use dlrm_comm::NetworkConfig;
        let cost = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 1e-4,
        }
        .cost_model();
        let mut ledger = TimingLedger::new();
        // 3 peers + self; codec 1ms per chunk, 1000 bytes per peer chunk
        // (1ms wire each at 1 MB/s).
        let codec = [1e-3, 1e-3, 1e-3, 1e-3];
        let sent = [0usize, 1000, 1000, 1000];
        let recv = [0usize, 1000, 1000, 1000];
        let timeline = charge_overlapped_a2a(&mut ledger, "a2a", &cost, &codec, &sent, &recv);
        // Wire total equals the bulk bottleneck time: 3000 bytes / 1 MB/s.
        assert!((timeline.wire_seconds() - 3e-3).abs() < 1e-12);
        // Pipeline: codec 4ms total; chunk 0 has no wire; makespan 2ms codec
        // + 3 wire hops... exactly the timeline's elapsed.
        let exposed = timeline.exposed_wire();
        assert!((ledger.seconds("a2a") - (1e-4 + exposed)).abs() < 1e-15);
        assert!(ledger.overlap_saved("a2a") > 0.0);
        assert!(
            (ledger.overlap_saved("a2a") - timeline.saved()).abs() < 1e-15,
            "hidden time must land in the overlap_saved counter"
        );
        assert_eq!(ledger.bytes("a2a"), 6000);
    }

    #[test]
    fn tags_distinguish_modes() {
        let raw = ResolvedCompression::Raw;
        let fp16 = ResolvedCompression::LowPrec(Precision::Fp16);
        let lossy = ResolvedCompression::from_setting(
            &CompressionSetting::fixed(0.01, CompressorKind::OursVector),
            1,
        );
        assert_ne!(raw.tag(0), fp16.tag(0));
        assert_ne!(fp16.tag(0), lossy.tag(0));
    }
}
