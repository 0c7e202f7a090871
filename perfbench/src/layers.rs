//! Per-layer probes: every layer timed from outside by calling its crate's
//! public functions on the workload's own inputs.
//!
//! One probe round is one training iteration (global batch 512, four rank
//! shards of 128) or one serving window (256 requests, four frontends of
//! 64): it draws the batch, runs the model on every shard, walks every
//! frontend's remote keys through a hot-row cache and the coalescer,
//! round-trips the payloads through each codec, runs the collectives at the
//! workload's payload sizes inside an executor, spawns an empty executor and
//! feeds the runtime controller one observation. Rounds alternate between
//! untraced and traced; the per-layer numbers come from the traced rounds,
//! and the ratio of traced to untraced round wall time is the tracing
//! overhead.

use crate::e2e::{self, E2e, Seeds, Workload, WORLD};
use crate::output::Report;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use dlrm_adaptive::{
    CompressionPlan, ControllerConfig, RuntimeController, TableObservation, WindowObservation,
};
use dlrm_bench::workloads::PAPER_BANDWIDTH;
use dlrm_comm::{phase, NetworkConfig, WirePolicy};
use dlrm_compress::{verify_error_bound, CompressScratch, Compressor, CompressorKind};
use dlrm_data::{MiniBatch, SyntheticCriteo};
use dlrm_exec::{ExecMode, Executor};
use dlrm_grad::{GradCodec, GradCodecKind, GradScratch};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_serve::fetch::write_payload_group;
use dlrm_serve::{BatchCoalescer, HotRowCache, ServeConfig};
use dlrm_tensor::Matrix;
use dlrm_trainer::TablePartition;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The codecs compared on every workload's payloads, with their span names.
const CODECS: [(CompressorKind, &str, &str); 4] = [
    (
        CompressorKind::OursHybrid,
        "compress.ours-hybrid.encode",
        "compress.ours-hybrid.decode",
    ),
    (
        CompressorKind::OursVector,
        "compress.ours-vector.encode",
        "compress.ours-vector.decode",
    ),
    (
        CompressorKind::FzLike,
        "compress.fz-like.encode",
        "compress.fz-like.decode",
    ),
    (
        CompressorKind::Fp16,
        "compress.fp16.encode",
        "compress.fp16.decode",
    ),
];
/// Learning rate of the model update probe (the trainer's).
const LEARNING_RATE: f32 = 0.05;
/// Untraced rounds run before measuring, so pools, caches and lazy state
/// have filled.
const WARMUP_ROUNDS: usize = 2;
/// Fewest measured rounds of each kind (traced, untraced).
const MIN_ROUNDS: usize = 3;
/// Timed repetitions of the collectives inside one executor run (one more
/// runs first to warm the buffer pools).
const COMM_REPS: usize = 3;
/// Controller observations timed per round.
const OBSERVE_REPS: usize = 200;

/// Payload bytes before and after one codec.
#[derive(Default, Clone, Copy)]
struct CodecTally {
    original: u64,
    compressed: u64,
}

/// What one probe round measured.
#[derive(Default)]
struct RoundOut {
    traced: bool,
    wall: f64,
    times: BTreeMap<&'static str, f64>,
    codecs: [CodecTally; 4],
    gets: u64,
    hits: u64,
    inserts: u64,
    fetch_raw: u64,
    fetch_wire: u64,
    /// Samples (training) or requests (serving) in the round.
    items: u64,
    alltoall_s: f64,
    allreduce_s: f64,
}

impl RoundOut {
    fn time(&self, name: &str) -> f64 {
        self.times.get(name).copied().unwrap_or(0.0)
    }
}

/// Long-lived state of the probes.
struct Probe {
    workload: Workload,
    dim: usize,
    tables: usize,
    model: Dlrm,
    gen: SyntheticCriteo,
    partition: TablePartition,
    /// Per-table codec and error bound the workload's own path uses:
    /// the plan (training) or the fetch codec (serving).
    table_codecs: Vec<(CompressorKind, f32)>,
    codecs: Vec<Box<dyn Compressor>>,
    plan_codecs: Vec<Box<dyn Compressor>>,
    scratch: CompressScratch,
    caches: Vec<HotRowCache>,
    coalescer: BatchCoalescer,
    fetch: GradCodec,
    fetch_eb: f32,
    gscratch: GradScratch,
    /// Per-destination chunk bytes of each all-to-all in one iteration or
    /// window.
    chunks: Vec<usize>,
    allreduce_len: usize,
    attempts: [u64; 4],
    fails: [u64; 4],
}

/// The serving fetch codec and its error bound.
fn fetch_codec(cfg: &ServeConfig) -> (GradCodec, f32) {
    let kind = cfg.fetch.resolved_kind();
    let eb = match kind {
        GradCodecKind::ErrorBounded { error_bound, .. } => error_bound,
        _ => panic!("serve-zipf fetches through an error-bounded codec"),
    };
    (kind.build(), eb)
}

impl Probe {
    /// Probes for `workload`; a training workload takes its codecs and
    /// error bounds from `plan`.
    fn new(workload: Workload, seeds: &Seeds, e2e: &E2e, plan: Option<&CompressionPlan>) -> Self {
        let dataset = e2e.dataset.clone();
        let (serve_dataset, serve_cfg) = e2e::serve_config(seeds, e2e::SERVE_REQUESTS);
        debug_assert_eq!(serve_dataset.name, dataset.name);
        let (fetch, fetch_eb) = fetch_codec(&serve_cfg);
        let tables = dataset.num_tables();
        let cards: Vec<usize> = dataset.tables.iter().map(|t| t.cardinality).collect();
        let (model_seed, gen_seed) = if workload.is_training() {
            (seeds.trainer, seeds.trainer.wrapping_add(1))
        } else {
            (serve_cfg.model_seed, seeds.requests)
        };
        let table_codecs: Vec<(CompressorKind, f32)> = match plan {
            Some(plan) if workload.is_training() => plan
                .tables
                .iter()
                .map(|t| (t.compressor, t.base_error_bound))
                .collect(),
            _ => vec![(CompressorKind::OursHybrid, fetch_eb); tables],
        };
        // All-to-all payload sizes of one iteration / window, from the
        // end-to-end report: per-destination chunks of the busiest rank
        // (training ledger) or of the average rank (serving totals).
        let chunks = match (&e2e.train, &e2e.serve) {
            (Some(r), _) => {
                let per_iter = |p: &str| r.breakdown.bytes(p) as usize / r.iterations / WORLD;
                vec![per_iter(phase::FWD_A2A), per_iter(phase::BWD_A2A)]
            }
            (None, Some((cfg, r))) => {
                let per_window = |b: u64| b as usize / cfg.num_windows() / (WORLD * WORLD);
                vec![
                    per_window(r.request_wire_bytes),
                    per_window(r.fetch_wire_bytes),
                ]
            }
            (None, None) => unreachable!("the end-to-end part made at least one timed call"),
        };
        let model = Dlrm::new(DlrmConfig::from_dataset(&dataset), model_seed);
        Probe {
            workload,
            dim: dataset.embedding_dim,
            tables,
            gen: SyntheticCriteo::new(dataset.clone(), gen_seed),
            partition: TablePartition::greedy(&cards, WORLD),
            plan_codecs: table_codecs.iter().map(|(k, _)| k.build()).collect(),
            table_codecs,
            codecs: CODECS.iter().map(|(k, _, _)| k.build()).collect(),
            scratch: CompressScratch::new(),
            caches: (0..WORLD)
                .map(|_| HotRowCache::new(serve_cfg.cache_rows, dataset.embedding_dim))
                .collect(),
            coalescer: BatchCoalescer::new(WORLD),
            fetch,
            fetch_eb,
            gscratch: GradScratch::new(),
            chunks,
            allreduce_len: model.mlp_param_count(),
            attempts: [0; 4],
            fails: [0; 4],
            model,
        }
    }

    /// One probe round; see the module docs.
    fn round(&mut self, index: u64, tracer: &mut Tracer, report: &mut Report) -> RoundOut {
        let started = Instant::now();
        let mut out = RoundOut {
            traced: tracer.on,
            ..Default::default()
        };
        tracer.begin(index);
        let times = &mut out.times;
        let (dim, tables) = (self.dim, self.tables);
        let items = self.workload.unit_items();
        out.items = items as u64;

        // data: every rank draws the whole batch; one draw is timed.
        let gen = &mut self.gen;
        let batch: MiniBatch = tracer.time(times, "data.next_batch", || gen.next_batch(items));
        let shards = batch.shard(WORLD);

        // model: lookups, forward, backward and update on every shard.
        let mut fwd_chunks: Vec<Vec<Matrix>> = Vec::with_capacity(WORLD);
        let mut bwd_chunks: Vec<Vec<Matrix>> = Vec::with_capacity(WORLD);
        for shard in &shards {
            let model = &mut self.model;
            let lookups: Vec<Matrix> = tracer.time(times, "model.lookup", || {
                (0..tables)
                    .map(|t| model.lookup(t, &shard.sparse[t]))
                    .collect()
            });
            let cache = tracer.time(times, "model.forward", || {
                model.forward_dense(&shard.dense, &lookups)
            });
            let grads = tracer.time(times, "model.backward", || {
                model.backward_dense(&cache, &shard.labels)
            });
            tracer.time(times, "model.update", || {
                model.apply_mlp_grads(&grads.bottom, &grads.top, LEARNING_RATE);
                for (t, g) in grads.embedding_grads.iter().enumerate() {
                    model.apply_embedding_grad(t, &shard.sparse[t], g, LEARNING_RATE);
                }
            });
            black_box(&cache.logits);
            fwd_chunks.push(lookups);
            bwd_chunks.push(grads.embedding_grads);
        }

        // serve: each frontend's remote keys through its hot-row cache, the
        // misses through the coalescer, the coalesced rows through the fetch
        // codec, and the decoded rows back into the cache.
        let mut fetched: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut keys: Vec<(u32, u32)> = Vec::new();
        let mut misses: Vec<(u32, u32)> = Vec::new();
        for frontend in 0..WORLD {
            keys.clear();
            misses.clear();
            for i in (frontend..items).step_by(WORLD) {
                for t in 0..tables {
                    if self.partition.owner_of(t) != frontend {
                        keys.push((t as u32, batch.sparse[t][i]));
                    }
                }
            }
            let cache = &mut self.caches[frontend];
            let hits = tracer.time(times, "serve.cache_get", || {
                let mut hits = 0u64;
                for &(t, row) in &keys {
                    if cache.get(t, row).is_some() {
                        hits += 1;
                    } else {
                        misses.push((t, row));
                    }
                }
                hits
            });
            out.gets += keys.len() as u64;
            out.hits += hits;
            let (coalescer, partition) = (&mut self.coalescer, &self.partition);
            tracer.time(times, "serve.coalesce", || {
                coalescer.clear();
                for &(t, row) in &misses {
                    coalescer.note(partition.owner_of(t as usize), t, row);
                }
                coalescer.finish();
            });
            // One payload group per (owner, table), as the engine frames it.
            let mut groups: Vec<(u32, Vec<u32>, Vec<f32>)> = Vec::new();
            for owner in 0..WORLD {
                for &(t, row) in self.coalescer.rows(owner) {
                    match groups.last_mut() {
                        Some((gt, rows, _)) if *gt == t => rows.push(row),
                        _ => groups.push((t, vec![row], Vec::new())),
                    }
                }
            }
            for (t, rows, raw) in &mut groups {
                self.model.embedding(*t as usize).lookup_into(rows, raw);
            }
            let (codec, gscratch) = (&self.fetch, &mut self.gscratch);
            let encoded: Vec<Vec<u8>> = tracer.time(times, "serve.fetch_encode", || {
                groups
                    .iter()
                    .map(|(_, _, raw)| {
                        let mut enc = Vec::new();
                        codec.encode_into(raw, gscratch, &mut enc);
                        enc
                    })
                    .collect()
            });
            let decoded: Vec<Result<Vec<f32>, _>> =
                tracer.time(times, "serve.fetch_decode", || {
                    encoded
                        .iter()
                        .map(|enc| {
                            let mut dec = Vec::new();
                            codec.decode_into(enc, gscratch, &mut dec).map(|()| dec)
                        })
                        .collect()
                });
            let mut wire = Vec::new();
            for ((t, rows, raw), (enc, dec)) in groups.iter().zip(encoded.iter().zip(&decoded)) {
                let ok = dec
                    .as_ref()
                    .is_ok_and(|d| verify_error_bound(raw, d, self.fetch_eb).is_none());
                report.count(ok);
                write_payload_group(&mut wire, *t, rows.len() as u32, enc);
                out.fetch_raw += (raw.len() * 4) as u64;
            }
            out.fetch_wire += 4 + wire.len() as u64;
            let inserted = tracer.time(times, "serve.cache_insert", || {
                let mut n = 0u64;
                for ((t, rows, raw), dec) in groups.iter().zip(&decoded) {
                    let values = dec.as_ref().map_or(raw.as_slice(), Vec::as_slice);
                    for (k, &row) in rows.iter().enumerate() {
                        cache.insert(*t, row, &values[k * dim..(k + 1) * dim]);
                        n += 1;
                    }
                }
                n
            });
            out.inserts += inserted;
            if !self.workload.is_training() {
                fetched.extend(groups.into_iter().map(|(t, _, raw)| (t as usize, raw)));
            }
        }

        // compress: every codec on the workload's own payloads — each
        // table's lookups for the whole global batch at the plan's error
        // bound (training), the fetched row streams at the fetch error
        // bound (serving).
        let payloads: Vec<(usize, Vec<f32>, f32)> = if self.workload.is_training() {
            (0..tables)
                .map(|t| {
                    let m = self.model.lookup(t, &batch.sparse[t]);
                    (t, m.as_slice().to_vec(), self.table_codecs[t].1)
                })
                .collect()
        } else {
            fetched
                .into_iter()
                .map(|(t, raw)| (t, raw, self.fetch_eb))
                .collect()
        };
        let mut table_bytes = vec![[CodecTally::default(); 4]; tables];
        for (c, (_, enc_name, dec_name)) in CODECS.iter().enumerate() {
            let (codec, scratch) = (&self.codecs[c], &mut self.scratch);
            let encoded: Vec<Result<Vec<u8>, _>> = tracer.time(times, enc_name, || {
                payloads
                    .iter()
                    .map(|(_, p, eb)| {
                        let mut enc = Vec::new();
                        codec
                            .compress_into(p, dim, *eb, scratch, &mut enc)
                            .map(|()| enc)
                    })
                    .collect()
            });
            let decoded: Vec<Option<Result<Vec<f32>, _>>> = tracer.time(times, dec_name, || {
                encoded
                    .iter()
                    .map(|enc| {
                        enc.as_ref().ok().map(|enc| {
                            let mut dec = Vec::new();
                            codec.decompress_into(enc, scratch, &mut dec).map(|()| dec)
                        })
                    })
                    .collect()
            });
            for (((t, p, eb), enc), dec) in payloads.iter().zip(&encoded).zip(&decoded) {
                let ok = matches!(dec, Some(Ok(d)) if verify_error_bound(p, d, *eb).is_none());
                self.attempts[c] += 1;
                self.fails[c] += u64::from(!ok);
                report.count(ok);
                let tally = &mut table_bytes[*t][c];
                tally.original += (p.len() * 4) as u64;
                tally.compressed += enc.as_ref().map_or(0, |e| e.len() as u64);
            }
            for tally in table_bytes.iter() {
                out.codecs[c].original += tally[c].original;
                out.codecs[c].compressed += tally[c].compressed;
            }
        }

        // The workload's own codec work per iteration (training): every
        // forward lookup chunk and backward gradient chunk through the
        // plan's codec for its table.
        if self.workload.is_training() {
            let chunks: Vec<(usize, &[f32])> = fwd_chunks
                .iter()
                .chain(&bwd_chunks)
                .flat_map(|per_table| per_table.iter().enumerate())
                .map(|(t, m)| (t, m.as_slice()))
                .collect();
            let (codecs, table_codecs, scratch) =
                (&self.plan_codecs, &self.table_codecs, &mut self.scratch);
            let encoded: Vec<Result<Vec<u8>, _>> =
                tracer.time(times, "compress.plan.encode", || {
                    chunks
                        .iter()
                        .map(|&(t, data)| {
                            let mut enc = Vec::new();
                            codecs[t]
                                .compress_into(data, dim, table_codecs[t].1, scratch, &mut enc)
                                .map(|()| enc)
                        })
                        .collect()
                });
            let decoded: Vec<Option<Result<Vec<f32>, _>>> =
                tracer.time(times, "compress.plan.decode", || {
                    chunks
                        .iter()
                        .zip(&encoded)
                        .map(|(&(t, _), enc)| {
                            enc.as_ref().ok().map(|enc| {
                                let mut dec = Vec::new();
                                codecs[t]
                                    .decompress_into(enc, scratch, &mut dec)
                                    .map(|()| dec)
                            })
                        })
                        .collect()
                });
            for (&(t, data), dec) in chunks.iter().zip(&decoded) {
                let ok = matches!(dec, Some(Ok(d))
                    if verify_error_bound(data, d, table_codecs[t].1).is_none());
                report.count(ok);
            }
        }

        // comm: the iteration's all-to-alls and (training) the MLP
        // all-reduce, timed on rank 0 inside an executor run.
        let (chunk_sizes, allreduce_len) = (self.chunks.clone(), self.allreduce_len);
        let (a2a, ar) = tracer.time(times, "comm.collectives", || {
            collectives(chunk_sizes, allreduce_len)
        });
        out.alltoall_s = a2a;
        out.allreduce_s = ar;

        // exec: spawn and join an empty world.
        tracer.time(times, "exec.spawn_join", || {
            Executor::new(WORLD, NetworkConfig::paper_figure11())
                .with_mode(ExecMode::Sequential)
                .with_wire(WirePolicy::Instant)
                .run(|_ctx| ())
        });

        // adaptive: one window observation built from this round's payloads.
        let initial: Vec<CompressorKind> = self.table_codecs.iter().map(|(k, _)| *k).collect();
        let observation = WindowObservation {
            iteration: index as usize,
            effective_bandwidth: PAPER_BANDWIDTH,
            intra_bandwidth: None,
            mean_loss: 0.69,
            measured_compress_throughput: out.codecs[0].original as f64
                / times.get(CODECS[0].1).copied().unwrap_or(0.0).max(1e-9),
            tables: table_bytes
                .iter()
                .enumerate()
                .map(|(t, tallies)| {
                    let current = CODECS
                        .iter()
                        .position(|(k, _, _)| *k == initial[t])
                        .unwrap_or(0);
                    TableObservation {
                        table_id: t,
                        original_bytes: tallies[current].original,
                        compressed_bytes: tallies[current].compressed,
                        candidate_ratios: tallies
                            .iter()
                            .map(|x| x.original.max(1) as f64 / x.compressed.max(1) as f64)
                            .collect(),
                    }
                })
                .collect(),
        };
        let config = ControllerConfig::new(1, 0.05)
            .with_candidates(CODECS.iter().map(|(k, _, _)| *k).collect())
            .with_overlap(true);
        let mut controller = RuntimeController::new(config, initial);
        tracer.time(times, "adaptive.observe", || {
            for _ in 0..OBSERVE_REPS {
                black_box(controller.observe(black_box(&observation)));
            }
        });

        tracer.end();
        out.wall = started.elapsed().as_secs_f64();
        out
    }
}

/// Time the all-to-alls (one per entry of `chunks`, that many bytes per
/// destination) and an all-reduce of `allreduce_len` floats on rank 0 of a
/// sequential world. Returns mean seconds per repetition.
fn collectives(chunks: Vec<usize>, allreduce_len: usize) -> (f64, f64) {
    let run = Executor::new(WORLD, NetworkConfig::paper_figure11())
        .with_mode(ExecMode::Sequential)
        .with_wire(WirePolicy::Instant)
        .run(move |ctx| {
            let mut send = Vec::with_capacity(WORLD);
            let mut recv = Vec::with_capacity(WORLD);
            let mut grads = vec![0.5f32; allreduce_len];
            let (mut a2a, mut ar) = (0.0, 0.0);
            for rep in 0..=COMM_REPS {
                let mut rep_a2a = 0.0;
                for &bytes in &chunks {
                    for _ in 0..WORLD {
                        let mut buf = ctx.take_buf(bytes);
                        buf.resize(bytes, 0x5a);
                        send.push(buf);
                    }
                    ctx.barrier();
                    let t = Instant::now();
                    ctx.all_to_all_pooled(&mut send, &mut recv);
                    ctx.barrier();
                    rep_a2a += t.elapsed().as_secs_f64();
                    recv.clear();
                }
                grads.fill(0.5);
                ctx.barrier();
                let t = Instant::now();
                ctx.all_reduce_sum(&mut grads);
                ctx.barrier();
                let rep_ar = t.elapsed().as_secs_f64();
                if rep > 0 {
                    a2a += rep_a2a;
                    ar += rep_ar;
                }
            }
            (a2a / COMM_REPS as f64, ar / COMM_REPS as f64)
        });
    run.results[0]
}

/// The plan whose codecs and error bounds the probes use, with the plan
/// build times and the number of builds whose fingerprint differs from the
/// first build's.
fn plans(
    e2e: &E2e,
    seeds: &Seeds,
    count: usize,
    tracer: &mut Tracer,
) -> (CompressionPlan, Vec<f64>, usize) {
    let built: Vec<e2e::PlanBuild>;
    let builds = if e2e.plans.is_empty() {
        built = (0..count)
            .map(|i| {
                e2e::traced_call(tracer, i as u64, "adaptive.build_plan", || {
                    e2e::build_plan(&e2e.dataset, seeds.plan)
                })
                .0
            })
            .collect();
        &built
    } else {
        &e2e.plans
    };
    let first = builds[0].fingerprint;
    for b in builds {
        println!(
            "plan build: fingerprint {:016x} in {:.3} s",
            b.fingerprint, b.seconds
        );
    }
    (
        builds[0].plan.clone(),
        builds.iter().map(|b| b.seconds).collect(),
        builds.iter().filter(|b| b.fingerprint != first).count(),
    )
}

/// Untimed codec round trips on the workload's payloads, for the
/// end-to-end run's failure count.
pub fn check_codecs(workload: Workload, seeds: &Seeds, e2e: &E2e, report: &mut Report) {
    let mut tracer = Tracer::new(workload.id(), false);
    let plan = workload
        .is_training()
        .then(|| plans(e2e, seeds, 1, &mut tracer).0);
    let mut probe = Probe::new(workload, seeds, e2e, plan.as_ref());
    probe.round(0, &mut tracer, report);
    print_fail_shares(&probe);
}

fn print_fail_shares(probe: &Probe) {
    for (c, (kind, _, _)) in CODECS.iter().enumerate() {
        println!(
            "codec {}: {} of {} round trips failed",
            kind.label(),
            probe.fails[c],
            probe.attempts[c]
        );
    }
}

/// The traced per-layer run; writes the Chrome trace to `trace_path`.
pub fn run(
    workload: Workload,
    seeds: &Seeds,
    e2e: &E2e,
    budget: Duration,
    trace_path: &Path,
    mut tracer: Tracer,
    report: &mut Report,
) {
    let (plan, plan_s, plan_flips) = plans(e2e, seeds, e2e::SETUP_REPEATS, &mut tracer);
    let mut probe = Probe::new(workload, seeds, e2e, Some(&plan));
    let mut index = 0u64;
    tracer.on = false;
    for _ in 0..WARMUP_ROUNDS {
        probe.round(index, &mut tracer, report);
        index += 1;
    }
    let start = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    loop {
        let spent = start.elapsed();
        let enough = rounds.len() >= 2 * MIN_ROUNDS && spent + spent / rounds.len() as u32 > budget;
        if enough && rounds.len().is_multiple_of(2) {
            break;
        }
        tracer.on = rounds.len() % 2 == 1;
        // Every run makes the warm-up rounds and the first `2 * MIN_ROUNDS`
        // measured ones; probes count as operations only on those.
        report.counting = rounds.len() < 2 * MIN_ROUNDS;
        rounds.push(probe.round(index, &mut tracer, report));
        index += 1;
    }
    let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&RoundOut> = rounds.iter().filter(|r| !r.traced).collect();
    println!(
        "probe rounds: {} traced, {} untraced, {} warm-up",
        traced.len(),
        untraced.len(),
        WARMUP_ROUNDS
    );
    let samples =
        |f: &dyn Fn(&RoundOut) -> f64| -> Vec<f64> { traced.iter().map(|r| f(r)).collect() };
    // Median over the traced rounds, with its repeat statistics printed.
    let per = |label: &str, f: &dyn Fn(&RoundOut) -> f64| -> f64 {
        let s = summarize(&samples(f), label.ends_with("_mbps"));
        println!("timing {label}: {s}");
        s.median
    };
    let sum = |f: &dyn Fn(&RoundOut) -> f64| -> f64 { rounds.iter().map(f).sum() };
    let w = WORLD as f64;

    // data
    let next_batch_ms = per("data.next_batch_ms", &|r| 1e3 * r.time("data.next_batch"));
    report.metric("data.next_batch_ms", next_batch_ms, "ms");
    report.metric("data.draws_per_iter", w, "count");
    // model (per rank batch)
    let model_ms = |name: &'static str| per(&format!("{name}_ms"), &|r| 1e3 * r.time(name) / w);
    let lookup_ms = model_ms("model.lookup");
    let forward_ms = model_ms("model.forward");
    let backward_ms = model_ms("model.backward");
    let update_ms = model_ms("model.update");
    report.metric("model.lookup_ms", lookup_ms, "ms");
    report.metric("model.forward_ms", forward_ms, "ms");
    report.metric("model.backward_ms", backward_ms, "ms");
    report.metric("model.update_ms", update_ms, "ms");
    // compress
    for (c, (kind, enc, dec)) in CODECS.iter().enumerate() {
        let label = kind.label();
        let mbps = |name: &str| {
            per(&format!("{name}_mbps"), &|r| {
                r.codecs[c].original as f64 / r.time(name).max(1e-12) / 1e6
            })
        };
        let (encode, decode) = (mbps(enc), mbps(dec));
        let original = sum(&|r| r.codecs[c].original as f64);
        let compressed = sum(&|r| r.codecs[c].compressed as f64);
        report.metric(format!("compress.{label}.encode_mbps"), encode, "MB/s");
        report.metric(format!("compress.{label}.decode_mbps"), decode, "MB/s");
        report.metric(
            format!("compress.{label}.ratio"),
            original / compressed.max(1.0),
            "ratio",
        );
        report.metric(
            format!("compress.{label}.fail_share"),
            probe.fails[c] as f64 / probe.attempts[c].max(1) as f64,
            "share",
        );
    }
    print_fail_shares(&probe);
    let (enc_name, dec_name) = if workload.is_training() {
        ("compress.plan.encode", "compress.plan.decode")
    } else {
        ("serve.fetch_encode", "serve.fetch_decode")
    };
    let encode_ms = per(enc_name, &|r| 1e3 * r.time(enc_name));
    let decode_ms = per(dec_name, &|r| 1e3 * r.time(dec_name));
    report.metric("compress.encode_ms_per_iter", encode_ms, "ms");
    report.metric("compress.decode_ms_per_iter", decode_ms, "ms");
    // comm
    let alltoall_ms = per("comm.alltoall_ms", &|r| 1e3 * r.alltoall_s);
    let allreduce_ms = per("comm.allreduce_ms", &|r| 1e3 * r.allreduce_s);
    report.metric("comm.alltoall_ms", alltoall_ms, "ms");
    report.metric("comm.allreduce_ms", allreduce_ms, "ms");
    let wall_ms = e2e.wall_ms_per_unit();
    let (bytes_per_unit, gate_wait_share) = match (&e2e.train, &e2e.serve) {
        (Some(r), _) => {
            let wall = &r.wall_phase_seconds;
            println!(
                "trainer wall_phase_seconds (wall time including serial-gate waits, \
                 max over ranks, {} iterations):",
                r.iterations
            );
            for (name, s) in wall.phases() {
                println!(
                    "  {name:<22} {:>9.3} ms/iter",
                    1e3 * s / r.iterations as f64
                );
            }
            let a2a = wall.seconds(phase::FWD_A2A) + wall.seconds(phase::BWD_A2A);
            (
                e2e::train_wire_bytes(r) as f64 / r.iterations as f64,
                a2a / wall.total_seconds(),
            )
        }
        (None, Some((cfg, r))) => {
            println!(
                "serving report: hit_rate {:.4} fetch_ratio {:.4} fetch wire B/req {:.2} \
                 modeled p50 {:.4} ms p99 {:.4} ms",
                r.hit_rate,
                r.fetch_ratio,
                r.fetch_wire_bytes as f64 / r.requests as f64,
                r.p50_ms,
                r.p99_ms
            );
            (
                (r.fetch_wire_bytes + r.request_wire_bytes) as f64 / cfg.num_windows() as f64,
                alltoall_ms / wall_ms,
            )
        }
        (None, None) => unreachable!("the end-to-end part made at least one timed call"),
    };
    report.metric("comm.bytes_per_iter", bytes_per_unit, "B");
    // exec
    let spawn_ms = per("exec.spawn_join_ms", &|r| 1e3 * r.time("exec.spawn_join"));
    report.metric("exec.spawn_join_ms", spawn_ms, "ms");
    report.metric("exec.gate_wait_share", gate_wait_share, "share");
    // adaptive
    println!("adaptive.plan_s: {}", summarize(&plan_s, false));
    report.metric("adaptive.plan_s", median(&plan_s), "s");
    report.metric(
        "adaptive.observe_us",
        per("adaptive.observe_us", &|r| {
            1e6 * r.time("adaptive.observe") / OBSERVE_REPS as f64
        }),
        "us",
    );
    report.metric("adaptive.plan_flips", plan_flips as f64, "count");
    // serve
    let get_ns = per("serve.cache_get_ns", &|r| {
        1e9 * r.time("serve.cache_get") / r.gets.max(1) as f64
    });
    let insert_ns = per("serve.cache_insert_ns", &|r| {
        1e9 * r.time("serve.cache_insert") / r.inserts.max(1) as f64
    });
    let coalesce_us = per("serve.coalesce_us_per_window", &|r| {
        1e6 * r.time("serve.coalesce")
    });
    report.metric("serve.cache_get_ns", get_ns, "ns");
    report.metric("serve.cache_insert_ns", insert_ns, "ns");
    report.metric(
        "serve.hit_rate",
        sum(&|r| r.hits as f64) / sum(&|r| r.gets as f64).max(1.0),
        "share",
    );
    report.metric("serve.coalesce_us_per_window", coalesce_us, "us");
    report.metric(
        "serve.fetch_ratio",
        sum(&|r| r.fetch_raw as f64) / sum(&|r| r.fetch_wire as f64).max(1.0),
        "ratio",
    );
    report.metric(
        "serve.fetch_wire_bytes_per_req",
        sum(&|r| r.fetch_wire as f64) / sum(&|r| r.items as f64).max(1.0),
        "B",
    );

    // Attribution: the busy time of every layer on the critical path of one
    // iteration or window (the sequential gate serialises all ranks, so
    // rank busy times add up) against the measured wall time per unit.
    let ms = |name: &'static str| median(&samples(&|r| 1e3 * r.time(name)));
    let mut busy: Vec<(&str, f64)> = vec![
        ("data (every rank draws)", w * next_batch_ms),
        ("model.lookup", ms("model.lookup")),
        ("model.forward", ms("model.forward")),
    ];
    if workload.is_training() {
        busy.push(("model.backward", ms("model.backward")));
        busy.push(("model.update", ms("model.update")));
        if workload == Workload::TrainAdaptive {
            busy.push(("compress (plan codecs)", encode_ms + decode_ms));
        }
        busy.push(("comm.alltoall", alltoall_ms));
        busy.push(("comm.allreduce", allreduce_ms));
    } else {
        busy.push((
            "serve.cache",
            ms("serve.cache_get") + ms("serve.cache_insert"),
        ));
        busy.push(("serve.coalesce", ms("serve.coalesce")));
        busy.push(("compress (fetch codec)", encode_ms + decode_ms));
        busy.push(("comm.alltoall", alltoall_ms));
    }
    let unit = if workload.is_training() {
        "iteration"
    } else {
        "window"
    };
    println!("attribution per {unit}: wall {wall_ms:.3} ms");
    let mut total = 0.0;
    for (name, b) in &busy {
        println!(
            "  {name:<26} {b:>9.3} ms  {:>6.2}% of wall",
            100.0 * b / wall_ms
        );
        total += b;
    }
    let unattributed = 1.0 - total / wall_ms;
    println!(
        "  {:<26} {total:>9.3} ms  unattributed {:.2}% of wall",
        "sum of layers",
        100.0 * unattributed
    );
    report.metric("trainer.unattributed_share", unattributed, "share");

    // obs
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall).collect();
    let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
    println!("round wall traced s: {}", summarize(&traced_wall, false));
    println!(
        "round wall untraced s: {}",
        summarize(&untraced_wall, false)
    );
    report.metric(
        "obs.tracing_overhead_share",
        median(&traced_wall) / median(&untraced_wall) - 1.0,
        "share",
    );

    if let Some((records, json)) = tracer.into_chrome_trace() {
        let written = trace_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(trace_path, json));
        match &written {
            Ok(()) => println!("trace: {records} spans written to {}", trace_path.display()),
            Err(e) => println!("trace: writing {} failed: {e}", trace_path.display()),
        }
        report.check(written.is_ok(), "Chrome trace written");
    }
}
