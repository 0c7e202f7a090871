//! Micro-benchmark of the dense model compute one rank runs per training
//! iteration, at the kaggle-like shape (dim 32, 26 tables, top MLP
//! 383→128→64→1) and rank batch 128: `Dlrm::forward_dense`,
//! `Dlrm::backward_dense`, and the interaction backward on its own (the
//! largest part of the backward pass).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dlrm_data::{presets, SyntheticCriteo};
use dlrm_model::{interaction, Dlrm, DlrmConfig};
use dlrm_tensor::Matrix;

/// Per-rank batch of the kaggle-like training workload (global 512, world 4).
const RANK_BATCH: usize = 128;

fn bench_model(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let model = Dlrm::new(DlrmConfig::from_dataset(&dataset), 1);
    let batch = SyntheticCriteo::new(dataset, 1).next_batch(RANK_BATCH);
    let lookups = model.lookup_all(&batch);
    let cache = model.forward_dense(&batch.dense, &lookups);

    let mut group = c.benchmark_group("model-kaggle-b128");
    group.bench_function("forward_dense", |b| {
        b.iter(|| model.forward_dense(black_box(&batch.dense), black_box(&lookups)))
    });
    group.bench_function("backward_dense", |b| {
        b.iter(|| model.backward_dense(black_box(&cache), black_box(&batch.labels)))
    });

    let dim = model.config().embedding_dim;
    let bottom = Matrix::from_fn(RANK_BATCH, dim, |r, c| ((r * dim + c) as f32 * 0.31).sin());
    let (_, inter_cache) = interaction::forward(&bottom, &lookups);
    let width = model.config().interaction_dim();
    let grad_out = Matrix::from_fn(RANK_BATCH, width, |r, c| {
        ((r * width + c) as f32 * 0.011).sin() * 1e-3
    });
    group.bench_function("interaction_backward", |b| {
        b.iter(|| interaction::backward(black_box(&inter_cache), black_box(&grad_out)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_model
}
criterion_main!(benches);
