//! Micro-benchmark of the synthetic data draw at the kaggle-like shape
//! (13 dense features, 26 Zipf tables): one `SyntheticCriteo::next_batch`
//! of the global training batch (512), building the generator (26 Zipf
//! CDFs), and one world-4 round of the shared `BatchStream` — one draw and
//! four takes, the per-iteration cost every training segment pays.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dlrm_data::{presets, BatchStream, SyntheticCriteo};

/// Global batch of the kaggle-like training workload.
const GLOBAL_BATCH: usize = 512;
/// Ranks sharing one stream.
const WORLD: usize = 4;

fn bench_data(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let mut group = c.benchmark_group("data-kaggle");
    let mut generator = SyntheticCriteo::new(dataset.clone(), 1);
    group.bench_function("next_batch_512", |b| {
        b.iter(|| generator.next_batch(black_box(GLOBAL_BATCH)))
    });
    group.bench_function("generator_new", |b| {
        b.iter(|| SyntheticCriteo::new(black_box(dataset.clone()), 1))
    });
    let stream = BatchStream::new(dataset.clone(), 1, 0, GLOBAL_BATCH, WORLD);
    let mut index = 0;
    group.bench_function("stream_round_world4", |b| {
        b.iter(|| {
            for _ in 0..WORLD {
                black_box(stream.take(index, GLOBAL_BATCH));
            }
            index += 1;
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_data
}
criterion_main!(benches);
