//! One batch stream shared by every rank of an executor run.
//!
//! Hybrid-parallel training gives every rank a shard of the *same* global
//! batch, and every serving frontend walks its slice of the *same* request
//! window. [`BatchStream`] draws each of those batches exactly once from a
//! single [`SyntheticCriteo`] and hands the same [`Arc<MiniBatch>`] to every
//! rank that asks for it, so a run of W ranks pays for one draw per batch
//! rather than W.
//!
//! Batches are drawn in index order by whichever rank asks first; an entry
//! is released once its last taker has it, so only the batches between the
//! slowest and the fastest rank stay live. The lock is held for the draw
//! alone — never across a fabric call — so a rank waiting on a peer never
//! holds it, under serialized and free-running executors alike.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::batch::MiniBatch;
use crate::config::DatasetConfig;
use crate::generator::SyntheticCriteo;

/// A deterministic batch stream shared by `takers` consumers.
///
/// Batch `index` is the generator's `index`-th batch, the fast-forwarded
/// ones included, so every taker sees bit-identical contents no matter
/// which of them drew it.
#[derive(Debug)]
pub struct BatchStream {
    takers: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    generator: SyntheticCriteo,
    /// Stream index of `live.front()`.
    first: usize,
    /// Drawn batches some taker has not yet taken, in index order.
    live: VecDeque<Entry>,
}

#[derive(Debug)]
struct Entry {
    batch: Arc<MiniBatch>,
    /// Takers still to come.
    left: usize,
}

impl BatchStream {
    /// A stream over `SyntheticCriteo::new(config, seed)` whose first batch
    /// is index `start`: the generator draws and discards `start` batches of
    /// `skip_batch_size` samples up front, exactly as a consumer that had
    /// taken them would have. Each batch is released after `takers` takes.
    ///
    /// # Panics
    /// Panics if `takers == 0`, if `start > 0` with `skip_batch_size == 0`,
    /// or if the dataset configuration is invalid.
    pub fn new(
        config: DatasetConfig,
        seed: u64,
        start: usize,
        skip_batch_size: usize,
        takers: usize,
    ) -> Self {
        assert!(takers > 0, "a batch stream needs at least one taker");
        let mut generator = SyntheticCriteo::new(config, seed);
        for _ in 0..start {
            generator.next_batch(skip_batch_size);
        }
        Self {
            takers,
            inner: Mutex::new(Inner {
                generator,
                first: start,
                live: VecDeque::new(),
            }),
        }
    }

    /// Batch `index` of the stream, `batch_size` samples. The first taker of
    /// an index draws it; later takers get the same allocation.
    ///
    /// # Panics
    /// Panics if `index` skips ahead of the next undrawn batch, was already
    /// taken by all takers (or precedes the stream's start), or was drawn
    /// with a different batch size.
    pub fn take(&self, index: usize, batch_size: usize) -> Arc<MiniBatch> {
        let mut inner = self.lock();
        let Inner {
            generator,
            first,
            live,
        } = &mut *inner;
        assert!(
            index >= *first,
            "batch {index} was already released (stream at {first})"
        );
        let pos = index - *first;
        assert!(
            pos <= live.len(),
            "batch {index} taken out of order (next undrawn is {})",
            *first + live.len()
        );
        if pos == live.len() {
            live.push_back(Entry {
                batch: Arc::new(generator.next_batch(batch_size)),
                left: self.takers,
            });
        }
        let entry = &mut live[pos];
        assert_eq!(
            entry.batch.batch_size(),
            batch_size,
            "batch {index} was drawn with a different size"
        );
        assert!(
            entry.left > 0,
            "batch {index} taken more than {} times",
            self.takers
        );
        entry.left -= 1;
        let batch = Arc::clone(&entry.batch);
        while live.front().is_some_and(|e| e.left == 0) {
            live.pop_front();
            *first += 1;
        }
        batch
    }

    /// Batches drawn but not yet taken by every taker.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.lock().live.len()
    }

    /// Batches the underlying generator has drawn, fast-forward included.
    #[cfg(test)]
    fn batches_drawn(&self) -> u64 {
        self.lock().generator.batches_drawn()
    }

    /// The stream state. A draw that panicked may have advanced the
    /// generator without recording the batch, so a poisoned stream is not
    /// read again.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("batch stream poisoned: a taker panicked while drawing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn take_matches_an_independent_generator() {
        let cfg = presets::tiny();
        let stream = BatchStream::new(cfg.clone(), 3, 0, 0, 1);
        let mut gen = SyntheticCriteo::new(cfg, 3);
        for i in 0..5 {
            assert_eq!(*stream.take(i, 32), gen.next_batch(32), "batch {i}");
        }
    }

    #[test]
    fn start_equals_drawing_and_discarding() {
        let cfg = presets::tiny();
        let stream = BatchStream::new(cfg.clone(), 9, 4, 48, 2);
        let mut gen = SyntheticCriteo::new(cfg, 9);
        for _ in 0..4 {
            gen.next_batch(48);
        }
        for i in 4..7 {
            let want = gen.next_batch(48);
            assert_eq!(*stream.take(i, 48), want, "batch {i}");
            assert_eq!(*stream.take(i, 48), want, "batch {i}, second taker");
        }
        assert_eq!(stream.batches_drawn(), 7);
    }

    #[test]
    fn batch_sizes_may_vary_between_indices() {
        // Serving's last window is short.
        let cfg = presets::tiny();
        let stream = BatchStream::new(cfg.clone(), 5, 0, 0, 2);
        let mut gen = SyntheticCriteo::new(cfg, 5);
        for (i, size) in [64, 64, 17].into_iter().enumerate() {
            let want = gen.next_batch(size);
            for _ in 0..2 {
                let got = stream.take(i, size);
                assert_eq!(got.batch_size(), size);
                assert_eq!(*got, want, "batch {i}");
            }
        }
    }

    #[test]
    fn concurrent_takers_see_identical_batches() {
        const WORLD: usize = 4;
        const BATCHES: usize = 12;
        let cfg = presets::tiny();
        let stream = Arc::new(BatchStream::new(cfg.clone(), 11, 0, 0, WORLD));
        let barrier = Arc::new(Barrier::new(WORLD));
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let stream = Arc::clone(&stream);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    // A failed take is recorded, not propagated: a thread
                    // that died would leave the others at the barrier.
                    let take = |i| panic::catch_unwind(AssertUnwindSafe(|| stream.take(i, 40)));
                    let mut seen = Vec::with_capacity(BATCHES);
                    // First half: rank `i % WORLD` draws batch `i` while the
                    // others wait at the barrier, so every rank draws.
                    for i in 0..BATCHES / 2 {
                        let drawer = i % WORLD == rank;
                        if drawer {
                            seen.push(take(i));
                        }
                        barrier.wait();
                        if !drawer {
                            seen.push(take(i));
                        }
                    }
                    // Second half: free-running, in whatever order the
                    // threads get there.
                    for i in BATCHES / 2..BATCHES {
                        seen.push(take(i));
                    }
                    seen
                })
            })
            .collect();
        let seen: Vec<Vec<Arc<MiniBatch>>> = handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join()
                    .unwrap()
                    .into_iter()
                    .enumerate()
                    .map(|(i, got)| {
                        got.unwrap_or_else(|_| panic!("rank {rank} failed to take batch {i}"))
                    })
                    .collect()
            })
            .collect();
        let mut gen = SyntheticCriteo::new(cfg, 11);
        for i in 0..BATCHES {
            let want = gen.next_batch(40);
            for rank_batches in &seen {
                assert_eq!(*rank_batches[i], want, "batch {i}");
                assert!(
                    Arc::ptr_eq(&rank_batches[i], &seen[0][i]),
                    "batch {i} redrawn"
                );
            }
        }
        assert_eq!(stream.live(), 0);
        assert_eq!(stream.batches_drawn(), BATCHES as u64);
    }

    #[test]
    fn entries_are_released_after_the_last_taker() {
        const WORLD: usize = 3;
        let stream = BatchStream::new(presets::tiny(), 2, 0, 0, WORLD);
        // A fast taker runs two batches ahead; the others follow.
        stream.take(0, 8);
        stream.take(1, 8);
        assert_eq!(stream.live(), 2);
        for i in 0..30 {
            stream.take(i + 2, 8);
            for _ in 1..WORLD {
                stream.take(i, 8);
            }
            assert!(stream.live() <= 3, "live {} at {i}", stream.live());
        }
        assert_eq!(stream.live(), 2);
        for i in 30..32 {
            for _ in 1..WORLD {
                stream.take(i, 8);
            }
        }
        assert_eq!(stream.live(), 0);
    }

    #[test]
    fn each_index_is_drawn_once() {
        let stream = BatchStream::new(presets::tiny(), 4, 2, 16, 4);
        for i in 2..10 {
            for _ in 0..4 {
                stream.take(i, 16);
            }
        }
        // Two skipped by the fast-forward, eight taken.
        assert_eq!(stream.batches_drawn(), 10);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn skipping_ahead_panics() {
        let stream = BatchStream::new(presets::tiny(), 4, 0, 0, 2);
        stream.take(1, 16);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn retaking_a_released_batch_panics() {
        let stream = BatchStream::new(presets::tiny(), 4, 0, 0, 1);
        stream.take(0, 16);
        stream.take(0, 16);
    }
}
