//! Spans recorded from the benchmark's own code around each call into a
//! layer, kept in memory in a `dlrm-obs` span ring and written out as
//! Chrome-trace JSON when the run ends.
//!
//! Spans are contiguous: a call's span runs from the mark before it to the
//! mark after it, and the benchmark's glue between calls is marked
//! `bench.prep`. Each span therefore is its own self time. Every probe round
//! (and every end-to-end call) is one enclosing `iteration` span, the parent
//! of the layer spans inside it; the track id is the workload id.

use dlrm_obs::{ClockDomain, RankTrack, SpanRecorder, TraceExport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Most records one run keeps; older ones are overwritten past this.
const CAPACITY: usize = 1 << 18;

pub struct Tracer {
    recorder: Option<SpanRecorder>,
    /// Whether marks are currently recorded (untraced rounds switch it off).
    pub on: bool,
}

impl Tracer {
    /// A tracer for `workload_id`; `enabled == false` never records.
    pub fn new(workload_id: usize, enabled: bool) -> Self {
        Tracer {
            recorder: enabled.then(|| SpanRecorder::new(workload_id, ClockDomain::Wall, CAPACITY)),
            on: enabled,
        }
    }

    fn active(&mut self) -> Option<&mut SpanRecorder> {
        if self.on {
            self.recorder.as_mut()
        } else {
            None
        }
    }

    /// Open the enclosing span of round (or call) `index`.
    pub fn begin(&mut self, index: u64) {
        if let Some(r) = self.active() {
            r.begin_iteration(index, 0.0);
        }
    }

    /// Close the span running since the previous mark as `name`.
    pub fn mark(&mut self, name: &'static str) {
        if let Some(r) = self.active() {
            r.mark(name, 0.0);
        }
    }

    /// Close the enclosing span.
    pub fn end(&mut self) {
        if let Some(r) = self.active() {
            r.end_iteration(0.0);
        }
    }

    /// Run `f` as one span named `name`, adding its wall seconds to
    /// `times[name]`.
    pub fn time<T>(
        &mut self,
        times: &mut BTreeMap<&'static str, f64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.mark("bench.prep");
        let t = Instant::now();
        let out = f();
        *times.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        self.mark(name);
        out
    }

    /// The Chrome-trace JSON of everything recorded, or `None` when
    /// disabled.
    pub fn into_chrome_trace(self) -> Option<(usize, String)> {
        self.recorder.map(|r| {
            let export = TraceExport {
                tracks: vec![RankTrack::from(r)],
                global: Vec::new(),
            };
            (export.record_count(), export.to_chrome_trace())
        })
    }
}
