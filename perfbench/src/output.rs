//! The run's result: named metrics with units, and the checks made.
//!
//! The operations a run attempts are a fixed set for a given workload and
//! seed, so `attempted` and `failed` do not depend on how many timed
//! repeats fit in the run's time: a named check made again on a repeat of
//! the same call is one operation, which fails if any repeat failed, and
//! codec probes count only on the rounds every run makes (see
//! [`Report::counting`]).

use std::collections::BTreeMap;

/// Metrics and check counts of one run, printed as the final JSON line.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Named checks: whether every repeat of each passed.
    checks: BTreeMap<String, bool>,
    probes: u64,
    probe_failures: u64,
    /// Whether codec probes count as operations. Probes on rounds beyond
    /// the fixed set are tallied apart and printed, not counted.
    pub counting: bool,
    extra_probes: u64,
    extra_probe_failures: u64,
    correct: bool,
}

impl Report {
    pub fn new() -> Self {
        Report {
            metrics: Vec::new(),
            checks: BTreeMap::new(),
            probes: 0,
            probe_failures: 0,
            counting: true,
            extra_probes: 0,
            extra_probe_failures: 0,
            correct: true,
        }
    }

    /// Record a metric and echo it as a human-readable line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            self.check(false, &format!("metric {name} is finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// A check on an output of the workload: a failure counts as a failed
    /// operation and marks the run incorrect. Checks with the same `what`
    /// are one operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        *self.checks.entry(what.to_string()).or_insert(true) &= ok;
        if !ok {
            self.correct = false;
            println!("check failed: {what}");
        }
    }

    /// A codec probe round trip: an operation that may fail without making
    /// the run's outputs wrong (a codec outside the workload's own path).
    pub fn count(&mut self, ok: bool) {
        let (probes, failures) = if self.counting {
            (&mut self.probes, &mut self.probe_failures)
        } else {
            (&mut self.extra_probes, &mut self.extra_probe_failures)
        };
        *probes += 1;
        *failures += u64::from(!ok);
    }

    pub fn attempted(&self) -> u64 {
        self.checks.len() as u64 + self.probes
    }

    pub fn failed(&self) -> u64 {
        self.checks.values().filter(|&&ok| !ok).count() as u64 + self.probe_failures
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Probe round trips beyond the counted rounds: (attempted, failed).
    pub fn extra_probes(&self) -> (u64, u64) {
        (self.extra_probes, self.extra_probe_failures)
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.attempted() > 0,
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}
