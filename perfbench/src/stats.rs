//! Repeat statistics for timing samples.

/// Median, quartiles and tail of a set of samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it on the
    /// bad side, with its value; `None` below twenty samples.
    pub tail: Option<(u32, f64)>,
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
const TAIL_SUPPORT: usize = 10;

/// Summarise `samples`. `higher_is_better` decides which side is the tail:
/// the slow side of a time, the low side of a throughput.
///
/// # Panics
/// Panics on an empty sample set.
pub fn summarize(samples: &[f64], higher_is_better: bool) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Percentile p (nearest rank) leaves n - ceil(p n / 100) samples beyond
    // it; take the highest p in 50..=99 that leaves at least TAIL_SUPPORT.
    let tail = (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= TAIL_SUPPORT).then(|| {
            let value = if higher_is_better {
                v[n - rank]
            } else {
                v[rank - 1]
            };
            (p, value)
        })
    });
    Summary {
        n,
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        tail,
    }
}

/// Linearly interpolated quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (see [`summarize`]).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples, false).median
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} q1 {:.6} q3 {:.6} n {}",
            self.median, self.q1, self.q3, self.n
        )?;
        match self.tail {
            Some((p, value)) => write!(f, " p{p} {value:.6}"),
            None => write!(f, " tail n/a (n < {})", 2 * TAIL_SUPPORT),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_small_set() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0], false);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert!(s.tail.is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = summarize(&samples, false).tail.unwrap();
        assert_eq!((p, v), (75, 30.0));
        let (p, v) = summarize(&samples, true).tail.unwrap();
        assert_eq!((p, v), (75, 11.0));
    }
}
