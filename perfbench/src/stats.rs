//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 · n)`.
//! It always returns a measured value, never an interpolation, and the
//! number of samples strictly above the reported rank is `n - rank`,
//! which is what the "at least ten samples beyond the tail" rule counts.

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Sorts a copy of `values` (NaN-free by construction of every caller).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Latency summary of one request kind: median, the tail percentile and
/// the sample count behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Samples summarized.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly above the reported p99.
    pub beyond_p99: usize,
}

impl Tail {
    /// Summarizes `values`; `None` when there is nothing to summarize.
    pub fn of(values: &[f64]) -> Option<Tail> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        Some(Tail {
            n: s.len(),
            p50: percentile_sorted(&s, 50.0),
            p99: percentile_sorted(&s, 99.0),
            beyond_p99: samples_beyond(s.len(), 99.0),
        })
    }
}

/// Interquartile range as a share of the median, over nearest-rank
/// quartiles — the within-run spread printed beside each repeated
/// measurement.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    let med = percentile_sorted(&s, 50.0);
    if med == 0.0 {
        return 0.0;
    }
    (percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0)) / med
}
