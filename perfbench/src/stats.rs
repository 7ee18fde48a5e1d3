//! Summary statistics with the reporting rule the benchmark follows: a
//! tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a p90 needs 100 samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (in `(0, 1)`) among `n`
/// sorted samples, or `None` when fewer than [`MIN_BEYOND`] samples
/// would lie beyond it.
pub fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank - 1)
}

/// Percentile `p` of `samples` under the reporting rule.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let idx = rank(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[idx])
}

/// Plain median (mean of the middle pair for even counts). Used for
/// repeated measurements of one quantity (set-up time, probe timings),
/// where the median is the estimate rather than a reported tail.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
