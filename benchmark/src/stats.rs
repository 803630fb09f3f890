//! Order statistics used by the report: medians, nearest-rank percentiles and
//! the rule that picks which tail percentile a sample can support.

/// Percentiles the report may quote, lowest first, in tenths of a percent
/// (whole numbers, so that "ten samples beyond" is decided exactly).
const LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is quoted.
pub const MIN_BEYOND: u64 = 10;

/// The highest percentile of 50, 75, 90, 95, 99 and 99.9 that still has at
/// least [`MIN_BEYOND`] of `n` samples beyond it (the median when none has).
pub fn highest_supported_percentile(n: usize) -> f64 {
    LADDER_PERMILLE
        .iter()
        .rev()
        .find(|&&pm| n as u64 * (1000 - pm) >= MIN_BEYOND * 1000)
        .map_or(50.0, |&pm| pm as f64 / 10.0)
}

/// Whether `n` samples support quoting percentile `p` under the rule above.
pub fn supports(n: usize, p: f64) -> bool {
    p <= 50.0 || highest_supported_percentile(n) >= p
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; `None`
/// when the sample is empty, so an undefined metric is never printed as 0.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of an integer sample, as a float.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// Mean of an integer sample, as a float (`None` when empty).
pub fn mean_u64(values: &[u64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().map(|&x| x as f64).sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Below 20 samples not even the quartile has ten beyond it.
        assert_eq!(highest_supported_percentile(0), 50.0);
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        // p90 needs 100 samples: 99 leaves 9.9 beyond.
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert!(supports(5, 50.0), "a median is always quotable");
        assert!(supports(120, 90.0));
        assert!(!supports(24, 90.0));
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean_u64(&[1, 2, 6]), Some(3.0));
    }
}
