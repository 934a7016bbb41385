//! Order statistics for one run's samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p95, p90, p75 and p50 that has at least ten samples
/// beyond it among `count` samples; `None` below twenty. A p99 of one run
/// on a shared host mostly measures the host's stalls, so the gated tail
/// stops at p95.
pub fn tail_pct(count: usize) -> Option<f64> {
    [95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Ratio that reads 0 instead of NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_pct(1000), Some(95.0));
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(tail_pct(199), Some(90.0));
        assert_eq!(tail_pct(40), Some(75.0));
        assert_eq!(tail_pct(19), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
