//! Order statistics.  Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! numbers `compare` prints are the ones the driver computes.

/// `(q1, median, q3)` of `values` by the exclusive method: the i-th
/// quartile sits at position `i·(n+1)/4` (1-based) of the sorted sample,
/// linearly interpolated between its neighbours (extrapolated from the
/// outermost pair when the position falls outside the sample).  A single
/// value is its own quartiles; an empty sample yields zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (sorted[0], sorted[0], sorted[0]),
        len => {
            let cut = |i: usize| {
                let pos = i * (len + 1);
                let j = (pos / 4).clamp(1, len - 1);
                let delta = pos as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The fast quartile of a set of round times: the estimator every timed
/// end-to-end number uses.  Interference from other tenants of the machine
/// only ever adds time to a round, so the lower quartile sits close to the
/// undisturbed cost while still resting on several samples (unlike the
/// minimum, which one lucky round decides).
pub fn fast_quartile(values: &[f64]) -> f64 {
    quartiles(values).0
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// driver holds each end-to-end metric's bound against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=12], n=4) == [3.25, 6.5, 9.75]
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(quartiles(&v), (3.25, 6.5, 9.75));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70, 80, 90, 100], n=4)
        //   == [27.5, 55.0, 82.5]
        let v: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(quartiles(&v), (27.5, 55.0, 82.5));
        // Order of the input does not matter.
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // Two values: Python extrapolates past the sample,
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fast_quartile_ignores_slow_outliers() {
        let mut rounds = vec![1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01];
        let clean = fast_quartile(&rounds);
        rounds.extend([3.0, 5.0, 9.0, 2.5]);
        let disturbed = fast_quartile(&rounds);
        assert!((disturbed - clean).abs() / clean < 0.02);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
