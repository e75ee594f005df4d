//! Small statistics helpers for the experiment harness.

use std::time::{Duration, Instant};

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Arithmetic mean of a slice of durations, in milliseconds.
pub fn mean_ms(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / samples.len() as f64
}

/// Standard deviation of a slice of durations, in milliseconds (population
/// standard deviation, as in the paper's Figure 8).
pub fn stddev_ms(samples: &[Duration]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mean = mean_ms(samples);
    let var = samples
        .iter()
        .map(|d| {
            let ms = d.as_secs_f64() * 1e3;
            (ms - mean) * (ms - mean)
        })
        .sum::<f64>()
        / samples.len() as f64;
    var.sqrt()
}

/// Ratio `a / b` expressed as a percentage, the form the paper's relative
/// figures use (`(B-tree / trie) x 100`).
pub fn ratio_pct(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b * 100.0
    }
}

/// `log10(a / b)`, the form of Figures 7 and 16.
pub fn log10_ratio(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        f64::NAN
    } else {
        (a / b).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let samples = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ];
        assert!((mean_ms(&samples) - 20.0).abs() < 1e-9);
        let sd = stddev_ms(&samples);
        assert!((sd - 8.1649658).abs() < 1e-3);
        assert_eq!(stddev_ms(&samples[..1]), 0.0);
        assert_eq!(mean_ms(&[]), 0.0);
    }

    #[test]
    fn ratios() {
        assert!((ratio_pct(3.0, 2.0) - 150.0).abs() < 1e-9);
        assert!(ratio_pct(1.0, 0.0).is_nan());
        assert!((log10_ratio(1000.0, 1.0) - 3.0).abs() < 1e-9);
        assert!(log10_ratio(0.0, 1.0).is_nan());
    }

    #[test]
    fn timed_measures_something() {
        let (value, elapsed) = timed(|| (0..10_000u64).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(elapsed.as_nanos() > 0);
    }
}
