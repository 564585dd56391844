//! Exact order statistics over kept samples.
//!
//! The harness's `LatencyStats` is a 64-bucket log2 histogram whose
//! percentiles overestimate by up to 2x; a 5 % gain is invisible there.
//! The benchmark keeps every sample and sorts.

/// The nearest-rank percentile of an ascending slice: the smallest
/// element with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `pct` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile {pct} out of range");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `len` samples: `ceil(pct% * len)`,
/// computed so that binary rounding of `pct` (99.9 % of 1000 is
/// 999.0000000000001 in floating point) cannot push it one rank up.
fn rank(len: usize, pct: f64) -> usize {
    let exact = pct / 100.0 * len as f64;
    ((exact - 1e-9).ceil() as usize).clamp(1, len.max(1))
}

/// How many samples lie strictly beyond the nearest-rank percentile
/// position — the support a reported tail percentile has.
pub fn samples_beyond(len: usize, pct: f64) -> usize {
    len - rank(len, pct).min(len)
}

/// Median of unsorted floats (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The least-disturbed total of a computation timed in slices by several
/// repetitions: `parts[r][j]` is slice `j` of repetition `r`, and slice
/// `j` is the same work in each. Returns the sum over slices of the
/// fastest repetition, and of the second fastest (the runner-up
/// estimate; equal to the first with a single repetition).
///
/// # Panics
///
/// Panics if `parts` is empty or the repetitions differ in slice count.
pub fn least_disturbed(parts: &[&[f64]]) -> (f64, f64) {
    let (mut best, mut second) = (0.0, 0.0);
    for j in 0..parts[0].len() {
        let mut slice: Vec<f64> = parts.iter().map(|p| p[j]).collect();
        slice.sort_by(f64::total_cmp);
        best += slice[0];
        second += slice[1.min(slice.len() - 1)];
    }
    (best, second)
}

/// Arithmetic mean of nanosecond samples, in nanoseconds.
pub fn mean_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_a_hand_computed_vector() {
        // 20 samples, already ascending.
        let v: Vec<u64> = (1..=20).map(|i| i * 10).collect();
        assert_eq!(percentile(&v, 50.0), 100); // rank ceil(10.0) = 10
        assert_eq!(percentile(&v, 99.0), 200); // rank ceil(19.8) = 20
        assert_eq!(percentile(&v, 90.0), 180); // rank 18
        assert_eq!(percentile(&v, 5.0), 10); // rank 1
        assert_eq!(percentile(&v, 100.0), 200);
        // Odd length: the true middle.
        assert_eq!(percentile(&[3, 5, 9], 50.0), 5);
        // A skewed tail is reported exactly, not rounded to a bucket.
        let mut tail = vec![1_000u64; 999];
        tail.push(1_537);
        assert_eq!(percentile(&tail, 99.9), 1_000);
        assert_eq!(percentile(&tail, 100.0), 1_537);
    }

    #[test]
    fn support_beyond_a_percentile() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn least_disturbed_takes_each_slice_from_its_fastest_repetition() {
        // A burst hits slice 1 of the first repetition and slice 0 of
        // the third.
        let reps: [&[f64]; 3] = [&[1.0, 9.0, 3.0], &[1.1, 2.0, 3.2], &[5.0, 2.1, 3.1]];
        let (best, second) = least_disturbed(&reps);
        assert!((best - 6.0).abs() < 1e-12);
        assert!((second - 6.3).abs() < 1e-12);
        assert_eq!(least_disturbed(&[&[2.0, 3.0]]), (5.0, 5.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
