//! Order statistics for latency samples.

/// The samples in ascending order (a total order, so NaN cannot panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Share of the samples of one kind that the quiet statistics keep.
pub const QUIET_SHARE: f64 = 0.15;

/// Which samples are quiet: the `ceil(n * QUIET_SHARE)` smallest, ties
/// broken by position. Contention from other tenants of a shared host only
/// ever slows a sample, in spells of seconds to minutes that can cover most
/// of a run; the fastest samples of a kind are what the code costs when no
/// spell hits it.
pub fn quiet(values: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let keep_n = (values.len() as f64 * QUIET_SHARE).ceil() as usize;
    let mut keep = vec![false; values.len()];
    for &i in &order[..keep_n] {
        keep[i] = true;
    }
    keep
}

/// A tail latency and where it sits in its sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at `percentile`.
    pub value: f64,
    /// Its nearest-rank percentile, in percent.
    pub percentile: f64,
    /// Samples above it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest nearest-rank percentile that leaves at least `beyond`
/// samples above it, but never one below the median: with too few samples
/// the tail is the median (the upper one of an even count), and says so.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // Rank k (1-based) leaves n - k samples above it.
    let k = n.saturating_sub(beyond).max(n / 2 + 1);
    Some(Tail {
        value: v[k - 1],
        percentile: 100.0 * k as f64 / n as f64,
        beyond: n - k,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `1..=n` in descending order, so the statistics must sort.
    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let t = tail(&ramp(100), 10).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond, t.samples), (90.0, 90.0, 10, 100));
        let t = tail(&ramp(200), 10).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond, t.samples), (190.0, 95.0, 10, 200));
        let t = tail(&ramp(1000), 10).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond, t.samples), (990.0, 99.0, 10, 1000));
    }

    #[test]
    fn small_samples_fall_back_to_the_median_and_say_so() {
        let t = tail(&ramp(8), 10).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond, t.samples), (5.0, 62.5, 3, 8));
        assert!(t.value >= median(&ramp(8)).unwrap());
        let t = tail(&ramp(15), 10).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (8.0, 7, 15));
        assert!(tail(&[], 10).is_none());
    }

    #[test]
    fn quiet_keeps_the_smallest_share_and_at_least_one() {
        let ramp: Vec<f64> = ramp(20);
        let kept: Vec<f64> =
            ramp.iter().zip(quiet(&ramp)).filter(|(_, q)| *q).map(|(v, _)| *v).collect();
        assert_eq!(kept, [3.0, 2.0, 1.0]);
        assert_eq!(quiet(&[3.0, 1.0, 4.0, 1.0, 5.0]), [false, true, false, false, false]);
        assert_eq!(quiet(&[7.0]), [true]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
