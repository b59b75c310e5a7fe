//! Order statistics for the reported latencies.

/// Samples a tail leaves beyond it.
const BEYOND: usize = 10;

/// Highest percentile a tail is read at, however many samples there are.
/// Above it, on a shared host, a few scheduler stalls per run decide the
/// value and runs of the same code disagree by more than any useful bound.
const TAIL_CAP: f64 = 95.0;

/// A tail latency together with the percentile it was read at and the
/// number of samples it was read from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank quantile of an ascending slice (`p` in percent).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 50.0)
}

/// A median that does not jump between clusters: the mean of the samples
/// from p40 to p60. A fixed query set mixes a few expression shapes of
/// different cost, and a plain median of such a mixture sits on the edge
/// between two of them, where it reads one cluster's extreme sample.
pub fn mid_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    let (lo, hi) = ((n * 2) / 5, (n * 3).div_ceil(5).max(1));
    let mid = &v[lo.min(n)..hi.min(n)];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// The tail: the highest percentile that leaves at least ten samples
/// beyond it, `100·(n−10)/n`, capped at p95 for large samples and never
/// below the median. It moves smoothly with the sample count, so runs
/// that fit a few more or fewer epochs read nearly the same percentile.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    let capped = ((TAIL_CAP / 100.0) * n as f64).ceil() as usize;
    let rank = n
        .saturating_sub(BEYOND)
        .min(capped)
        .max(n.div_ceil(2))
        .max(1);
    Tail {
        percentile: 100.0 * rank as f64 / n.max(1) as f64,
        value: v.get(rank - 1).copied().unwrap_or(f64::NAN),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(tail(&v[..20]).value, 10.0);
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v).value, 20.0);
        assert_eq!(tail(&v[..5]).value, median(&v[..5]));
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Four equal clusters: the mid-mean averages the two middle ones.
        let mixed: Vec<f64> = [1.0, 2.0, 3.0, 4.0].iter().flat_map(|&c| [c; 10]).collect();
        assert_eq!(mid_mean(&mixed), 2.5);
        assert_eq!(mid_mean(&[7.0]), 7.0);
    }
}
