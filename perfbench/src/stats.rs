//! Summary statistics with the benchmark's percentile rule.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it (capped at p99), so a
//! short run never quotes a tail it could not observe. The percentile used
//! and the sample count travel with the value.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Highest tail percentile ever reported.
pub const TAIL_CAP: f64 = 99.0;

/// Samples per window of a windowed tail.
pub const WINDOW: usize = 1000;

/// Most windows a windowed tail takes the median over.
pub const MAX_WINDOWS: usize = 5;

/// A tail value together with the percentile it is and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile actually reported (≤ [`TAIL_CAP`]).
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Windows the value is the median over (1: the pooled percentile).
    pub windows: usize,
}

/// The highest percentile (in tenths, capped at p99) with at least
/// [`TAIL_BEYOND`] of `n` samples beyond it; p50 when `n` is too small for
/// any tail.
#[must_use]
pub fn tail_pct(n: usize) -> f64 {
    if n < 2 * TAIL_BEYOND {
        return 50.0;
    }
    let tenths = (1000 * (n - TAIL_BEYOND)) / n;
    (tenths as f64 / 10.0).clamp(50.0, TAIL_CAP)
}

/// Nearest-rank percentile of sorted samples (`pct` in 0..=100).
#[must_use]
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Tail by the percentile rule over unsorted samples.
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = tail_pct(v.len());
    Tail {
        pct,
        value: percentile_sorted(&v, pct),
        n: v.len(),
        windows: 1,
    }
}

/// Tail of samples in arrival order, robust to a burst: with at least two
/// windows' worth of samples, split them into up to [`MAX_WINDOWS`] equal
/// consecutive windows (each of at least [`WINDOW`] samples, so each
/// supports p99 by the percentile rule) and report the median of the
/// windows' tails. A stall that hits one window moves that window's p99,
/// not the reported one; a slowdown that hits most windows moves it.
#[must_use]
pub fn windowed_tail(xs: &[f64]) -> Tail {
    let windows = (xs.len() / WINDOW).min(MAX_WINDOWS);
    if windows < 2 {
        return tail(xs);
    }
    let len = xs.len() / windows;
    let tails: Vec<Tail> = xs.chunks_exact(len).take(windows).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        pct: tails[0].pct,
        value: median(&values),
        n: xs.len(),
        windows,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(100_000), 99.0);
        assert_eq!(tail_pct(500), 98.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(19), 50.0);
        for n in [20, 37, 150, 999, 1000, 1001, 5000] {
            let pct = tail_pct(n);
            let rank = ((pct / 100.0) * n as f64).ceil() as usize;
            assert!(
                n - rank >= TAIL_BEYOND,
                "n={n} pct={pct} leaves {}",
                n - rank
            );
        }
    }

    #[test]
    fn tail_reports_value_and_count() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(
            t,
            Tail {
                pct: 99.0,
                value: 990.0,
                n: 1000,
                windows: 1
            }
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (95.0, 190.0, 200));
    }

    #[test]
    fn windowed_tail_shrugs_off_one_burst_but_not_a_slowdown() {
        // 5000 samples of 1..=1000 µs; one window's worth of stall.
        let base: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000 + 1)).collect();
        let mut burst = base.clone();
        for x in &mut burst[1000..1100] {
            *x = 50_000.0;
        }
        let t = windowed_tail(&burst);
        assert_eq!((t.windows, t.n, t.pct), (5, 5000, 99.0));
        assert_eq!(t.value, 990.0);
        assert!(
            tail(&burst).value > 40_000.0,
            "the pooled p99 sees the burst"
        );
        // The same stall in most windows moves the windowed tail too.
        let mut slow = base.clone();
        for w in 0..3 {
            for x in &mut slow[w * 1000..w * 1000 + 100] {
                *x = 50_000.0;
            }
        }
        assert!(windowed_tail(&slow).value > 40_000.0);
        // Too few samples for two windows: the pooled rule.
        assert_eq!(windowed_tail(&base[..1500]), tail(&base[..1500]));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
