//! Seeded randomness for the load generator: Poisson arrival schedules and
//! a Zipf sampler. Everything here reproduces exactly from its seed.

use std::time::Duration;

/// SplitMix64: a small, fast generator whose whole state is its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the benchmark's
    /// independent draws (corpus, reads, arrivals) never share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `duration`: exponential gaps, so arrivals never phase-lock with a
/// periodic server loop the way a fixed period can.
#[must_use]
pub fn poisson_arrivals(rate: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = Rng::new(seed, 0xA771_7A15);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 8);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s` (rank 0 most likely).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative distribution.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_reproduces_from_its_seed() {
        let a = poisson_arrivals(1000.0, Duration::from_secs(2), 7);
        let b = poisson_arrivals(1000.0, Duration::from_secs(2), 7);
        let c = poisson_arrivals(1000.0, Duration::from_secs(2), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_schedule_has_the_rate_and_exponential_gaps() {
        let a = poisson_arrivals(2000.0, Duration::from_secs(10), 3);
        let n = a.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Exponential gaps: the coefficient of variation is ≈ 1 (a fixed
        // period would give 0).
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.95..1.05).contains(&cv), "cv {cv}");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1, 2);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[90]);
    }
}
