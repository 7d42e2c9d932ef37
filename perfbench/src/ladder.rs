//! One open-loop rate step, its SLO verdict, and the rate ladder that finds
//! `read_qps_at_slo`.
//!
//! A step passes when no request failed, its backlog did not grow, and its
//! tail latency (the windowed tail of [`crate::stats::windowed_tail`], with
//! every failed request counted as an infinitely slow one) is within the
//! limit.
//! The ladder climbs ascending rates until a step shows overload (a growing
//! backlog or a failed request); `read_qps_at_slo` is the achieved rate of
//! the highest step that passed. A step that misses only the latency limit
//! — a host stall in that step — does not end the climb.

use crate::stats::{self, Tail};

/// What one rate step measured.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length of the arrival window in seconds.
    pub seconds: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, expired or timed out.
    pub failed: u64,
    /// Latency of each request in arrival order, µs from its due time; a
    /// refused, expired or timed-out request reads as infinitely slow.
    pub latencies_us: Vec<f64>,
    /// How late the generator sent each request, µs after its due time.
    pub lag_us: Vec<f64>,
    /// Requests still unanswered when the last arrival was due.
    pub outstanding_end: usize,
    /// The generator stopped early because too many requests were
    /// outstanding.
    pub aborted: bool,
}

impl Step {
    /// Tail latency (windowed, see [`stats::windowed_tail`]), failures
    /// counted as misses.
    #[must_use]
    pub fn tail(&self) -> Tail {
        stats::windowed_tail(&self.latencies_us)
    }

    /// Median latency, µs (failures count as slow).
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        stats::median(&self.latencies_us)
    }

    /// 90th-percentile latency, µs (failures count as slow).
    #[must_use]
    pub fn p90_us(&self) -> f64 {
        let mut v = self.latencies_us.clone();
        v.sort_by(f64::total_cmp);
        stats::percentile_sorted(&v, 90.0)
    }

    /// Outstanding requests a system meeting `limit_us` could have in
    /// flight at the step's rate (Little's law, doubled, plus slack for
    /// Poisson bursts).
    #[must_use]
    pub fn backlog_allowance(&self, limit_us: f64) -> usize {
        4 + (2.0 * self.rate * limit_us / 1e6).ceil() as usize
    }

    /// Whether the backlog grew during the step.
    #[must_use]
    pub fn backlog_growing(&self, limit_us: f64) -> bool {
        self.aborted || self.outstanding_end > self.backlog_allowance(limit_us)
    }

    /// The SLO verdict for `limit_us`.
    #[must_use]
    pub fn meets(&self, limit_us: f64) -> bool {
        self.attempted > 0
            && self.failed == 0
            && !self.backlog_growing(limit_us)
            && self.tail().value <= limit_us
    }

    /// Answered requests per second of arrival window.
    #[must_use]
    pub fn achieved_qps(&self) -> f64 {
        self.latencies_us.iter().filter(|l| l.is_finite()).count() as f64 / self.seconds
    }

    /// Generator lag: median and maximum, µs.
    #[must_use]
    pub fn lag_summary(&self) -> (f64, f64) {
        let max = self.lag_us.iter().copied().fold(0.0, f64::max);
        (stats::median(&self.lag_us), max)
    }
}

/// Climb `rates` (ascending), running each step, until one is overloaded.
pub fn run_ladder(rates: &[f64], limit_us: f64, mut run: impl FnMut(f64) -> Step) -> Vec<Step> {
    let mut steps = Vec::new();
    for &rate in rates {
        let step = run(rate);
        let overloaded = step.failed > 0 || step.backlog_growing(limit_us);
        steps.push(step);
        if overloaded {
            break;
        }
    }
    steps
}

/// Achieved rate of the highest step of a ladder run that met the SLO.
#[must_use]
pub fn qps_at_slo(steps: &[Step], limit_us: f64) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.meets(limit_us))
        .map(Step::achieved_qps)
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::poisson_arrivals;
    use std::time::Duration;

    /// Synthetic latency source: a single FIFO server with a fixed service
    /// time fed by the same Poisson schedule the generator uses.
    fn fifo_step(rate: f64, seconds: f64, service_us: f64) -> Step {
        let arrivals = poisson_arrivals(rate, Duration::from_secs_f64(seconds), 11);
        let mut free_at = 0.0f64;
        let mut finish = Vec::with_capacity(arrivals.len());
        let mut latencies_us = Vec::with_capacity(arrivals.len());
        for a in &arrivals {
            let a = a.as_secs_f64() * 1e6;
            let start = free_at.max(a);
            free_at = start + service_us;
            finish.push(free_at);
            latencies_us.push(free_at - a);
        }
        let last_due = arrivals.last().map_or(0.0, |a| a.as_secs_f64() * 1e6);
        Step {
            rate,
            seconds,
            attempted: arrivals.len() as u64,
            failed: 0,
            outstanding_end: finish.iter().filter(|&&f| f > last_due).count(),
            lag_us: vec![0.0; arrivals.len()],
            latencies_us,
            aborted: false,
        }
    }

    #[test]
    fn ladder_stops_at_the_knee_of_a_synthetic_queue() {
        // 200 µs service: capacity 5000/s. With a 2 ms tail limit an M/D/1
        // queue passes at 2000/s and fails well before 5000/s.
        let rates = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
        let steps = run_ladder(&rates, 2000.0, |r| fifo_step(r, 2.0, 200.0));
        assert!(steps.len() < rates.len(), "ladder must stop early");
        let last = steps.last().unwrap();
        assert!(!last.meets(2000.0));
        let qps = qps_at_slo(&steps, 2000.0).unwrap();
        assert!((1800.0..4400.0).contains(&qps), "qps at slo {qps}");
    }

    #[test]
    fn overload_is_detected_as_backlog_growth() {
        // Offered 2× capacity: the queue grows for the whole step.
        let over = fifo_step(10_000.0, 1.0, 200.0);
        assert!(over.backlog_growing(5000.0));
        assert!(!over.meets(5000.0));
        // Well under capacity: no growth.
        let under = fifo_step(1000.0, 1.0, 200.0);
        assert!(!under.backlog_growing(5000.0));
        assert!(under.meets(5000.0));
    }

    #[test]
    fn a_generous_limit_still_fails_on_backlog_growth() {
        // Latency within an enormous limit, but the end-of-step backlog is
        // far beyond what the rate and limit allow.
        let mut s = fifo_step(1000.0, 1.0, 100.0);
        s.outstanding_end = 10_000;
        assert!(s.backlog_growing(1e6 / 1000.0));
        s.outstanding_end = 0;
        s.aborted = true;
        assert!(!s.meets(f64::MAX));
    }

    #[test]
    fn failures_count_as_failures_and_as_slo_misses() {
        let mut s = fifo_step(1000.0, 2.0, 50.0);
        let answered = s.latencies_us.len();
        assert!(s.meets(1000.0));
        // Refused, expired or timed out: one each.
        s.failed = 3;
        s.latencies_us.extend([f64::INFINITY; 3]);
        assert!(!s.meets(1000.0), "any failure fails the step");
        // …and each counts as an infinitely slow request in the tail: with
        // enough of them, spread over the step, the tail itself is infinite.
        let mut t = fifo_step(1000.0, 2.0, 50.0);
        for (i, l) in t.latencies_us.iter_mut().enumerate() {
            if i % 20 == 0 {
                *l = f64::INFINITY;
                t.failed += 1;
            }
        }
        assert!(t.tail().value.is_infinite());
        assert_eq!(t.tail().n, answered);
        assert_eq!(t.achieved_qps(), (answered as u64 - t.failed) as f64 / 2.0);
        let steps = run_ladder(&[1000.0, 2000.0], 1000.0, |_| s.clone());
        assert_eq!(steps.len(), 1, "a rung with failures ends the ladder");
        assert_eq!(qps_at_slo(&steps, 1000.0), None);
    }

    #[test]
    fn a_latency_miss_alone_does_not_end_the_climb() {
        // The middle rung misses the limit (a stall) without overload; the
        // ladder goes on and reports the highest rung that met the SLO.
        let rates = [500.0, 1000.0, 2000.0];
        let steps = run_ladder(&rates, 2000.0, |r| {
            let mut s = fifo_step(r, 2.0, 100.0);
            if r == 1000.0 {
                for l in s.latencies_us.iter_mut().step_by(10) {
                    *l = 9000.0;
                }
            }
            s
        });
        assert_eq!(steps.len(), 3);
        assert!(!steps[1].meets(2000.0));
        let qps = qps_at_slo(&steps, 2000.0).unwrap();
        assert!(qps > 1500.0, "qps at slo {qps}");
    }
}
