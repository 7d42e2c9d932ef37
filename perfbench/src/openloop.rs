//! Open-loop load generator over one pipelined TCP connection.
//!
//! Requests go out when they are due on a seeded Poisson schedule, whether
//! or not earlier replies have arrived (both fronts answer pipelined frames
//! in order). Each request's latency runs from its *due* time, so a stall
//! also charges the wait it imposes on the requests queued behind it, and
//! the generator records how late it actually sent each one.
//!
//! One thread drives one connection: a non-blocking socket polled between
//! short sleeps, so a reply is seen within about one poll interval
//! ([`POLL`], plus the OS timer slack).
//!
//! No generator thread ever sleeps longer than [`POLL`], and
//! [`keep_awake`] runs a second thread with the same cadence. On the
//! two-vCPU virtual machines this benchmark is calibrated on, a vCPU that
//! goes idle for a millisecond is descheduled by the host and resumes
//! several milliseconds late a few times a second; with both vCPUs kept
//! warm those host stalls no longer decide the tail metrics. The two
//! threads use well under a tenth of a core between them.

use crate::ladder::Step;
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Sleep between socket polls while replies are owed.
pub const POLL: Duration = Duration::from_micros(50);

/// Replies still unanswered this long after the last request was due are
/// counted as timed out.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// A decoded reply.
#[derive(Debug)]
pub enum Answer<R> {
    /// The request was served.
    Ok(R),
    /// The server refused or expired it (overloaded or deadline
    /// exceeded): a failure, counted in `failed`.
    Failed(String),
    /// The server answered with an error no correct server gives to this
    /// workload's requests (a bad-request status, an unexpected `-ERR`):
    /// a wrong answer, which fails the run's answer checks.
    Error(String),
}

/// A request/reply codec for one front.
pub trait Wire {
    /// What a served reply carries.
    type Reply;
    /// Append request `i` to `out`.
    fn encode(&mut self, i: usize, out: &mut Vec<u8>);
    /// Decode one reply from the head of `buf`: `None` until complete.
    ///
    /// # Errors
    /// A malformed reply.
    fn decode(&mut self, buf: &[u8]) -> io::Result<Option<(usize, Answer<Self::Reply>)>>;
}

/// The arrivals of one step: request `k` of the step is request
/// `first + k` of the caller's request list, due `arrivals[k]` after the
/// step starts.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length of the arrival window, seconds.
    pub seconds: f64,
    /// Due offsets from the step start.
    pub arrivals: Vec<Duration>,
    /// Index of the step's first request.
    pub first: usize,
}

impl Schedule {
    /// A seeded Poisson schedule.
    #[must_use]
    pub fn poisson(rate: f64, seconds: f64, seed: u64, first: usize) -> Self {
        Self {
            rate,
            seconds,
            arrivals: crate::schedule::poisson_arrivals(
                rate,
                Duration::from_secs_f64(seconds),
                seed,
            ),
            first,
        }
    }

    /// Index one past the step's last request.
    #[must_use]
    pub fn end(&self) -> usize {
        self.first + self.arrivals.len()
    }
}

/// What one open-loop step returned.
#[derive(Debug)]
pub struct Outcome<R> {
    /// Counts, latencies and backlog of the step.
    pub step: Step,
    /// Served replies by request index.
    pub replies: Vec<(usize, R)>,
    /// Send instant of each request sent, by request index.
    pub sent_at: Vec<(usize, Instant)>,
    /// Error replies ([`Answer::Error`]) by request index.
    pub errors: Vec<(usize, String)>,
}

/// Drive one step's schedule over `stream`. Stops sending once
/// `backlog_cap` replies are outstanding (the step is then marked aborted),
/// or early once `stop` is raised (the step then covers only the requests
/// due until then). Wire requests are traced as `client.request` spans.
///
/// # Errors
/// Transport failures and malformed replies.
pub fn drive<W: Wire>(
    stream: &TcpStream,
    wire: &mut W,
    schedule: &Schedule,
    backlog_cap: usize,
    stop: Option<&AtomicBool>,
    tracer: &Tracer,
) -> io::Result<Outcome<W::Reply>> {
    stream.set_nonblocking(true)?;
    let (first, arrivals) = (schedule.first, &schedule.arrivals);
    let mut n = arrivals.len();
    let mut step = Step {
        rate: schedule.rate,
        seconds: schedule.seconds,
        ..Step::default()
    };
    let mut replies = Vec::with_capacity(n);
    let mut sent_at = Vec::with_capacity(n);
    let mut errors = Vec::new();
    let mut fifo: VecDeque<usize> = VecDeque::new();
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut ended: Option<Instant> = None;
    let start = Instant::now();
    loop {
        // Send everything that is due.
        let now = Instant::now();
        if ended.is_none() && stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            n = next;
            step.seconds = now.duration_since(start).as_secs_f64();
        }
        while next < n && start + arrivals[next] <= now {
            if fifo.len() >= backlog_cap {
                step.aborted = true;
                break;
            }
            wire.encode(first + next, &mut out);
            step.lag_us
                .push(now.duration_since(start + arrivals[next]).as_secs_f64() * 1e6);
            sent_at.push((first + next, now));
            fifo.push_back(next);
            next += 1;
        }
        if written < out.len() {
            match (&*stream).write(&out[written..]) {
                Ok(k) => written += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if written == out.len() {
                out.clear();
                written = 0;
            }
        }
        if ended.is_none() && (next == n || step.aborted) {
            ended = Some(Instant::now());
            step.outstanding_end = fifo.len();
        }

        // Collect what has arrived.
        let mut progress = false;
        loop {
            match (&*stream).read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(k) => {
                    inbuf.extend_from_slice(&chunk[..k]);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if progress {
            let done = Instant::now();
            let mut pos = 0;
            while let Some((used, answer)) = wire.decode(&inbuf[pos..])? {
                pos += used;
                let k = fifo.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply with no request owed")
                })?;
                let due = start + arrivals[k];
                match answer {
                    Answer::Ok(r) => {
                        step.latencies_us
                            .push(done.duration_since(due).as_secs_f64() * 1e6);
                        tracer.record("client.request", due, done, (first + k) as u64);
                        replies.push((first + k, r));
                    }
                    Answer::Error(why) => {
                        step.latencies_us
                            .push(done.duration_since(due).as_secs_f64() * 1e6);
                        errors.push((first + k, why));
                    }
                    Answer::Failed(_) => {
                        step.failed += 1;
                        step.latencies_us.push(f64::INFINITY);
                    }
                }
            }
            inbuf.drain(..pos);
        }

        if let Some(end) = ended {
            if fifo.is_empty() && written == out.len() {
                break;
            }
            if end.elapsed() > DRAIN_TIMEOUT {
                // Timed out: failures, and misses for the SLO.
                step.failed += fifo.len() as u64;
                step.latencies_us.extend(fifo.iter().map(|_| f64::INFINITY));
                break;
            }
        }
        if !progress {
            let until_due = if next < n && !step.aborted {
                (start + arrivals[next]).saturating_duration_since(Instant::now())
            } else {
                POLL
            };
            let nap = until_due.min(POLL);
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    step.attempted = next as u64;
    stream.set_nonblocking(false)?;
    Ok(Outcome {
        step,
        replies,
        sent_at,
        errors,
    })
}

/// Run `f` while a companion thread wakes every [`POLL`] (see the module
/// docs): the benchmark's second client thread.
pub fn keep_awake<T>(f: impl FnOnce() -> T) -> T {
    let awake = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            while awake.load(Ordering::Relaxed) {
                std::thread::sleep(POLL);
            }
        });
        let out = f();
        awake.store(false, Ordering::Relaxed);
        out
    })
}

/// Send `frames` (`n` requests, pipelined) and wait for their `n` replies
/// on a blocking socket (set-up traffic and the closed-loop writer).
///
/// # Errors
/// Transport failures and malformed replies.
pub fn call<R>(
    stream: &TcpStream,
    frames: &[u8],
    n: usize,
    decode: impl Fn(&[u8]) -> io::Result<Option<(usize, Answer<R>)>>,
) -> io::Result<Vec<Answer<R>>> {
    (&*stream).write_all(frames)?;
    let mut answers = Vec::with_capacity(n);
    let mut inbuf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let mut pos = 0;
        while answers.len() < n {
            let Some((used, answer)) = decode(&inbuf[pos..])? else {
                break;
            };
            pos += used;
            answers.push(answer);
        }
        inbuf.drain(..pos);
        if answers.len() == n {
            return Ok(answers);
        }
        let k = (&*stream).read(&mut chunk)?;
        if k == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        inbuf.extend_from_slice(&chunk[..k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BinaryQueries;
    use std::net::TcpListener;

    /// A front that answers three pipelined queries with a bad-request
    /// status, an overload refusal and a served answer.
    #[test]
    fn error_replies_are_wrong_answers_and_refusals_are_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            for status in [3u8, 1, 0] {
                let mut frame = [0u8; 4 + 20 + 8];
                conn.read_exact(&mut frame).unwrap();
                let mut reply = 9u32.to_le_bytes().to_vec();
                reply.push(status);
                reply.extend_from_slice(&[0; 8]);
                conn.write_all(&reply).unwrap();
            }
            // Hold the connection until the client hangs up.
            let _ = conn.read(&mut [0u8; 1]);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let reads = vec![vec![7u64]; 3];
        let mut wire = BinaryQueries {
            reads: &reads,
            deadline_ms: 1,
        };
        let schedule = Schedule {
            rate: 1000.0,
            seconds: 0.003,
            arrivals: (0..3).map(Duration::from_millis).collect(),
            first: 0,
        };
        let o = drive(&stream, &mut wire, &schedule, 8, None, &Tracer::new(false)).unwrap();
        drop(stream);
        front.join().unwrap();
        assert_eq!(o.step.attempted, 3);
        assert_eq!(o.step.failed, 1, "only the overload refusal is a failure");
        assert_eq!(o.errors.len(), 1);
        assert_eq!(o.errors[0].0, 0);
        assert_eq!(o.replies.len(), 1);
        assert_eq!(o.replies[0].0, 2);
        let mut checks = crate::report::Checks::default();
        checks.error_replies(&o.errors);
        assert_eq!(checks.failed, 1, "the bad-request reply fails a check");
    }
}
