//! `seq_search`: the paper's §3.3.1 sequence query over the binary TCP
//! front (`serve_tcp` over a one-tier `Catalog` + `Server` with the default
//! `ServerConfig`).
//!
//! The index holds a simulated archive of 63 genomes (20–640 kbp,
//! geometrically skewed, in strain families) built with `RamboBuilder`
//! defaults — several times the 16 MiB result cache. Queries are
//! error-free 150-bp reads, never repeated: half from indexed genomes,
//! half from unindexed strains (the FPR negatives). Load is open-loop
//! Poisson at a light nominal rate, then a rate ladder for
//! `read_qps_at_slo` with a 5 ms p99 limit.
//!
//! Probe + AND and the wire carry the work; the result cache almost never
//! hits, so a cache change must show no change here.
//!
//! The module also holds what the other workloads share: the phase driver
//! (warm-up, nominal phase, ladder), the document-at-a-time index build,
//! and the report helpers for reads, writes, index size and core layers.

use crate::corpus::{self, Corpus, Oracle, Shape};
use crate::ladder::{self, Step};
use crate::openloop::{self, Outcome, Schedule};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::wire::BinaryQueries;
use crate::Opts;
use rambo_cluster::{plan_cluster, ClusterConfig, ClusterPlan, Coordinator, ShardNode};
use rambo_core::{theory, QueryBatch, QueryMode, Rambo, RamboBuilder};
use rambo_server::{
    serve_tcp, Catalog, Server, ServerConfig, ServerHandle, ServerStats, TcpClient,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Archive shape: 32×20k, 16×40k, … 1×640k bases, families of 4.
pub const SHAPE: Shape = Shape {
    base_len: 20_000,
    classes: 6,
    top_count: 32,
    family: 4,
};
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Whether set-up `rep` of `reps` is the one whose server is measured: the
/// middle one, so the set-ups before and after it time the host at both
/// ends of the run (its speed drifts over seconds).
#[must_use]
pub fn is_measured(rep: usize, reps: usize) -> bool {
    rep == reps / 2
}
/// Tail-latency limit of the ladder.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Light nominal rate for `read_p50_us` / `read_p99_us`.
pub const NOMINAL_RATE: f64 = 1000.0;
/// Rate ladder for `read_qps_at_slo`.
pub const LADDER: &[f64] = &[1_500.0, 3_000.0, 6_000.0];
/// Deadline carried in every query frame: long, so overload shows as
/// latency and backlog rather than expiry.
pub const DEADLINE_MS: u32 = 10_000;
/// The generator stops a step once this many replies are outstanding
/// (below the fronts' 1024-frame per-connection pipelining cap; at the top
/// ladder rate this still rides out a 30 ms host stall).
pub const BACKLOG_CAP: usize = 1_000;
/// Warm-up requests before timing (lazy set-up, caches).
pub const WARMUP: f64 = 0.5;

/// Index build geometry (`RamboBuilder` defaults for the corpus).
pub fn builder(corpus: &Corpus) -> RamboBuilder {
    RamboBuilder::new()
        .expected_documents(corpus.docs.len())
        .expected_terms_per_doc(corpus.mean_terms())
        .seed(0x5EC0)
}

/// A built index with its per-document write timings.
pub struct Built {
    /// The archive.
    pub corpus: Corpus,
    /// The index.
    pub index: Rambo,
    /// Per-document hash + apply time, µs.
    pub write_us: Vec<f64>,
}

/// Generate the archive and build its index.
///
/// # Errors
/// Index construction failures.
pub fn build(shape: Shape, seed: u64, tracer: &Tracer) -> io::Result<Built> {
    let corpus = Corpus::generate(shape, seed, tracer);
    let mut index = builder(&corpus).build().map_err(io::Error::other)?;
    let docs = corpus
        .docs
        .iter()
        .map(|g| (g.name.as_str(), g.kmers.as_slice()));
    let write_us = apply_docs(&mut index, docs, tracer)?;
    Ok(Built {
        corpus,
        index,
        write_us,
    })
}

/// Insert `docs` into `index` one document at a time through
/// `HashPlan::hash_document` + `Rambo::apply_hashed`, inside a `core.build`
/// span; returns each document's hash + apply time in µs.
///
/// # Errors
/// Index construction failures.
pub fn apply_docs<'a>(
    index: &mut Rambo,
    docs: impl IntoIterator<Item = (&'a str, &'a [u64])>,
    tracer: &Tracer,
) -> io::Result<Vec<f64>> {
    let plan = index.hash_plan();
    tracer.span("core.build", None, 0, |build| {
        docs.into_iter()
            .enumerate()
            .map(|(i, (name, terms))| {
                let t = Instant::now();
                let hashed = tracer.span("core.pipeline.hash", build, i as u64, |_| {
                    plan.hash_document(name, terms)
                });
                tracer
                    .span("core.pipeline.apply", build, i as u64, |_| {
                        index.apply_hashed(&hashed)
                    })
                    .map_err(io::Error::other)?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    })
}

/// Serve `catalog` over loopback TCP for the duration of `f`.
///
/// # Errors
/// Listener failures and `f`'s own.
pub fn serve<T>(
    catalog: &Catalog,
    f: impl FnOnce(SocketAddr, &ServerHandle<'_>) -> io::Result<T>,
) -> io::Result<T> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let (out, _) = Server::scope(catalog, ServerConfig::default(), |handle| {
        std::thread::scope(|s| {
            let reactor = s.spawn(|| serve_tcp(handle, listener, &stop));
            let out = f(addr, handle);
            stop.store(true, Ordering::Relaxed);
            let served = reactor.join().expect("reactor thread panicked");
            out.and_then(|v| served.map(|()| v))
        })
    });
    out
}

/// Warm-up, untraced twin, nominal phase and ladder over one connection.
pub struct Phases<R> {
    /// The nominal-rate step.
    pub nominal: Outcome<R>,
    /// Ladder steps, in order.
    pub ladder: Vec<Step>,
    /// The untraced twin of the nominal phase (traced runs only).
    pub twin: Option<Step>,
    /// Served replies of the warm-up, the twin and the ladder steps
    /// (checked like the nominal phase's).
    pub other_replies: Vec<(usize, R)>,
    /// Send instants of those requests.
    pub other_sent_at: Vec<(usize, Instant)>,
    /// Error replies of every phase, nominal included.
    pub errors: Vec<(usize, String)>,
    /// Peak RSS of the process when the nominal phase ended, MiB.
    pub rss_mb: f64,
}

impl<R> Phases<R> {
    /// Median latency of the untraced twin: the base of
    /// `trace.overhead_us` (traced runs only).
    #[must_use]
    pub fn untraced_p50(&self) -> Option<f64> {
        self.twin.as_ref().map(Step::p50_us)
    }
}

/// Schedules for a run of `seconds`: warm-up, nominal phase, ladder rungs
/// and the untraced twin of the nominal phase that a traced run measures
/// between warm-up and nominal phase (request indices disjoint, so no
/// request repeats). The warm-up runs at the top ladder rate, so lazily
/// built state of the batching path (evaluator memos, result-cache growth)
/// exists before anything is timed.
#[must_use]
pub fn schedules(nominal_rate: f64, ladder_rates: &[f64], seconds: f64, seed: u64) -> Plan {
    let top = ladder_rates.iter().copied().fold(nominal_rate, f64::max);
    let warm = Schedule::poisson(top, WARMUP, seed ^ 0x3A3A, 0);
    let nominal = Schedule::poisson(nominal_rate, seconds / 3.0, seed, warm.end());
    let rung_s = (2.0 * seconds / 3.0 / ladder_rates.len() as f64).max(0.5);
    let mut rungs = Vec::new();
    let mut first = nominal.end();
    for (i, &rate) in ladder_rates.iter().enumerate() {
        let s = Schedule::poisson(rate, rung_s, seed.wrapping_add(1 + i as u64), first);
        first = s.end();
        rungs.push(s);
    }
    let twin = Schedule::poisson(nominal_rate, seconds / 3.0, seed ^ 0x7417, first);
    Plan {
        warm,
        nominal,
        rungs,
        twin,
    }
}

/// The schedules of one run (see [`schedules`]).
#[derive(Debug, Clone)]
pub struct Plan {
    /// Warm-up, untimed.
    pub warm: Schedule,
    /// The nominal-rate phase.
    pub nominal: Schedule,
    /// Ladder rungs, ascending.
    pub rungs: Vec<Schedule>,
    /// Untraced twin of the nominal phase (traced runs only).
    pub twin: Schedule,
}

impl Plan {
    /// Requests the run may send.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.twin.end()
    }
}

/// Run warm-up, nominal phase and ladder over `stream`. A traced run also
/// runs the nominal phase's untraced twin right after the warm-up, so both
/// sides of `trace.overhead_us` see the same warm state. The nominal phase
/// ends early once `nominal_stop` is raised; the hooks run just before and
/// just after it.
///
/// # Errors
/// Transport failures.
#[allow(clippy::too_many_arguments)]
pub fn drive_phases<W: openloop::Wire>(
    stream: &TcpStream,
    wire: &mut W,
    Plan {
        warm,
        nominal,
        rungs,
        twin,
    }: &Plan,
    limit_us: f64,
    tracer: &Tracer,
    nominal_stop: Option<&AtomicBool>,
    before_nominal: impl FnOnce(),
    after_nominal: impl FnOnce(),
) -> io::Result<Phases<W::Reply>> {
    let quiet = Tracer::new(false);
    let mut other_replies = Vec::new();
    let mut other_sent_at = Vec::new();
    let mut errors = Vec::new();
    let mut keep = |o: Outcome<W::Reply>| {
        other_replies.extend(o.replies);
        other_sent_at.extend(o.sent_at);
        errors.extend(o.errors);
        o.step
    };
    keep(openloop::drive(
        stream,
        wire,
        warm,
        BACKLOG_CAP,
        None,
        &quiet,
    )?);
    let twin = if tracer.enabled() {
        Some(keep(openloop::drive(
            stream,
            wire,
            twin,
            BACKLOG_CAP,
            None,
            &quiet,
        )?))
    } else {
        None
    };
    before_nominal();
    let nominal = openloop::drive(stream, wire, nominal, BACKLOG_CAP, nominal_stop, tracer)?;
    let rss_mb = stats::peak_rss_mb();
    after_nominal();
    let mut error = None;
    let mut rung = rungs.iter();
    let ladder = ladder::run_ladder(
        &rungs.iter().map(|s| s.rate).collect::<Vec<_>>(),
        limit_us,
        |_| {
            let s = rung.next().expect("one schedule per rung");
            match openloop::drive(stream, wire, s, BACKLOG_CAP, None, tracer) {
                Ok(o) => keep(o),
                Err(e) => {
                    error.get_or_insert(e);
                    Step {
                        rate: s.rate,
                        aborted: true,
                        ..Step::default()
                    }
                }
            }
        },
    );
    if let Some(e) = error {
        return Err(e);
    }
    errors.extend(nominal.errors.iter().cloned());
    Ok(Phases {
        nominal,
        ladder,
        twin,
        other_replies,
        other_sent_at,
        errors,
        rss_mb,
    })
}

/// JSON detail of a ladder.
#[must_use]
pub fn ladder_json(steps: &[Step], limit_us: f64) -> String {
    let rows: Vec<String> = steps
        .iter()
        .map(|s| {
            let t = s.tail();
            let (lag50, lagmax) = s.lag_summary();
            format!(
                "{{\"rate\": {}, \"attempted\": {}, \"failed\": {}, \"achieved_qps\": {:.1}, \"p50_us\": {:.1}, \"tail_pct\": {}, \"tail_us\": {}, \"samples\": {}, \"tail_windows\": {}, \"generator_lag_p50_us\": {:.1}, \"generator_lag_max_us\": {:.1}, \"outstanding_end\": {}, \"backlog_allowance\": {}, \"aborted\": {}, \"meets_slo\": {}}}",
                s.rate,
                s.attempted,
                s.failed,
                s.achieved_qps(),
                s.p50_us(),
                t.pct,
                crate::report::json_num((t.value * 10.0).round() / 10.0),
                t.n,
                t.windows,
                lag50,
                lagmax,
                s.outstanding_end,
                s.backlog_allowance(limit_us),
                s.aborted,
                s.meets(limit_us)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Record the end-to-end read metrics of `phases` and their detail, every
/// error reply as a failed answer check, and the process's peak RSS when the nominal phase ended (server, client and
/// request pool; the ladder's replies and the answer checks' oracle come
/// later).
pub fn report_reads<R>(report: &mut Report, phases: &Phases<R>, limit_us: f64) {
    report.set("peak_rss_mb", phases.rss_mb);
    let n = &phases.nominal.step;
    let tail = n.tail();
    report.set("read_p50_us", n.p50_us());
    report.set("read_p90_us", n.p90_us());
    report.set("read_p99_us", tail.value);
    report.set(
        "read_qps_at_slo",
        ladder::qps_at_slo(&phases.ladder, limit_us).unwrap_or(0.0),
    );
    let steps = || std::iter::once(n).chain(&phases.ladder).chain(&phases.twin);
    report.attempted += steps().map(|s| s.attempted).sum::<u64>();
    report.failed += steps().map(|s| s.failed).sum::<u64>();
    report.checks.error_replies(&phases.errors);
    if let Some(base) = phases.untraced_p50() {
        report.set("trace.overhead_us", n.p50_us() - base);
    }
    report.detail(
        "nominal",
        format!(
            "{{\"rate\": {}, \"seconds\": {}, \"samples\": {}, \"tail_pct\": {}, \"tail_windows\": {}, \"closed_loop\": false, \"latency_us\": {}}}",
            n.rate,
            n.seconds,
            tail.n,
            tail.pct,
            tail.windows,
            percentiles_json(&n.latencies_us)
        ),
    );
    report.detail("ladder", ladder_json(&phases.ladder, limit_us));
}

/// Spot percentiles of a latency sample, as JSON.
#[must_use]
pub fn percentiles_json(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| (stats::percentile_sorted(&v, p) * 10.0).round() / 10.0;
    format!(
        "{{\"p10\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p99.9\": {}, \"max\": {}}}",
        at(10.0),
        at(50.0),
        at(90.0),
        at(99.0),
        at(99.9),
        at(100.0)
    )
}

/// Record the write metrics of per-document write latencies.
pub fn report_writes(report: &mut Report, write_us: &[f64], terms: u64) {
    report.set("write_p50_us", stats::median(write_us));
    report.set("write_p99_us", stats::tail(write_us).value);
    let secs: f64 = write_us.iter().sum::<f64>() / 1e6;
    report.set("write_mterms_per_s", terms as f64 / secs / 1e6);
    report.detail(
        "writes",
        format!(
            "{{\"documents\": {}, \"terms\": {terms}, \"tail_pct\": {}}}",
            write_us.len(),
            stats::tail(write_us).pct
        ),
    );
}

/// Index geometry as JSON.
#[must_use]
pub fn geometry_json(index: &Rambo) -> String {
    let p = index.params();
    format!(
        "{{\"B\": {}, \"R\": {}, \"m_bits\": {}, \"eta\": {}, \"bytes\": {}, \"documents\": {}}}",
        index.buckets(),
        index.repetitions(),
        p.bfu_bits,
        p.eta,
        index.size_bytes(),
        index.num_documents()
    )
}

/// Core-layer metrics of one index: size against Lemma 4.6.
pub fn report_index(report: &mut Report, index: &Rambo) {
    let bytes = index.size_bytes() as f64;
    // Lemma 4.6 with `RamboBuilder`'s defaults: V = 2, p = 1%.
    let lemma = theory::expected_memory_bits(
        index.total_inserts(),
        2,
        index.buckets(),
        index.repetitions(),
        0.01,
    ) / 8.0;
    report.set("core.index.bytes", bytes);
    report.set("core.index.size_over_lemma46", bytes / lemma);
    report.set(
        "index_bytes_per_term",
        bytes / index.total_inserts().max(1) as f64,
    );
    report.detail("geometry", geometry_json(index));
}

/// In-process evaluation of `reads` on `index`, one by one
/// (`core.query`) and through one `QueryBatch` in arrival order
/// (`core.batch`); both traced with the read's request id.
#[must_use]
pub fn evaluate(index: &Rambo, reads: &[(usize, &Vec<u64>)], tracer: &Tracer) -> Vec<Vec<u32>> {
    let answers: Vec<Vec<u32>> = reads
        .iter()
        .map(|&(i, terms)| {
            tracer.span("core.query", None, i as u64, |_| {
                index.query_terms_u64(terms, QueryMode::Full)
            })
        })
        .collect();
    if tracer.enabled() {
        let mut batch = QueryBatch::new(index);
        for &(i, terms) in reads {
            tracer.span("core.batch", None, i as u64, |_| {
                batch.query_terms(terms, QueryMode::Full)
            });
        }
    }
    answers
}

/// Per-layer latency metrics from the traced in-process evaluation.
pub fn report_core_layers(report: &mut Report, tracer: &Tracer, read_p50_us: f64) {
    let q = tracer.durations_us("core.query");
    let b = tracer.durations_us("core.batch");
    let (q50, b50) = (stats::median(&q), stats::median(&b));
    report.set("core.query.p50_us", q50);
    report.set("core.query.p99_us", stats::tail(&q).value);
    report.set("core.query.share", q50 / read_p50_us);
    report.set("core.batch.p50_us", b50);
    report.set("core.batch.over_query", b50 / q50);
    report.set(
        "core.pipeline.hash_s",
        tracer.self_seconds("core.pipeline.hash"),
    );
    report.set(
        "core.pipeline.apply_s",
        tracer.self_seconds("core.pipeline.apply"),
    );
}

/// `kmer.extract_ns_per_base` from the traced extraction.
pub fn report_extract(report: &mut Report, tracer: &Tracer, bases: usize) {
    report.set(
        "kmer.extract_ns_per_base",
        tracer.self_seconds("kmer.extract") * 1e9 / bases.max(1) as f64,
    );
}

/// Check served answers against in-process evaluation and the oracle.
pub fn check_answers(
    report: &mut Report,
    served: &[(usize, Vec<u32>)],
    expected: &[Vec<u32>],
    reads: &[Vec<u64>],
    oracle: &Oracle,
) {
    for ((i, got), want) in served.iter().zip(expected) {
        report.checks.check(got == want, || {
            format!("read {i}: served {got:?}, in-process evaluation {want:?}")
        });
        let truth = oracle.truth(&reads[*i]);
        report.checks.check(corpus::is_superset(got, &truth), || {
            format!("read {i}: served {got:?} misses true documents {truth:?}")
        });
    }
}

struct Served {
    phases: Phases<Vec<u32>>,
    reads: Vec<Vec<u64>>,
    /// Engine counters over the nominal phase.
    nominal_stats: ServerStats,
    /// Engine counters over nominal phase and ladder.
    run_stats: ServerStats,
}

/// Run the workload.
///
/// # Errors
/// Set-up and transport failures.
pub fn run(opts: &Opts, tracer: &Tracer) -> io::Result<Report> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut write_us = Vec::new();
    let mut write_terms = 0u64;
    let quiet = Tracer::new(false);
    let plan = schedules(NOMINAL_RATE, LADDER, opts.seconds, opts.seed);
    for rep in 0..SETUP_REPS {
        let measured = is_measured(rep, SETUP_REPS);
        let t = if measured { tracer } else { &quiet };
        let t0 = Instant::now();
        let built = build(SHAPE, opts.seed, t)?;
        let catalog = Catalog::builder()
            .base(&built.index)
            .tier_buckets(&[built.index.buckets()])
            .build()
            .map_err(io::Error::other)?;
        write_us.extend_from_slice(&built.write_us);
        write_terms += built.index.total_inserts();
        let served = serve(&catalog, |addr, handle| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            if !measured {
                return Ok(None);
            }
            let reads = built.corpus.reads(plan.requests(), opts.seed);
            let mut wire = BinaryQueries {
                reads: &reads,
                deadline_ms: DEADLINE_MS,
            };
            let mut nominal_stats = None;
            let phases = openloop::keep_awake(|| {
                drive_phases(
                    &stream,
                    &mut wire,
                    &plan,
                    P99_LIMIT_US,
                    tracer,
                    None,
                    || handle.reset_stats(),
                    || nominal_stats = Some(handle.stats()),
                )
            })?;
            Ok(Some(Served {
                phases,
                reads,
                nominal_stats: nominal_stats.expect("set after the nominal phase"),
                run_stats: handle.stats(),
            }))
        })?;
        let Some(served) = served else { continue };
        finish(&mut report, &built, &catalog, served, tracer)?;
    }
    report.set("setup_s", stats::median(&setup_s));
    report_writes(&mut report, &write_us, write_terms);
    report.detail("setup_runs_s", format!("{setup_s:?}"));
    Ok(report)
}

fn finish(
    report: &mut Report,
    built: &Built,
    catalog: &Catalog,
    served: Served,
    tracer: &Tracer,
) -> io::Result<()> {
    let Served {
        phases,
        reads,
        nominal_stats,
        run_stats,
    } = served;
    report_reads(report, &phases, P99_LIMIT_US);
    // The untraced read latency is the base of the per-layer shares.
    let read_p50 = phases
        .untraced_p50()
        .unwrap_or_else(|| phases.nominal.step.p50_us());
    let tier = catalog.tier(0);
    report_index(report, tier);

    // Answer checks over every served read.
    let mut all: Vec<(usize, Vec<u32>)> = phases.nominal.replies;
    all.extend(phases.other_replies);
    let oracle = Oracle::build(
        built.corpus.docs.iter().map(|g| g.kmers.as_slice()),
        reads.iter().map(Vec::as_slice),
    );
    let in_order: Vec<(usize, &Vec<u64>)> = all.iter().map(|(i, _)| (*i, &reads[*i])).collect();
    let expected = evaluate(tier, &in_order, tracer);
    check_answers(report, &all, &expected, &reads, &oracle);

    let negatives = reads.iter().skip(1).step_by(2);
    let (fpr, probes, fps) = corpus::fpr_per_doc(tier, &oracle, negatives);
    report.set("fpr_per_doc", fpr);
    report.detail(
        "fpr",
        format!("{{\"negative_term_probes\": {probes}, \"false_positive_docs\": {fps}}}"),
    );

    // Per-layer metrics (meaningful in the traced run).
    report_core_layers(report, tracer, read_p50);
    report_extract(report, tracer, built.corpus.bases());
    report_engine(report, &nominal_stats, &run_stats, read_p50);
    if tracer.enabled() {
        cluster_layers(report, built, &in_order, tracer)?;
    }
    Ok(())
}

/// Reads sent through the coordinator in a traced run.
const CLUSTER_READS: usize = 1_000;

/// The coordinator→shard hop, measured in the traced run only: the same
/// corpus planned by `plan_cluster` into two node-local shards, each one
/// loopback `ShardNode`, queried in a closed loop through
/// `Coordinator::query` and, for the same read, directly on shard 0. Every
/// coordinator answer must equal the stacked monolith's.
fn cluster_layers(
    report: &mut Report,
    built: &Built,
    reads: &[(usize, &Vec<u64>)],
    tracer: &Tracer,
) -> io::Result<()> {
    let b = builder(&built.corpus);
    let buckets = b.params().map_err(io::Error::other)?.buckets();
    let params = b
        .buckets(buckets.next_multiple_of(2))
        .nodes(2)
        .params()
        .map_err(io::Error::other)?;
    let docs: Vec<(String, Vec<u64>)> = built
        .corpus
        .docs
        .iter()
        .map(|g| (g.name.clone(), g.kmers.clone()))
        .collect();
    let ClusterPlan {
        shards,
        ranges,
        monolith,
    } = plan_cluster(params, &docs).map_err(io::Error::other)?;
    let nodes = shards
        .into_iter()
        .zip(ranges)
        .enumerate()
        .map(|(i, (shard, (lo, hi)))| {
            ShardNode::spawn(shard, i as u32, 0, lo, hi, ServerConfig::default())
        })
        .collect::<io::Result<Vec<_>>>()?;
    let topology: Vec<Vec<SocketAddr>> = nodes.iter().map(|n| vec![n.addr()]).collect();
    let coordinator =
        Coordinator::connect(&topology, ClusterConfig::default()).map_err(io::Error::other)?;
    let mut shard0 = TcpClient::connect(nodes[0].addr())?;
    let deadline = Duration::from_millis(u64::from(DEADLINE_MS));
    for &(i, terms) in reads.iter().take(CLUSTER_READS) {
        let reply = tracer
            .span("cluster.coordinator", None, i as u64, |_| {
                coordinator.query(terms, 0.0, deadline)
            })
            .map_err(io::Error::other)?;
        let want = monolith.query_terms_u64(terms, QueryMode::Full);
        report
            .checks
            .check(reply.docs == want && reply.degraded.is_empty(), || {
                format!(
                    "read {i}: coordinator {:?}, stacked monolith {want:?}",
                    reply.docs
                )
            });
        tracer
            .span("cluster.shard", None, i as u64, |_| {
                shard0.query(terms, 0.0, deadline)
            })
            .map_err(io::Error::other)?;
    }
    let coord = stats::median(&tracer.durations_us("cluster.coordinator"));
    let shard = stats::median(&tracer.durations_us("cluster.shard"));
    let s = coordinator.stats();
    report.set("cluster.coordinator.p50_us", coord);
    report.set("cluster.shard.p50_us", shard);
    report.set("cluster.hop_p50_us", coord - shard);
    report.set(
        "cluster.hedge_rate",
        s.total_hedges() as f64 / s.queries.max(1) as f64,
    );
    report.set("cluster.failovers", s.total_failovers() as f64);
    Ok(())
}

/// Engine latency (nominal phase) and scheduler and cache counters (whole
/// run) from the server's own stats.
fn report_engine(report: &mut Report, nominal: &ServerStats, s: &ServerStats, read_p50_us: f64) {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let e50 = us(nominal.latency.quantile(0.5));
    report.set("server.engine.p50_us", e50);
    report.set("server.engine.p99_us", us(nominal.latency.quantile(0.99)));
    let completed = s.total_completed().max(1) as f64;
    report.set("server.inline_share", s.total_inline() as f64 / completed);
    let t = &s.tiers[0];
    report.set("server.mean_batch", t.mean_batch);
    report.set("server.queue_depth_max", t.max_queue_depth as f64);
    report.set("server.rejected", s.total_rejected() as f64);
    report.set(
        "server.expired",
        s.tiers.iter().map(|t| t.expired).sum::<u64>() as f64,
    );
    if let Some(c) = &s.cache {
        report.set("server.cache.hit_ratio", c.hit_ratio());
        report.set("server.cache.evictions", c.counters.evictions as f64);
    }
    report.set("server.tcp.wire_p50_us", read_p50_us - e50);
    report.set("server.tcp.wire_share", (read_p50_us - e50) / read_p50_us);
}
