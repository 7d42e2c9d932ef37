//! `live_ingest`: writes beside reads on the mutable-index front
//! (`serve_live_tcp` over `LiveServer`).
//!
//! One connection streams genome k-mer documents through `MUTATE` in a
//! closed loop — one writer, the next document only after the ack, the
//! only closed loop among the benchmark's timed phases. The other
//! connection sends open-loop Poisson reads beside the writer for as long
//! as it streams; once merges drain, the nominal phase and a rate ladder
//! (5 ms p99 limit) read the ingested index. The index geometry is sized
//! by `RamboBuilder` for the whole stream, so the ingested index runs at
//! its design FPR; the default `GenerationConfig` with a memtable document
//! cap of one eighth of the stream makes a run complete several seal and
//! merge cycles.
//!
//! This loads `HashPlan`, the memtable, seals, off-lock merges and reads
//! that run during merges: a read-path gain paid for by inserts, or a merge
//! policy that trades read p99 for ingest rate, shows up here.

use crate::corpus::{self, Corpus, Oracle, Shape};
use crate::openloop::{self, Answer, Outcome, Schedule};
use crate::report::Report;
use crate::seq_search::{self, drive_phases, schedules};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{decode_mutate, encode_mutate, BinaryQueries};
use crate::Opts;
use rambo_core::{GenerationConfig, GenerationalIndex, Rambo, RamboBuilder, RamboParams};
use rambo_server::{serve_live_tcp, LiveServer, LiveStats, ServeOptions, ServerConfig};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// 192 genomes of 10 kbp in families of 4. Equal sizes keep every insert
/// about as long as the next, so read latency beside the writer does not
/// hinge on where the few largest genomes fall in a run.
pub const SHAPE: Shape = Shape {
    base_len: 10_000,
    classes: 1,
    top_count: 192,
    family: 4,
};
/// Times the writer streams the corpus (each pass renames the documents,
/// as a re-sequenced batch of the same isolates would be).
pub const PASSES: usize = 2;
/// Seals per stream: the memtable document cap is the stream's length
/// over this. The default cap (1024 documents) and FPR budget (the
/// geometry's own 1% design point) would seal at most once in a stream
/// the geometry is sized for.
pub const SEALS: usize = 8;
/// Tail-latency limit of the read ladder.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Light fixed read rate of the nominal phase.
pub const NOMINAL_RATE: f64 = 1_000.0;
/// Read ladder (beside the writer).
pub const LADDER: &[f64] = &[500.0, 1_000.0, 1_500.0];
/// Random negative single-term probes for `fpr_per_doc`: at the design
/// FPR, false positives of the read k-mers of one seed are too few, and
/// too unevenly spread, for a steady rate.
pub const FPR_PROBES: usize = 2_000_000;
/// Set-ups per run: each takes under a tenth of a second, so the median
/// of many keeps `setup_s` steady.
const SETUP_REPS: usize = 15;

/// The default generation policy with a seal every `docs / SEALS`
/// documents.
fn generation_config(docs: usize) -> GenerationConfig {
    GenerationConfig {
        memtable_max_docs: docs / SEALS,
        ..GenerationConfig::default()
    }
}

/// `RamboBuilder` defaults for `docs` documents of the corpus's size.
fn params(corpus: &Corpus, docs: usize) -> io::Result<RamboParams> {
    RamboBuilder::new()
        .expected_documents(docs)
        .expected_terms_per_doc(corpus.mean_terms())
        .seed(0x11FE)
        .params()
        .map_err(io::Error::other)
}

/// The write stream: every genome, `PASSES` times.
fn stream_docs(corpus: &Corpus) -> Vec<(String, &[u64])> {
    (0..PASSES)
        .flat_map(|p| {
            corpus
                .docs
                .iter()
                .map(move |g| (format!("{}-p{p}", g.name), g.kmers.as_slice()))
        })
        .collect()
}

/// What the writer saw: per document, ack instant and latency.
#[derive(Debug, Default)]
struct Writes {
    acked_at: Vec<Instant>,
    latency_us: Vec<f64>,
    terms: u64,
    failed: u64,
}

/// Closed-loop writer: next document only after the previous ack.
fn write_all(stream: &TcpStream, docs: &[(String, &[u64])], out: &Mutex<Writes>) -> io::Result<()> {
    let mut frame = Vec::new();
    for (i, (name, terms)) in docs.iter().enumerate() {
        frame.clear();
        encode_mutate(name, terms, &mut frame);
        let t = Instant::now();
        let answer = openloop::call(stream, &frame, 1, decode_mutate)?.remove(0);
        let now = Instant::now();
        let mut w = out.lock().expect("writer log poisoned");
        match answer {
            Answer::Ok(id) if id as usize == i => {
                w.acked_at.push(now);
                w.latency_us.push(now.duration_since(t).as_secs_f64() * 1e6);
                w.terms += terms.len() as u64;
            }
            Answer::Ok(id) => {
                return Err(io::Error::other(format!(
                    "document {i} was issued id {id}: the writer is the only client"
                )))
            }
            Answer::Failed(why) => {
                w.failed += 1;
                return Err(io::Error::other(format!("insert of {name} refused: {why}")));
            }
            Answer::Error(why) => {
                return Err(io::Error::other(format!(
                    "insert of {name} answered with an error: {why}"
                )))
            }
        }
    }
    Ok(())
}

/// In-process replay of the same inserts on a `GenerationalIndex` with the
/// live server's `GenerationConfig`: `insert_document` seals by the
/// program's own rule (a seal shows as an epoch change, as in
/// `LiveHandle::insert_document`), and merges run to quiescence after each
/// seal. An insert that sealed is traced as `core.generations.seal`, any
/// other as `core.generations.insert`. Returns the replay's index and its
/// seal count.
fn replay(
    params: RamboParams,
    config: GenerationConfig,
    docs: &[(String, &[u64])],
    tracer: &Tracer,
    report: &mut Report,
) -> io::Result<(GenerationalIndex, u64)> {
    let mut idx = GenerationalIndex::new(params, config).map_err(io::Error::other)?;
    let mut written = 0usize;
    let (mut seals, mut merges) = (0u64, 0u64);
    for (i, (name, terms)) in docs.iter().enumerate() {
        let epoch = idx.epoch();
        let t0 = Instant::now();
        idx.insert_document(name, terms).map_err(io::Error::other)?;
        let t1 = Instant::now();
        if idx.epoch() == epoch {
            tracer.record("core.generations.insert", t0, t1, i as u64);
            continue;
        }
        tracer.record("core.generations.seal", t0, t1, i as u64);
        seals += 1;
        written += idx.generation_infos().last().map_or(0, |g| g.encoded_len);
        while let Some(job) = idx.merge_job() {
            let merged = tracer
                .span("core.generations.merge", None, i as u64, |_| job.run())
                .map_err(io::Error::other)?;
            let slot = job.slot();
            if idx.install_merged(&job, merged) {
                merges += 1;
                written += idx.generation_infos()[slot].encoded_len;
            }
        }
    }
    let final_bytes: usize = idx.generation_infos().iter().map(|g| g.encoded_len).sum();
    let ms = |name| stats::median(&tracer.durations_us(name)) / 1e3;
    report.set(
        "core.generations.insert_p99_us",
        stats::tail(&tracer.durations_us("core.generations.insert")).value,
    );
    report.set("core.generations.seal_ms", ms("core.generations.seal"));
    report.set("core.generations.merge_ms", ms("core.generations.merge"));
    report.set(
        "core.generations.write_amp",
        written as f64 / final_bytes.max(1) as f64,
    );
    report.detail(
        "replay",
        format!(
            "{{\"seals\": {seals}, \"merges\": {merges}, \"generations\": {}, \"bytes\": {}, \"memtable_documents\": {}}}",
            idx.num_generations(),
            idx.size_bytes(),
            idx.memtable_documents()
        ),
    );
    Ok((idx, seals))
}

/// Run the workload.
///
/// # Errors
/// Set-up and transport failures.
pub fn run(opts: &Opts, tracer: &Tracer) -> io::Result<Report> {
    let mut report = Report::default();
    let quiet = Tracer::new(false);
    let plan = schedules(NOMINAL_RATE, LADDER, opts.seconds, opts.seed);
    // Reads beside the writer: as long as it streams (room for twice the
    // run length; the phase stops when the writer is done).
    let beside = Schedule::poisson(
        NOMINAL_RATE,
        2.0 * opts.seconds,
        opts.seed ^ 0xB351,
        plan.requests(),
    );
    let total = beside.end();
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let measured = seq_search::is_measured(rep, SETUP_REPS);
        let t = if measured { tracer } else { &quiet };
        let t0 = Instant::now();
        let corpus = Corpus::generate(SHAPE, opts.seed, t);
        let docs = stream_docs(&corpus);
        let p = params(&corpus, docs.len())?;
        let config = ServerConfig::builder()
            .generations(generation_config(docs.len()))
            .build();
        let writes = Mutex::new(Writes::default());
        let (out, live_stats) = LiveServer::scope(p, config, |handle| {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let reactor =
                    s.spawn(|| serve_live_tcp(handle, listener, &stop, &ServeOptions::default()));
                let out = (|| -> io::Result<_> {
                    let reader = TcpStream::connect(addr)?;
                    reader.set_nodelay(true)?;
                    let writer = TcpStream::connect(addr)?;
                    writer.set_nodelay(true)?;
                    setup_s.push(t0.elapsed().as_secs_f64());
                    if !measured {
                        return Ok(None);
                    }
                    let reads = corpus.reads(total, opts.seed);
                    let mut wire = BinaryQueries {
                        reads: &reads,
                        deadline_ms: seq_search::DEADLINE_MS,
                    };
                    // Reads beside the writer for as long as it streams;
                    // then, once merges drain, the nominal phase and the
                    // ladder read the ingested index.
                    let writing_done = AtomicBool::new(false);
                    let reading_done = AtomicBool::new(false);
                    let (read, wrote) = std::thread::scope(|w| {
                        // Once done, the writer thread becomes the second
                        // client thread's keep-awake (see `openloop`).
                        let writer = w.spawn(|| {
                            let r = write_all(&writer, &docs, &writes);
                            writing_done.store(true, Ordering::Relaxed);
                            while !reading_done.load(Ordering::Relaxed) {
                                std::thread::sleep(openloop::POLL);
                            }
                            r
                        });
                        let read = (|| {
                            let beside = openloop::drive(
                                &reader,
                                &mut wire,
                                &beside,
                                seq_search::BACKLOG_CAP,
                                Some(&writing_done),
                                tracer,
                            )?;
                            while !writing_done.load(Ordering::Relaxed) {
                                std::thread::sleep(openloop::POLL);
                            }
                            handle.drain_merges().map_err(io::Error::other)?;
                            let phases = drive_phases(
                                &reader,
                                &mut wire,
                                &plan,
                                P99_LIMIT_US,
                                tracer,
                                None,
                                || {},
                                || {},
                            )?;
                            Ok::<_, io::Error>((beside, phases))
                        })();
                        reading_done.store(true, Ordering::Relaxed);
                        (read, writer.join().expect("writer thread panicked"))
                    });
                    let (beside, phases) = read?;
                    wrote?;
                    let frozen = handle.freeze().map_err(io::Error::other)?;
                    Ok(Some((beside, phases, reads, frozen, handle.stats())))
                })();
                stop.store(true, Ordering::Relaxed);
                let r = reactor.join().expect("reactor thread panicked");
                out.and_then(|v| r.map(|()| v))
            })
        })
        .map_err(io::Error::other)?;
        let Some((beside, phases, reads, frozen, run_stats)) = out? else {
            continue;
        };
        let writes = writes.into_inner().expect("writer log poisoned");
        finish(
            &mut report,
            &corpus,
            p,
            config.generations,
            &docs,
            beside,
            phases,
            &reads,
            &frozen,
            &writes,
            &run_stats,
            &live_stats,
            opts.seed,
            tracer,
        )?;
    }
    report.set("setup_s", stats::median(&setup_s));
    report.detail("setup_runs_s", format!("{setup_s:?}"));
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    report: &mut Report,
    corpus: &Corpus,
    p: RamboParams,
    generations: GenerationConfig,
    docs: &[(String, &[u64])],
    beside: Outcome<Vec<u32>>,
    phases: seq_search::Phases<Vec<u32>>,
    reads: &[Vec<u64>],
    frozen: &Rambo,
    writes: &Writes,
    live: &LiveStats,
    final_stats: &LiveStats,
    seed: u64,
    tracer: &Tracer,
) -> io::Result<()> {
    seq_search::report_reads(report, &phases, P99_LIMIT_US);
    let b = &beside.step;
    report.set("server.live.beside_writes_p50_us", b.p50_us());
    report.attempted += b.attempted + docs.len() as u64;
    report.failed += b.failed;
    report.checks.error_replies(&beside.errors);
    report.detail(
        "beside_writes",
        format!(
            "{{\"rate\": {}, \"seconds\": {}, \"samples\": {}, \"closed_loop\": false, \"latency_us\": {}}}",
            b.rate,
            b.seconds,
            b.latencies_us.len(),
            seq_search::percentiles_json(&b.latencies_us)
        ),
    );
    report.failed += writes.failed;
    seq_search::report_writes(report, &writes.latency_us, writes.terms);

    // The frozen live index must be bit-identical to a monolithic rebuild
    // (through HashPlan, traced as the pipeline layer).
    let identical = {
        let mut mono = Rambo::new(p).map_err(io::Error::other)?;
        seq_search::apply_docs(
            &mut mono,
            docs.iter().map(|(n, t)| (n.as_str(), *t)),
            tracer,
        )?;
        frozen.to_bytes().map_err(io::Error::other)? == mono.to_bytes().map_err(io::Error::other)?
    };
    report.checks.check(identical, || {
        "frozen live index differs from a monolithic rebuild".into()
    });

    // Reads: a subset of the final answer (bits only grow), and every
    // document acknowledged before the read was sent that truly holds the
    // read is in it.
    // Passes repeat the genomes, so the oracle is built over the distinct
    // genomes and each true genome expands to its document in every pass.
    let genomes = corpus.docs.len();
    let oracle = Oracle::build(
        corpus.docs.iter().map(|g| g.kmers.as_slice()),
        reads.iter().map(Vec::as_slice),
    );
    let truth_docs = |read: &[u64]| -> Vec<u32> {
        let per_genome = oracle.truth(read);
        let mut ids: Vec<u32> = (0..PASSES as u32)
            .flat_map(|p| per_genome.iter().map(move |&g| g + p * genomes as u32))
            .collect();
        ids.sort_unstable();
        ids
    };
    let mut sent: Vec<(usize, Instant)> = phases.nominal.sent_at.clone();
    sent.extend(beside.sent_at.iter().copied());
    let mut all = beside.replies;
    all.extend(phases.nominal.replies);
    all.extend(phases.other_replies);
    sent.extend(phases.other_sent_at.iter().copied());
    sent.sort_unstable_by_key(|s| s.0);
    let in_order: Vec<(usize, &Vec<u64>)> = all.iter().map(|(i, _)| (*i, &reads[*i])).collect();
    let finals = seq_search::evaluate(frozen, &in_order, tracer);
    for ((i, got), fin) in all.iter().zip(&finals) {
        report.checks.check(corpus::is_superset(fin, got), || {
            format!("read {i}: served {got:?} is not within the final answer {fin:?}")
        });
        let at = sent[sent
            .binary_search_by_key(i, |s| s.0)
            .expect("every served read was sent")]
        .1;
        let acked = writes.acked_at.partition_point(|&t| t < at) as u32;
        let truth: Vec<u32> = truth_docs(&reads[*i])
            .into_iter()
            .filter(|&d| d < acked)
            .collect();
        report.checks.check(corpus::is_superset(got, &truth), || {
            format!("read {i}: served {got:?} misses acknowledged documents {truth:?}")
        });
    }

    // Index size after merges drain, from the in-process replay of the
    // same inserts under the same policy; it must end in the served
    // index's layout (same seals, generations and memtable), so the size
    // is the served index's.
    let (replayed, seals) = replay(p, generations, docs, tracer, report)?;
    let layout = |seals: u64, generations: usize, memtable: usize| {
        format!("{seals} seals, {generations} generations, {memtable} memtable documents")
    };
    let served = layout(
        final_stats.seals,
        final_stats.generations,
        final_stats.memtable_documents,
    );
    let replay_layout = layout(
        seals,
        replayed.num_generations(),
        replayed.memtable_documents(),
    );
    report.checks.check(served == replay_layout, || {
        format!("served index ended with {served}, its replay with {replay_layout}")
    });
    let replay_bytes = replayed.size_bytes() as f64;
    drop(replayed);
    report.set(
        "index_bytes_per_term",
        replay_bytes / writes.terms.max(1) as f64,
    );
    report.set("core.index.bytes", replay_bytes);
    let lemma = rambo_core::theory::expected_memory_bits(
        writes.terms,
        2,
        frozen.buckets(),
        frozen.repetitions(),
        0.01,
    ) / 8.0;
    report.set("core.index.size_over_lemma46", replay_bytes / lemma);
    report.detail("geometry", seq_search::geometry_json(frozen));

    let (fpr, probes, fps) = corpus::fpr_random_probes(
        frozen,
        corpus.docs.iter().map(|g| g.kmers.as_slice()),
        FPR_PROBES,
        seed,
    );
    report.set("fpr_per_doc", fpr);
    report.detail(
        "fpr",
        format!("{{\"negative_term_probes\": {probes}, \"false_positive_docs\": {fps}}}"),
    );

    // Layer metrics from the live server's own counters.
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let read_p50 = phases.nominal.step.p50_us();
    let e50 = us(live.read_p50);
    report.set("server.live.read_p99_us", us(live.read_p99));
    report.set("server.live.write_p99_us", us(live.write_p99));
    report.set("server.engine.p50_us", e50);
    report.set("server.engine.p99_us", us(live.read_p99));
    report.set("server.tcp.wire_p50_us", read_p50 - e50);
    report.set("server.tcp.wire_share", (read_p50 - e50) / read_p50);
    report.set("core.generations.seals", final_stats.seals as f64);
    report.set("core.generations.merges", final_stats.merges as f64);
    report.set(
        "core.generations.final_generations",
        final_stats.generations as f64,
    );
    if let Some(c) = &final_stats.cache {
        report.set("server.cache.hit_ratio", c.hit_ratio());
        report.set("server.cache.evictions", c.counters.evictions as f64);
    }
    seq_search::report_core_layers(report, tracer, read_p50);
    seq_search::report_extract(report, tracer, corpus.bases());
    Ok(())
}
