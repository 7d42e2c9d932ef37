//! `hot_membership`: many tiny requests against the RESP front
//! (`serve_tenant_tcp` over a `TenantRegistry`).
//!
//! Three small tenants are created and filled over the wire during set-up:
//! `genomes` (256 one-kilobase genomes in strain families, as k-mer
//! documents), `text` (a Zipf text corpus) and the `BF.*` key `seen`.
//! Requests are 1–4-term `R.QUERYSEQ` (θ = 1) and `BF.EXISTS`, drawn
//! Zipf-skewed from a fixed pool of 512, so most repeat and every index
//! fits in cache. Load is open-loop Poisson with a 3 ms p99 limit.
//!
//! Per-request work is tiny, so the reactor, the RESP codec, tenant lookup
//! and the result cache dominate: a probe or `QueryBatch` change must show
//! no change here.

use crate::corpus::{self, Corpus, Oracle, Shape};
use crate::openloop::{self, Answer};
use crate::report::Report;
use crate::schedule::{Rng, Zipf};
use crate::seq_search::{self, drive_phases, schedules};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{decode_resp, encode_resp, Names, Resp, RespCommands};
use crate::Opts;
use rambo_core::{QueryContext, QueryMode, Rambo, RamboBuilder, RamboParams};
use rambo_server::{
    serve_tenant_tcp, term_of, TenantQuotas, TenantRegistry, TenantServeOptions, TenantStats,
};
use rambo_text::{CorpusParams, ZipfCorpus};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// 256 genomes of 1 kbp (970 31-mers each: one `R.INSERTDOC` stays under
/// the front's 1024-argument cap), families of 4.
pub const SHAPE: Shape = Shape {
    base_len: 1_000,
    classes: 1,
    top_count: 256,
    family: 4,
};
/// Text tenant documents, shaped like the paper's Wiki sample
/// (`CorpusParams::wiki`).
pub const TEXT_DOCS: usize = 200;
/// Items added to the Bloom key.
pub const BF_ITEMS: usize = 4_000;
/// Distinct requests in the Zipf pool.
pub const POOL: usize = 512;
/// Zipf exponent of request popularity: YCSB's default request
/// distribution constant (Cooper et al., SoCC 2010).
pub const ZIPF_S: f64 = 0.99;
/// Tail-latency limit of the ladder.
pub const P99_LIMIT_US: f64 = 3_000.0;
/// Nominal rate.
pub const NOMINAL_RATE: f64 = 1_000.0;
/// Rate ladder.
pub const LADDER: &[f64] = &[4_000.0, 8_000.0, 16_000.0, 32_000.0];
/// Set-up commands pipelined at a time: a few hundred kilobytes, so the
/// front's input buffer, and with it the process's peak RSS, does not
/// grow with how far the reactor lags the client.
const FILL_BATCH: usize = 16;
/// Random negative single-term probes for `fpr_per_doc`.
pub const FPR_PROBES: usize = 2_000_000;
const SETUP_REPS: usize = 7;

/// Tenants' shared geometry (`RamboBuilder` defaults for the genomes).
fn params() -> io::Result<RamboParams> {
    RamboBuilder::new()
        .expected_documents(SHAPE.top_count)
        .expected_terms_per_doc(SHAPE.base_len - corpus::K + 1)
        .seed(0x7E11)
        .params()
        .map_err(io::Error::other)
}

/// One tenant's documents, in insertion order.
struct Tenant {
    name: &'static str,
    docs: Vec<(String, Vec<u64>)>,
}

/// The text tenant: a Zipf corpus from the repository's text generator.
fn text_docs(seed: u64) -> Vec<(String, Vec<u64>)> {
    let corpus = ZipfCorpus::generate(&CorpusParams {
        docs: TEXT_DOCS,
        ..CorpusParams::wiki(1.0, seed ^ 0x7E47)
    });
    corpus.docs.into_iter().map(|d| (d.name, d.terms)).collect()
}

fn bf_item(i: usize) -> String {
    format!("item-{i}")
}

/// A request of the pool and what it asks.
#[derive(Debug, Clone)]
enum Ask {
    /// `R.QUERYSEQ tenant 1.0 terms…`.
    Seq { tenant: usize, terms: Vec<u64> },
    /// `BF.EXISTS seen item`.
    Exists { item: String },
}

fn encode(ask: &Ask, tenants: &[Tenant]) -> Vec<u8> {
    let mut out = Vec::new();
    match ask {
        Ask::Seq { tenant, terms } => {
            let mut args = vec![
                b"R.QUERYSEQ".to_vec(),
                tenants[*tenant].name.as_bytes().to_vec(),
                b"1.0".to_vec(),
            ];
            args.extend(terms.iter().map(|t| t.to_string().into_bytes()));
            encode_resp(&args, &mut out);
        }
        Ask::Exists { item } => encode_resp(
            &[b"BF.EXISTS".as_slice(), b"seen", item.as_bytes()],
            &mut out,
        ),
    }
    out
}

/// The fixed pool: 40% genome k-mer runs (half from indexed genomes, half
/// from unindexed strains), 30% text term sets, 30% Bloom lookups (half
/// present).
fn pool(corpus: &Corpus, tenants: &[Tenant], seed: u64) -> Vec<Ask> {
    let mut rng = Rng::new(seed, 0x9001);
    (0..POOL)
        .map(|i| {
            let len = 1 + rng.below(4);
            match i % 10 {
                0..=3 => {
                    let src: &[u8] = if i % 2 == 0 {
                        &corpus.docs[rng.below(corpus.docs.len())].seq
                    } else {
                        &corpus.held_out[rng.below(corpus.held_out.len())]
                    };
                    let at = rng.below(src.len() - corpus::K - len + 1);
                    let terms =
                        rambo_kmer::kmers_of(&src[at..at + corpus::K + len - 1], corpus::K, false)
                            .collect();
                    Ask::Seq { tenant: 0, terms }
                }
                4..=6 => {
                    let doc = &tenants[1].docs[rng.below(tenants[1].docs.len())].1;
                    let terms = (0..len).map(|_| doc[rng.below(doc.len())]).collect();
                    Ask::Seq { tenant: 1, terms }
                }
                _ => {
                    let n = if i % 2 == 0 { BF_ITEMS } else { 10 * BF_ITEMS };
                    Ask::Exists {
                        item: bf_item(rng.below(n)),
                    }
                }
            }
        })
        .collect()
}

/// Set up over the wire, as a bulk loader would: create the tenants and
/// insert every document and every Bloom item, [`FILL_BATCH`] commands
/// pipelined at a time. Returns the terms written.
fn fill(stream: &TcpStream, tenants: &[Tenant]) -> io::Result<u64> {
    let mut commands: Vec<Vec<u8>> = Vec::new();
    let mut push = |args: &[Vec<u8>]| {
        let mut frame = Vec::new();
        encode_resp(args, &mut frame);
        commands.push(frame);
    };
    let mut terms = 0u64;
    for t in tenants {
        push(&[b"R.CREATE".to_vec(), t.name.as_bytes().to_vec()]);
        for (name, doc) in &t.docs {
            let mut args = vec![
                b"R.INSERTDOC".to_vec(),
                t.name.as_bytes().to_vec(),
                name.as_bytes().to_vec(),
            ];
            args.extend(doc.iter().map(|x| x.to_string().into_bytes()));
            terms += doc.len() as u64;
            push(&args);
        }
    }
    push(
        &["BF.RESERVE", "seen", "0.01", &BF_ITEMS.to_string()]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect::<Vec<_>>(),
    );
    for chunk in (0..BF_ITEMS).collect::<Vec<_>>().chunks(1000) {
        let mut args = vec![b"BF.MADD".to_vec(), b"seen".to_vec()];
        args.extend(chunk.iter().map(|&i| bf_item(i).into_bytes()));
        terms += chunk.len() as u64;
        push(&args);
    }
    for batch in commands.chunks(FILL_BATCH) {
        for answer in openloop::call(stream, &batch.concat(), batch.len(), decode_resp)? {
            if let Answer::Failed(why) | Answer::Error(why) = answer {
                return Err(io::Error::other(format!("set-up command refused: {why}")));
            }
        }
    }
    Ok(terms)
}

/// The in-process monolith of one tenant, built through `HashPlan`.
fn monolith(p: RamboParams, t: &Tenant, tracer: &Tracer) -> io::Result<Rambo> {
    let mut index = Rambo::new(p).map_err(io::Error::other)?;
    let docs = t.docs.iter().map(|(n, d)| (n.as_str(), d.as_slice()));
    seq_search::apply_docs(&mut index, docs, tracer)?;
    Ok(index)
}

/// Run the workload.
///
/// # Errors
/// Set-up and transport failures.
pub fn run(opts: &Opts, tracer: &Tracer) -> io::Result<Report> {
    let mut report = Report::default();
    let p = params()?;
    let quiet = Tracer::new(false);
    let plan = schedules(NOMINAL_RATE, LADDER, opts.seconds, opts.seed);
    let total = plan.requests();
    let mut setup_s = Vec::new();
    let mut measured_terms = 0u64;
    for rep in 0..SETUP_REPS {
        let measured = seq_search::is_measured(rep, SETUP_REPS);
        let t = if measured { tracer } else { &quiet };
        let t0 = Instant::now();
        let corpus = Corpus::generate(SHAPE, opts.seed, t);
        let tenants = [
            Tenant {
                name: "genomes",
                docs: corpus
                    .docs
                    .iter()
                    .map(|g| (g.name.clone(), g.kmers.clone()))
                    .collect(),
            },
            Tenant {
                name: "text",
                docs: text_docs(opts.seed),
            },
        ];
        let registry = TenantRegistry::new(p, TenantQuotas::default()).map_err(io::Error::other)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = AtomicBool::new(false);
        let served = std::thread::scope(|s| {
            let reactor = s.spawn(|| {
                serve_tenant_tcp(
                    &registry,
                    listener,
                    None,
                    &stop,
                    &TenantServeOptions::default(),
                )
            });
            let out = (|| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                let terms = openloop::keep_awake(|| fill(&stream, &tenants))?;
                setup_s.push(t0.elapsed().as_secs_f64());
                if !measured {
                    return Ok(None);
                }
                measured_terms = terms;
                let asks = pool(&corpus, &tenants, opts.seed);
                let zipf = Zipf::new(asks.len(), ZIPF_S);
                let mut rng = Rng::new(opts.seed, 0x21FF);
                let picks: Vec<usize> = (0..total).map(|_| zipf.sample(&mut rng)).collect();
                let commands: Vec<Vec<u8>> =
                    picks.iter().map(|&k| encode(&asks[k], &tenants)).collect();
                let mut wire = RespCommands {
                    commands: &commands,
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
                        || {},
                        || {
                            nominal_stats = Some(registry.list());
                        },
                    )
                })?;
                let nominal_stats = nominal_stats.expect("set after the nominal phase");
                Ok(Some((phases, asks, picks, nominal_stats, registry.list())))
            })();
            stop.store(true, Ordering::Relaxed);
            let r = reactor.join().expect("reactor thread panicked");
            out.and_then(|v| r.map(|()| v))
        });
        let Some((phases, asks, picks, nominal_stats, run_stats)) = served? else {
            continue;
        };
        seq_search::report_reads(&mut report, &phases, P99_LIMIT_US);
        let read_p50 = phases
            .untraced_p50()
            .unwrap_or_else(|| phases.nominal.step.p50_us());

        // In-process oracles: a monolithic Rambo per tenant, the exact
        // index, and the registry itself for the Bloom key.
        let monos = [
            monolith(p, &tenants[0], tracer)?,
            monolith(p, &tenants[1], tracer)?,
        ];
        let seq_terms: Vec<&[u64]> = asks
            .iter()
            .filter_map(|a| match a {
                Ask::Seq { terms, .. } => Some(terms.as_slice()),
                Ask::Exists { .. } => None,
            })
            .collect();
        let oracles = [
            Oracle::build(
                tenants[0].docs.iter().map(|d| d.1.as_slice()),
                seq_terms.iter().copied(),
            ),
            Oracle::build(
                tenants[1].docs.iter().map(|d| d.1.as_slice()),
                seq_terms.iter().copied(),
            ),
        ];
        let mut ctx = QueryContext::new();
        let mut all = phases.nominal.replies;
        all.extend(phases.other_replies);
        for (i, got) in &all {
            let ask = &asks[picks[*i]];
            match (ask, got) {
                (Ask::Seq { tenant, terms }, Resp::Array(names)) => {
                    let mono = &monos[*tenant];
                    let ids = tracer.span("core.query", None, *i as u64, |_| {
                        mono.query_sequence_theta(terms, 1.0, QueryMode::Full, &mut ctx)
                    });
                    let want = Names::of(ids.iter().map(|&d| mono.document_name(d).as_bytes()));
                    report.checks.check(*names == want, || {
                        format!("request {i} ({ask:?}): served {names:?}, in-process {want:?}")
                    });
                    let truth = oracles[*tenant].truth(terms);
                    report.checks.check(corpus::is_superset(&ids, &truth), || {
                        format!("request {i}: in-process answer misses true documents {truth:?}")
                    });
                }
                (Ask::Exists { item }, Resp::Int(v)) => {
                    let term = term_of(item);
                    let want = registry
                        .query("seen", &[term], None)
                        .map_err(io::Error::other)?;
                    report.checks.check(*v == i64::from(!want.is_empty()), || {
                        format!("request {i}: BF.EXISTS {item} served {v}, in-process {want:?}")
                    });
                    let added = item[5..].parse::<usize>().is_ok_and(|k| k < BF_ITEMS);
                    report.checks.check(!added || *v == 1, || {
                        format!("request {i}: added item {item} reported absent")
                    });
                }
                (ask, got) => report.checks.check(false, || {
                    format!("request {i} ({ask:?}): unexpected reply {got:?}")
                }),
            }
        }
        if tracer.enabled() {
            for (k, mono) in monos.iter().enumerate() {
                let mut batch = rambo_core::QueryBatch::new(mono);
                for (i, _) in &all {
                    if let Ask::Seq { tenant, terms } = &asks[picks[*i]] {
                        if *tenant == k {
                            tracer.span("core.batch", None, *i as u64, |_| {
                                batch.query_terms(terms, QueryMode::Full)
                            });
                        }
                    }
                }
            }
        }
        report_tenants(&mut report, &nominal_stats, &run_stats, read_p50);
        seq_search::report_core_layers(&mut report, tracer, read_p50);
        seq_search::report_extract(&mut report, tracer, corpus.bases());
        seq_search::report_index(&mut report, &monos[0]);
        let bytes: usize = run_stats.iter().map(|t| t.size_bytes).sum();
        report.set("index_bytes_per_term", bytes as f64 / measured_terms as f64);

        // fpr_per_doc: random 31-mers that are in no genome, probed one by
        // one against the genomes tenant's monolith.
        let (fpr, probes, fps) = corpus::fpr_random_probes(
            &monos[0],
            tenants[0].docs.iter().map(|d| d.1.as_slice()),
            FPR_PROBES,
            opts.seed,
        );
        report.set("fpr_per_doc", fpr);
        report.detail(
            "fpr",
            format!("{{\"negative_term_probes\": {probes}, \"false_positive_docs\": {fps}}}"),
        );
    }
    report.set("setup_s", stats::median(&setup_s));
    report.detail("setup_runs_s", format!("{setup_s:?}"));
    Ok(report)
}

/// Engine, wire and cache metrics from the tenants' own stats: engine
/// latency is the query-weighted mean of the tenants' p50 / p99 over the
/// nominal phase; cache counters cover the whole run.
fn report_tenants(
    report: &mut Report,
    nominal: &[TenantStats],
    run: &[TenantStats],
    read_p50_us: f64,
) {
    let queries: u64 = nominal.iter().map(|t| t.queries).sum::<u64>().max(1);
    let weighted = |f: fn(&TenantStats) -> Duration| {
        nominal
            .iter()
            .map(|t| f(t).as_secs_f64() * 1e6 * t.queries as f64)
            .sum::<f64>()
            / queries as f64
    };
    let p50 = weighted(|t| t.read_p50);
    let p99 = weighted(|t| t.read_p99);
    for (a, b) in [
        ("server.tenant.read_p50_us", p50),
        ("server.tenant.read_p99_us", p99),
        ("server.engine.p50_us", p50),
        ("server.engine.p99_us", p99),
        ("server.resp.wire_p50_us", read_p50_us - p50),
        ("server.tcp.wire_p50_us", read_p50_us - p50),
        ("server.tcp.wire_share", (read_p50_us - p50) / read_p50_us),
    ] {
        report.set(a, b);
    }
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for c in run.iter().filter_map(|t| t.cache.as_ref()) {
        hits += c.counters.hits;
        misses += c.counters.misses;
        evictions += c.counters.evictions;
    }
    report.set(
        "server.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("server.cache.evictions", evictions as f64);
    report.detail(
        "tenants",
        format!(
            "[{}]",
            run.iter()
                .map(|t| format!(
                    "{{\"name\": \"{}\", \"documents\": {}, \"generations\": {}, \"bytes\": {}, \"queries\": {}}}",
                    t.name, t.documents, t.generations, t.size_bytes, t.queries
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
}
