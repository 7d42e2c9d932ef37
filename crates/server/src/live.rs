//! The mutable-index server: live inserts over an LSM-style
//! [`GenerationalIndex`], with a background merge thread and a TCP front
//! that accepts the `MUTATE` opcode.
//!
//! Where [`crate::Server`] serves a frozen tier [`crate::Catalog`],
//! [`LiveServer`] owns a [`GenerationalIndex`] behind one `RwLock`:
//!
//! * **Inserts** take the write lock briefly — the memtable is small by
//!   construction (it seals at the [`rambo_core::GenerationConfig`]
//!   budget), so even an insert that triggers an auto-seal serializes only
//!   the memtable.
//! * **Queries** take the read lock and OR-fold answers across memtable +
//!   generations — bit-identical to a monolithic rebuild, so a reader never
//!   observes a half-merged state.
//! * **Merges** run on a background thread in three phases: *plan* under
//!   the read lock (cloning the two generations' `Arc`s into a
//!   [`rambo_core::MergeJob`]), the heavy OR-fold + serialize **off-lock**,
//!   then *install* under a brief write lock that validates the job is
//!   still current before splicing. Writers and readers proceed during the
//!   fold; only the splice excludes them.
//!
//! Every structural change advances the index **epoch**; every insert bumps
//! the [`ResultCache`] version (a new document can match any cached query),
//! while merge installs do not (they are answer-preserving by the
//! bit-identity property, so cached entries stay correct).

use crate::cache::ResultCache;
use crate::server::ServerConfig;
use crate::tcp::{
    conn_flush, conn_read, encode_mutate_ok, encode_mutate_rejected, encode_response, parse_mutate,
    parse_request, run_reactor, Conn, PendingFrame, ServeOptions, MAX_FRAME_BYTES, MAX_PIPELINED,
    OPCODE_HELLO, OPCODE_MUTATE, OPCODE_STATS, STATUS_BAD_REQUEST, STATUS_OK,
};
use rambo_core::{
    canonical_query_key, DocId, GenerationalIndex, QueryContext, QueryMode, RamboError, RamboParams,
};
use rambo_workloads::stats::LatencyHistogram;
use std::fmt;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Cap on pooled query scratch contexts (more concurrent queries than this
/// allocate a fresh context and drop it).
const CTX_POOL_CAP: usize = 16;

/// Merge-thread poll cadence when idle: seals signal the thread promptly
/// via the condvar; the timeout only bounds how stale a missed signal goes.
const MERGE_POLL: Duration = Duration::from_millis(2);

/// State shared between handles and the merge thread.
struct LiveShared {
    index: RwLock<GenerationalIndex>,
    cache: Option<ResultCache>,
    default_mode: QueryMode,
    stop: AtomicBool,
    /// Set under the mutex when a seal makes merge work likely; the merge
    /// thread clears it before scanning.
    merge_due: Mutex<bool>,
    merge_cv: Condvar,
    inserts: AtomicU64,
    queries: AtomicU64,
    seals: AtomicU64,
    merges: AtomicU64,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
    ctx_pool: Mutex<Vec<QueryContext>>,
}

/// Counters and shape of a [`LiveServer`] run, snapshotted by
/// [`LiveHandle::stats`] and returned by [`LiveServer::scope`].
#[derive(Debug, Clone)]
pub struct LiveStats {
    /// Documents inserted.
    pub inserts: u64,
    /// Queries answered (cache hits included).
    pub queries: u64,
    /// Memtable seals (auto + forced).
    pub seals: u64,
    /// Generation merges installed.
    pub merges: u64,
    /// Structural epoch at snapshot time.
    pub epoch: u64,
    /// Total documents indexed.
    pub documents: usize,
    /// Live immutable generations.
    pub generations: usize,
    /// Documents in the mutable memtable.
    pub memtable_documents: usize,
    /// Read-path latency: p50.
    pub read_p50: Duration,
    /// Read-path latency: p99.
    pub read_p99: Duration,
    /// Write-path latency: p99 (includes auto-seal inserts).
    pub write_p99: Duration,
    /// Result-cache counters, when the cache is enabled.
    pub cache: Option<crate::cache::CacheStats>,
}

impl fmt::Display for LiveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "live index: {} docs ({} generations + {} memtable), epoch {}",
            self.documents, self.generations, self.memtable_documents, self.epoch
        )?;
        writeln!(
            f,
            "  inserts {} (seals {}, merges {}), queries {}",
            self.inserts, self.seals, self.merges, self.queries
        )?;
        writeln!(
            f,
            "  read p50 {:?} p99 {:?}, write p99 {:?}",
            self.read_p50, self.read_p99, self.write_p99
        )?;
        if let Some(cache) = &self.cache {
            writeln!(
                f,
                "  result cache: {:.1}% hit, version {}",
                cache.hit_ratio() * 100.0,
                cache.version
            )?;
        }
        Ok(())
    }
}

/// The mutable-index server. Scope-shaped like [`crate::Server`]:
/// [`LiveServer::scope`] owns the index and the background merge thread for
/// the duration of the closure, hands out a [`LiveHandle`], and returns the
/// final [`LiveStats`] after the merge thread has quiesced.
///
/// ```
/// use rambo_core::RamboParams;
/// use rambo_server::{LiveServer, ServerConfig};
///
/// let params = RamboParams::flat(64, 3, 1 << 10, 2, 7);
/// let ((), stats) = LiveServer::scope(params, ServerConfig::default(), |handle| {
///     let id = handle.insert_document("genome-1", &[1, 2, 3]).unwrap();
///     assert!(handle.query(&[2], None).contains(&id));
/// })
/// .unwrap();
/// assert_eq!(stats.inserts, 1);
/// ```
pub struct LiveServer;

impl LiveServer {
    /// Run `f` against a fresh mutable index configured by
    /// `config.generations`, with the background merge thread live for the
    /// closure's duration. Returns the closure's value and the final stats.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when `params` or the generation config
    /// are degenerate.
    pub fn scope<T>(
        params: RamboParams,
        config: ServerConfig,
        f: impl FnOnce(&LiveHandle<'_>) -> T,
    ) -> Result<(T, LiveStats), RamboError> {
        let shared = LiveShared {
            index: RwLock::new(GenerationalIndex::new(params, config.generations)?),
            cache: (config.result_cache_bytes > 0)
                .then(|| ResultCache::new(config.result_cache_bytes)),
            default_mode: config.default_mode,
            stop: AtomicBool::new(false),
            merge_due: Mutex::new(false),
            merge_cv: Condvar::new(),
            inserts: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            read_latency: LatencyHistogram::new(),
            write_latency: LatencyHistogram::new(),
            ctx_pool: Mutex::new(Vec::new()),
        };
        let out = std::thread::scope(|s| {
            let merger = s.spawn(|| merge_loop(&shared));
            let handle = LiveHandle { shared: &shared };
            let out = f(&handle);
            shared.stop.store(true, Ordering::Relaxed);
            shared.merge_cv.notify_all();
            merger.join().expect("merge thread must not panic");
            out
        });
        let stats = snapshot(&shared);
        Ok((out, stats))
    }
}

/// Handle to a running [`LiveServer`]: thread-safe inserts, queries, stats
/// and maintenance nudges. Clone-free — share by reference (it is `Sync`).
pub struct LiveHandle<'scope> {
    shared: &'scope LiveShared,
}

impl LiveHandle<'_> {
    /// Insert a document with its term set, returning its global id
    /// (stable across all future seals and merges). Takes the write lock
    /// briefly; an insert that pushes the memtable over budget seals it
    /// inline (still cheap — the memtable is small by construction) and
    /// wakes the merge thread. Bumps the result-cache version: a new
    /// document can match any cached query.
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name exists in any
    /// component; sealing errors propagate.
    pub fn insert_document(&self, name: &str, terms: &[u64]) -> Result<DocId, RamboError> {
        let start = Instant::now();
        let (id, sealed) = {
            let mut index = self.shared.index.write().expect("index lock");
            let epoch_before = index.epoch();
            let id = index.insert_document(name, terms)?;
            (id, index.epoch() != epoch_before)
        };
        self.shared.inserts.fetch_add(1, Ordering::Relaxed);
        if sealed {
            self.shared.seals.fetch_add(1, Ordering::Relaxed);
            self.nudge_merger();
        }
        if let Some(cache) = &self.shared.cache {
            cache.bump_version();
        }
        self.shared.write_latency.record(start.elapsed());
        Ok(id)
    }

    /// Query across memtable + generations (bit-identical to a monolithic
    /// rebuild), via the result cache when enabled. `None` uses the
    /// configured default mode.
    #[must_use]
    pub fn query(&self, terms: &[u64], mode: Option<QueryMode>) -> Vec<DocId> {
        let start = Instant::now();
        let mode = mode.unwrap_or(self.shared.default_mode);
        let mode_lane = match mode {
            QueryMode::Full => 0,
            QueryMode::Sparse => 1,
        };
        let key = canonical_query_key(terms);
        let mut version = 0;
        if let Some(cache) = &self.shared.cache {
            version = cache.version();
            if let Some(docs) = cache.get(mode_lane, key, version) {
                self.shared.queries.fetch_add(1, Ordering::Relaxed);
                self.shared.read_latency.record(start.elapsed());
                return docs;
            }
            cache.record_miss();
        }
        let mut ctx = self
            .shared
            .ctx_pool
            .lock()
            .expect("ctx pool")
            .pop()
            .unwrap_or_default();
        let docs = {
            let index = self.shared.index.read().expect("index lock");
            index.query_terms_with(terms, mode, &mut ctx)
        };
        {
            let mut pool = self.shared.ctx_pool.lock().expect("ctx pool");
            if pool.len() < CTX_POOL_CAP {
                pool.push(ctx);
            }
        }
        if let Some(cache) = &self.shared.cache {
            // Keyed to the version read before evaluation: an insert that
            // raced this query bumped the version, so the entry can never
            // serve a reader who should see the new document.
            cache.insert(mode_lane, key, version, &docs);
        }
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.read_latency.record(start.elapsed());
        docs
    }

    /// Seal the memtable now regardless of budget (no-op when empty) and
    /// wake the merge thread. Returns whether a seal happened.
    ///
    /// # Errors
    /// Serialization failures propagate.
    pub fn force_seal(&self) -> Result<bool, RamboError> {
        let sealed = self
            .shared
            .index
            .write()
            .expect("index lock")
            .seal_memtable()?;
        if sealed {
            self.shared.seals.fetch_add(1, Ordering::Relaxed);
            self.nudge_merger();
        }
        Ok(sealed)
    }

    /// Block until no merge is due (the background thread may be mid-fold;
    /// this runs the merges inline instead of waiting for it). Test and
    /// benchmark hook.
    ///
    /// # Errors
    /// Merge failures propagate.
    pub fn drain_merges(&self) -> Result<(), RamboError> {
        loop {
            let job = {
                let index = self.shared.index.read().expect("index lock");
                index.merge_job()
            };
            let Some(job) = job else { return Ok(()) };
            let merged = job.run()?;
            let installed = self
                .shared
                .index
                .write()
                .expect("index lock")
                .install_merged(&job, merged);
            if installed {
                self.shared.merges.fetch_add(1, Ordering::Relaxed);
            }
            // Not installed: the background thread won the race; loop and
            // re-plan against the new shape.
        }
    }

    /// Current structural epoch (advances on every seal and merge install).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.index.read().expect("index lock").epoch()
    }

    /// Total documents indexed.
    #[must_use]
    pub fn num_documents(&self) -> usize {
        self.shared
            .index
            .read()
            .expect("index lock")
            .num_documents()
    }

    /// Global id of `name`, if indexed.
    #[must_use]
    pub fn document_id(&self, name: &str) -> Option<DocId> {
        self.shared
            .index
            .read()
            .expect("index lock")
            .document_id(name)
    }

    /// Collapse the live index into one monolithic [`rambo_core::Rambo`]
    /// snapshot — the bridge back to the batch pipeline: feed the result
    /// to [`Catalog::builder`](crate::Catalog::builder) (via
    /// [`CatalogBuilder::base`](crate::CatalogBuilder::base)) to freeze
    /// the accumulated documents into fold-over serving tiers.
    ///
    /// # Errors
    /// Merge failures propagate.
    pub fn freeze(&self) -> Result<rambo_core::Rambo, RamboError> {
        self.shared
            .index
            .read()
            .expect("index lock")
            .to_monolithic()
    }

    /// Point-in-time stats snapshot.
    #[must_use]
    pub fn stats(&self) -> LiveStats {
        snapshot(self.shared)
    }

    fn nudge_merger(&self) {
        *self.shared.merge_due.lock().expect("merge signal") = true;
        self.shared.merge_cv.notify_all();
    }
}

fn snapshot(shared: &LiveShared) -> LiveStats {
    let (epoch, documents, generations, memtable_documents) = {
        let index = shared.index.read().expect("index lock");
        (
            index.epoch(),
            index.num_documents(),
            index.num_generations(),
            index.memtable_documents(),
        )
    };
    LiveStats {
        inserts: shared.inserts.load(Ordering::Relaxed),
        queries: shared.queries.load(Ordering::Relaxed),
        seals: shared.seals.load(Ordering::Relaxed),
        merges: shared.merges.load(Ordering::Relaxed),
        epoch,
        documents,
        generations,
        memtable_documents,
        read_p50: shared.read_latency.quantile(0.50),
        read_p99: shared.read_latency.quantile(0.99),
        write_p99: shared.write_latency.quantile(0.99),
        cache: shared.cache.as_ref().map(ResultCache::stats),
    }
}

/// Background merge thread: wait for a seal signal (or the poll timeout),
/// then plan under the read lock, OR-fold off-lock, and install under a
/// brief validated write lock, until the tiers are quiescent.
fn merge_loop(shared: &LiveShared) {
    while !shared.stop.load(Ordering::Relaxed) {
        {
            let due = shared.merge_due.lock().expect("merge signal");
            let (mut due, _) = shared
                .merge_cv
                .wait_timeout_while(due, MERGE_POLL, |due| {
                    !*due && !shared.stop.load(Ordering::Relaxed)
                })
                .expect("merge signal");
            *due = false;
        }
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            let job = {
                let index = shared.index.read().expect("index lock");
                index.merge_job()
            };
            let Some(job) = job else { break };
            // The heavy OR-fold + serialize runs with no lock held; readers
            // and writers proceed against the old shape.
            let Ok(merged) = job.run() else { break };
            let installed = shared
                .index
                .write()
                .expect("index lock")
                .install_merged(&job, merged);
            if installed {
                shared.merges.fetch_add(1, Ordering::Relaxed);
                // No cache bump: a merge is answer-preserving (bit-identity
                // with the monolith holds before and after), so cached
                // entries remain correct.
            }
        }
    }
}

/// Serve a [`LiveHandle`] over TCP until `stop` is set: the same
/// single-threaded readiness reactor as [`crate::serve_tcp`] (same framing,
/// `QUERY`/`STATS`/`HELLO` opcodes), plus the `MUTATE` opcode for live
/// inserts. Replies are computed inline during dispatch — inserts and
/// OR-fold queries are lock-bounded, not queue-bounded — so every pending
/// frame is ready the moment it is decoded.
///
/// # Errors
/// Propagates listener configuration errors and fatal accept failures;
/// per-connection I/O errors only end that connection.
pub fn serve_live_tcp(
    handle: &LiveHandle<'_>,
    listener: TcpListener,
    stop: &AtomicBool,
    options: &ServeOptions,
) -> io::Result<()> {
    run_reactor(
        &[&listener],
        stop,
        |_, conn| pump_live(conn, handle, options),
        || false,
    )
}

/// One reactor pass over a live-server connection. Mirrors the catalog
/// front's `pump`, minus collecting worker replies: live dispatch answers
/// immediately.
fn pump_live(conn: &mut Conn, handle: &LiveHandle<'_>, options: &ServeOptions) -> bool {
    let mut progress = conn_read(conn);
    if conn.dead {
        return progress;
    }

    let mut consumed = 0;
    while !conn.closing && conn.pending.len() < MAX_PIPELINED {
        let avail = &conn.inbuf[consumed..];
        if avail.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            conn.pending.push_back(PendingFrame::Ready(encode_response(
                STATUS_BAD_REQUEST,
                0,
                &[],
            )));
            conn.closing = true;
            break;
        }
        if avail.len() < 4 + len {
            break;
        }
        let frame = dispatch_live(conn, handle, options, consumed + 4, len);
        conn.pending.push_back(PendingFrame::Ready(frame));
        consumed += 4 + len;
        progress = true;
    }
    if consumed > 0 {
        conn.inbuf.drain(..consumed);
    }

    // Every live reply is already encoded; drain them in order.
    let mut pending = std::mem::take(&mut conn.pending);
    for front in pending.drain(..) {
        if let PendingFrame::Ready(bytes) = front {
            conn.outbuf.extend_from_slice(&bytes);
            progress = true;
        }
    }
    conn.pending = pending;

    progress | conn_flush(conn)
}

/// Dispatch one complete frame against the live handle, returning the
/// encoded reply.
fn dispatch_live(
    conn: &mut Conn,
    handle: &LiveHandle<'_>,
    options: &ServeOptions,
    offset: usize,
    len: usize,
) -> Vec<u8> {
    let payload = &conn.inbuf[offset..offset + len];
    if len == 1 && payload[0] == OPCODE_STATS {
        let text = handle.stats().to_string();
        let mut frame = Vec::with_capacity(4 + 1 + text.len());
        frame.extend_from_slice(&(1 + text.len() as u32).to_le_bytes());
        frame.push(STATUS_OK);
        frame.extend_from_slice(text.as_bytes());
        return frame;
    }
    if len == 1 && payload[0] == OPCODE_HELLO {
        return match &options.manifest {
            Some(manifest) => {
                let mut frame = Vec::with_capacity(4 + 1 + manifest.len());
                frame.extend_from_slice(&(1 + manifest.len() as u32).to_le_bytes());
                frame.push(STATUS_OK);
                frame.extend_from_slice(manifest);
                frame
            }
            None => {
                let mut frame = Vec::with_capacity(5);
                frame.extend_from_slice(&1u32.to_le_bytes());
                frame.push(STATUS_BAD_REQUEST);
                frame
            }
        };
    }
    if !payload.is_empty() && payload[0] == OPCODE_MUTATE {
        return match parse_mutate(payload) {
            None => {
                conn.closing = true;
                encode_response(STATUS_BAD_REQUEST, 0, &[])
            }
            Some((name, terms)) => match handle.insert_document(&name, &terms) {
                Ok(id) => encode_mutate_ok(id, handle.epoch()),
                // A refused insert (duplicate) is a clean, in-protocol
                // answer: the stream is intact, the connection stays open.
                Err(e) => encode_mutate_rejected(&e.to_string()),
            },
        };
    }
    match parse_request(payload) {
        None => {
            conn.closing = true;
            encode_response(STATUS_BAD_REQUEST, 0, &[])
        }
        Some((terms, opts)) => {
            let docs = handle.query(&terms, opts.mode);
            // The live index has no fold tiers; report tier 0.
            encode_response(STATUS_OK, 0, &docs)
        }
    }
}
