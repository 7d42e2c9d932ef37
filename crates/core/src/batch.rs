//! Batch-parallel ingestion and query engine.
//!
//! The term-at-a-time paths ([`Rambo::insert_term_u64`],
//! [`Rambo::query_terms_with`]) pay their full cost per term: every insertion
//! re-derives the document's bucket, hashes, and scatters `η` single-bit
//! writes across all `R` matrices; every query re-probes from scratch. At
//! RAMBO's design point — millions of k-mers per document, thousands of
//! queries per batch — both hot paths are dominated by redundant hashing and
//! cache-hostile write patterns.
//!
//! This module amortizes both:
//!
//! * **Ingestion** ([`Rambo::insert_document_batch`]): the document's term
//!   set is deduplicated once, each unique term is hashed once per
//!   repetition, the resulting filter positions are grouped (sorted) by
//!   matrix row so the bit writes walk each repetition's matrix
//!   monotonically, and the `R` independent tables fan out across scoped
//!   threads — the same per-table independence [`crate::sharded`] exploits
//!   across nodes. The produced index is **bit-identical** to term-at-a-time
//!   insertion (bit-setting is idempotent and commutative per table), which
//!   the property suite asserts via full `PartialEq`.
//! * **Query** ([`QueryBatch`]): many queries evaluated against one shared
//!   [`QueryContext`], with the `B`-bit bucket mask of every *(term,
//!   repetition)* pair memoized — a batch whose queries share terms (the
//!   common case for sequence workloads: overlapping k-mer windows) probes
//!   each distinct term's rows exactly once.

use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::query::{QueryContext, QueryMode};
use rambo_bitvec::BitVec;
use rambo_hash::{FastMap, HashPair};

/// Below this much per-table work (unique terms × η bit writes), thread
/// spawn/join overhead outweighs the parallel win and insertion stays on the
/// calling thread. Determinism is unaffected — the tables are independent.
const PARALLEL_MIN_WRITES: usize = 1 << 13;

/// Per-table matrix size above which staged writes are worth sorting by row:
/// once a table outgrows the last-level cache, random row writes are
/// DRAM-latency-bound and a sorted sweep (sequential, prefetchable) wins.
/// Below it the matrix is cache-resident and the O(n log n) sort costs more
/// than it saves, so the engine sweeps terms directly — still one repetition
/// at a time, which keeps a single table hot instead of cycling all `R`
/// matrices through the cache per term like the term-at-a-time path does.
/// Shared with [`crate::pipeline`]'s hash stage, which makes the same call.
pub(crate) const ROW_SORT_MIN_BYTES: usize = 24 << 20;

/// The machine's available parallelism, probed once (the syscall behind
/// `available_parallelism` is not free, and ingestion calls this per
/// document).
#[must_use]
pub fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

impl Rambo {
    /// Register a document and insert its whole term set through the batch
    /// engine, fanning the `R` repetitions out over up to
    /// `available_parallelism` threads for large documents.
    ///
    /// Produces an index bit-identical to [`Rambo::add_document`] followed by
    /// [`Rambo::insert_term_u64`] per term (duplicates included in the
    /// [`Rambo::total_inserts`] accounting, exactly like the loop would).
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    pub fn insert_document_batch(
        &mut self,
        name: &str,
        terms: &[u64],
    ) -> Result<DocId, RamboError> {
        self.insert_document_batch_with(name, terms, default_threads())
    }

    /// [`Rambo::insert_document_batch`] with an explicit thread budget
    /// (`threads == 1` forces fully sequential insertion; the result is
    /// identical either way).
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    ///
    /// # Panics
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn insert_document_batch_with(
        &mut self,
        name: &str,
        terms: &[u64],
        threads: usize,
    ) -> Result<DocId, RamboError> {
        let id = self.add_document(name)?;
        self.insert_terms_batch_with(id, terms, threads)?;
        Ok(id)
    }

    /// Insert a term batch for an already-registered document with an
    /// explicit thread budget.
    ///
    /// # Errors
    /// [`RamboError::UnknownDocument`] if `doc` was not issued by this index.
    ///
    /// # Panics
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn insert_terms_batch_with(
        &mut self,
        doc: DocId,
        terms: &[u64],
        threads: usize,
    ) -> Result<(), RamboError> {
        assert!(threads > 0, "need at least one thread");
        if doc as usize >= self.doc_names.len() {
            return Err(RamboError::UnknownDocument(doc));
        }
        if terms.is_empty() {
            return Ok(());
        }
        let mut owned: Vec<u64> = Vec::new();
        let unique = dedupe_terms(terms, &mut owned);

        let eta = self.params().eta;
        let m = self.params().bfu_bits as u64;
        // Disjoint field borrows: each worker owns one table exclusively.
        let seeds = &self.bloom_seeds;
        let tables = &mut self.tables;

        let spec = |seed: u64| RepInsert {
            seed,
            eta,
            m,
            row_sort_min_bytes: ROW_SORT_MIN_BYTES,
        };
        let per_table_writes = unique.len() * eta as usize;
        if threads == 1 || tables.len() == 1 || per_table_writes < PARALLEL_MIN_WRITES {
            let mut rows = Vec::new();
            for (table, &seed) in tables.iter_mut().zip(seeds) {
                insert_table(table, doc, unique, &mut rows, spec(seed));
            }
        } else {
            std::thread::scope(|scope| {
                // Chunk the R independent tables over at most `threads`
                // scoped workers (R is small — 2..8 — so this is the whole
                // fan-out; each worker is pure CPU on its own tables).
                let chunk = tables.len().div_ceil(threads);
                let mut handles = Vec::new();
                for (c, table_chunk) in tables.chunks_mut(chunk).enumerate() {
                    let seed_chunk = &seeds[c * chunk..c * chunk + table_chunk.len()];
                    handles.push(scope.spawn(move || {
                        let mut rows = Vec::new();
                        for (table, &seed) in table_chunk.iter_mut().zip(seed_chunk) {
                            insert_table(table, doc, unique, &mut rows, spec(seed));
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("batch insertion worker panicked");
                }
            });
        }
        // Multiplicity accounting matches the term-at-a-time loop.
        self.inserts += terms.len() as u64;
        Ok(())
    }
}

/// Dedupe a term batch once for all repetitions: Bloom insertion is
/// idempotent, so duplicates would only re-hash and re-write the same bits.
/// Inputs that are already strictly sorted (KmerSet output, the synthetic
/// archives) skip the sort entirely; otherwise `scratch` receives the
/// sorted-deduped copy and the returned slice borrows it. Shared by the
/// in-place batch engine and the [`crate::pipeline`] hash stage.
pub(crate) fn dedupe_terms<'a>(terms: &'a [u64], scratch: &'a mut Vec<u64>) -> &'a [u64] {
    if terms.windows(2).all(|w| w[0] < w[1]) {
        terms
    } else {
        scratch.clear();
        scratch.extend_from_slice(terms);
        scratch.sort_unstable();
        scratch.dedup();
        scratch
    }
}

/// Per-repetition insertion parameters shared by every table of one batch
/// (all but the Bloom seed are identical across repetitions).
#[derive(Clone, Copy)]
struct RepInsert {
    seed: u64,
    eta: u32,
    m: u64,
    row_sort_min_bytes: usize,
}

/// Insert one repetition's worth of a document batch: hash every unique term
/// once for this repetition's Bloom family and set the bucket's filter bits.
///
/// For cache-resident tables the terms are swept directly (the whole sweep
/// touches only this one matrix, so it stays hot). For tables past
/// `spec.row_sort_min_bytes` (normally [`ROW_SORT_MIN_BYTES`]) the
/// `(row, bucket-bit)` updates are staged and sorted by matrix row first,
/// turning DRAM-latency-bound random writes into a prefetchable sequential
/// walk.
fn insert_table(
    table: &mut crate::index::Table,
    doc: DocId,
    unique: &[u64],
    rows: &mut Vec<usize>,
    spec: RepInsert,
) {
    let bucket = table.assign[doc as usize] as usize;
    if table.matrix.size_bytes() < spec.row_sort_min_bytes {
        for &t in unique {
            let pair = HashPair::of_u64(t, spec.seed);
            table.matrix.insert(bucket, pair, spec.eta);
        }
    } else {
        rows.clear();
        rows.reserve(unique.len() * spec.eta as usize);
        for &t in unique {
            let pair = HashPair::of_u64(t, spec.seed);
            for i in 0..spec.eta {
                rows.push(pair.index(i, spec.m) as usize);
            }
        }
        rows.sort_unstable();
        table.matrix.set_rows(bucket, rows);
    }
}

/// LRU budget (in blob bytes) for the per-term mask memo, sized to a typical
/// server last-level cache: masks that outlive the LLC stop paying for
/// themselves (the memo's hash lookup costs more than the probe it saves
/// once the working set thrashes — see ROADMAP "mask-cache eviction").
const DEFAULT_MASK_CACHE_BYTES: usize = 32 << 20;

/// Sentinel link for the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// One resident entry's term and LRU links; its mask blob lives in the
/// shared [`MaskCache::blobs`] arena at `slot_index * blob_words`.
struct MaskSlot {
    term: u64,
    prev: u32,
    next: u32,
}

/// Bounded LRU memo: term → its `R` bucket masks as one flat
/// repetition-major word blob. A `FastMap` indexes into a slot arena that
/// doubles as an intrusive doubly-linked recency list, so get/insert/evict
/// are all O(1); blobs live side by side in one arena vector, so inserting
/// a cold term allocates nothing and terms memoized together (a query's
/// window) stay contiguous for the warm-path reads.
struct MaskCache {
    cap: usize,
    /// Words per blob — one geometry per cache.
    blob_words: usize,
    map: FastMap<u64, u32>,
    slots: Vec<MaskSlot>,
    /// Flat blob arena; slot `s` owns `blobs[s * blob_words..][..blob_words]`.
    blobs: Vec<u64>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (the eviction victim).
    tail: u32,
}

impl MaskCache {
    fn new(cap: usize, blob_words: usize) -> Self {
        let cap = cap.max(1);
        // Reserve the map, slot arena and blob arena up front (bounded for
        // pathological caps): growing them organically means rehash/realloc
        // pauses of hundreds of microseconds to milliseconds *during
        // serving* once the memo holds tens of thousands of terms — a
        // latency cliff in exactly the long-lived evaluators the memo
        // exists for. Reserved-but-unused pages are virtual and cost
        // nothing until touched.
        let reserve = cap.min(1 << 20);
        let mut map = FastMap::default();
        map.reserve(reserve);
        // Prefault the arenas (write-then-clear keeps the committed pages):
        // growing into untouched reserved pages takes a soft page fault per
        // 4 KiB, and a cold query inserting ~200 blobs crosses enough page
        // boundaries to smear hundreds of microseconds across the first
        // minutes of serving.
        let mut slots = Vec::new();
        slots.resize_with(reserve, || MaskSlot {
            term: 0,
            prev: NIL,
            next: NIL,
        });
        slots.clear();
        let mut blobs = vec![0u64; reserve * blob_words];
        blobs.clear();
        Self {
            cap,
            blob_words,
            map,
            slots,
            blobs,
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Detach a slot from the recency list.
    fn unlink(&mut self, s: u32) {
        let (prev, next) = (self.slots[s as usize].prev, self.slots[s as usize].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Attach a slot at the MRU end.
    fn push_front(&mut self, s: u32) {
        self.slots[s as usize].prev = NIL;
        self.slots[s as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    /// Hit-path lookup: bump the term to most-recently-used and return its
    /// blob, or `None` if not resident.
    fn get(&mut self, term: u64) -> Option<&[u64]> {
        let &s = self.map.get(&term)?;
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
        let start = s as usize * self.blob_words;
        Some(&self.blobs[start..start + self.blob_words])
    }

    /// Look up a term's blob (bumping it to most-recently-used), filling it
    /// via `fill` on a miss — one hash lookup on the hit path. At capacity
    /// the evicted entry's allocation is handed to `fill` for reuse, so a
    /// full cache stops allocating (`fill` must overwrite every word).
    fn get_or_insert_with(
        &mut self,
        term: u64,
        blob_words: usize,
        fill: impl FnOnce(&mut [u64]),
    ) -> &[u64] {
        debug_assert_eq!(blob_words, self.blob_words, "one geometry per cache");
        if let Some(&s) = self.map.get(&term) {
            if self.head != s {
                self.unlink(s);
                self.push_front(s);
            }
            let start = s as usize * self.blob_words;
            return &self.blobs[start..start + self.blob_words];
        }
        let s = if self.map.len() >= self.cap {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let slot = &mut self.slots[victim as usize];
            self.map.remove(&slot.term);
            slot.term = term;
            victim
        } else {
            let s = u32::try_from(self.slots.len()).expect("mask cache capacity exceeds u32");
            self.slots.push(MaskSlot {
                term,
                prev: NIL,
                next: NIL,
            });
            self.blobs.resize(self.blobs.len() + self.blob_words, 0);
            s
        };
        let start = s as usize * self.blob_words;
        fill(&mut self.blobs[start..start + self.blob_words]);
        self.map.insert(term, s);
        self.push_front(s);
        &self.blobs[start..start + self.blob_words]
    }

    /// Non-bumping membership probe (diagnostics/tests).
    fn contains(&self, term: u64) -> bool {
        self.map.contains_key(&term)
    }
}

/// Shared-scratch batch evaluator for Algorithm 2 with per-term bucket-mask
/// memoization.
///
/// Holds an immutable borrow of the index for its lifetime, so memoized
/// masks can never go stale (fold-over or insertion require `&mut Rambo`).
/// [`QueryMode::Full`] queries AND memoized per-term masks; RAMBO+
/// ([`QueryMode::Sparse`]) queries share the scratch context but skip the
/// mask cache — sparse evaluation only probes the buckets that still hold
/// candidates, so a full `B × R` mask would cost more than it saves.
///
/// The memo is **bounded**: an LRU policy caps resident blobs at a byte
/// budget defaulting to a last-level-cache-sized
/// `DEFAULT_MASK_CACHE_BYTES` (long-running servers would otherwise grow
/// the map without limit, and masks evicted from the LLC stop being
/// cheaper than a re-probe anyway). Use [`QueryBatch::with_mask_capacity`]
/// to tune the entry count directly.
///
/// The memo only pays when terms repeat across queries: overlapping
/// sequence windows, or many clients asking for the same k-mers, which is
/// why the server's micro-batching workers evaluate through it. On terms
/// that never repeat every query is a miss that probes all of its terms
/// (no early exit on a dead mask), then inserts and evicts each one; a
/// 120-term read on a 69 MB, `B = 8` index cost 4–5× a direct
/// [`Rambo::query_terms_with`] that way. Evaluate one-off queries directly.
///
/// ```
/// use rambo_core::{QueryBatch, QueryMode, Rambo, RamboParams};
///
/// let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 7)).unwrap();
/// let a = index.insert_document("doc-a", [1u64, 2, 3]).unwrap();
/// let b = index.insert_document("doc-b", [2u64, 3, 4]).unwrap();
///
/// // Queries sharing terms probe each distinct term's rows exactly once.
/// let mut batch = QueryBatch::new(&index);
/// let results = batch.run(&[vec![2], vec![2, 3], vec![4]], QueryMode::Full);
/// assert_eq!(results[0], vec![a, b]); // term 2 is in both documents
/// assert_eq!(results[1], vec![a, b]); // both contain {2, 3}
/// assert_eq!(results[2], vec![b]);
/// ```
pub struct QueryBatch<'i> {
    index: &'i Rambo,
    ctx: QueryContext,
    /// Bounded per-term mask memo (`R × ⌈B/64⌉` words per entry).
    masks: MaskCache,
    /// Cold-term scratch for the bulk miss fill: the deduplicated missing
    /// terms, their per-repetition hash pairs, and a rep-major mask staging
    /// area (reused across queries so the miss path never allocates).
    miss_terms: Vec<u64>,
    miss_pairs: Vec<HashPair>,
    miss_masks: Vec<u64>,
    /// Per-repetition combined-mask scratch (`R` masks of `B` bits), so the
    /// evaluation loop does one cache lookup per *term* rather than per
    /// `(term, repetition)`.
    rep_masks: Vec<BitVec>,
}

impl<'i> QueryBatch<'i> {
    /// Create an evaluator bound to `index`, with the default
    /// LLC-sized mask-cache budget.
    #[must_use]
    pub fn new(index: &'i Rambo) -> Self {
        let blob_bytes = index.repetitions() * (index.buckets() as usize).div_ceil(64) * 8;
        // Entry overhead: slot links + map entry, roughly one cache line.
        let cap = DEFAULT_MASK_CACHE_BYTES / (blob_bytes + 64).max(1);
        Self::with_mask_capacity(index, cap)
    }

    /// Create an evaluator whose mask memo holds at most `capacity` terms
    /// (clamped to at least 1); least-recently-used terms are evicted and
    /// transparently re-probed if queried again.
    #[must_use]
    pub fn with_mask_capacity(index: &'i Rambo, capacity: usize) -> Self {
        Self {
            index,
            ctx: QueryContext::new(),
            masks: MaskCache::new(
                capacity,
                index.repetitions() * (index.buckets() as usize).div_ceil(64),
            ),
            miss_terms: Vec::new(),
            miss_pairs: Vec::new(),
            miss_masks: Vec::new(),
            rep_masks: (0..index.repetitions())
                .map(|_| BitVec::zeros(index.buckets() as usize))
                .collect(),
        }
    }

    /// Number of distinct terms whose masks are currently memoized.
    #[must_use]
    pub fn memoized_terms(&self) -> usize {
        self.masks.len()
    }

    /// Maximum number of memoized terms before LRU eviction kicks in.
    #[must_use]
    pub fn mask_capacity(&self) -> usize {
        self.masks.cap
    }

    /// Is this term's mask currently resident? (Non-bumping; diagnostics.)
    #[must_use]
    pub fn is_memoized(&self, term: u64) -> bool {
        self.masks.contains(term)
    }

    /// Evaluate one query (Algorithm 2 semantics: a BFU matches only if it
    /// contains *all* terms). Returns exactly what
    /// [`Rambo::query_terms_with`] returns for the same inputs.
    #[must_use]
    pub fn query_terms(&mut self, terms: &[u64], mode: QueryMode) -> Vec<DocId> {
        match mode {
            QueryMode::Sparse => self.index.query_terms_with(terms, mode, &mut self.ctx),
            QueryMode::Full => self.query_full_memoized(terms),
        }
    }

    /// Evaluate a batch of queries, reusing scratch and memoized masks
    /// across all of them. Results are in input order.
    #[must_use]
    pub fn run<Q: AsRef<[u64]>>(&mut self, queries: &[Q], mode: QueryMode) -> Vec<Vec<DocId>> {
        queries
            .iter()
            .map(|q| self.query_terms(q.as_ref(), mode))
            .collect()
    }

    /// Full-mode evaluation over memoized masks. Probing rows for a term
    /// happens at most once per index lifetime; each query is then `R`
    /// word-wise mask ANDs plus the union/intersection walk.
    ///
    /// Cold terms are *deferred*: resident terms are consumed in a first
    /// pass, then every missing term's rows are probed in one interleaved
    /// bulk sweep per repetition ([`BfuMatrix::probe_pairs_into`]). A
    /// term-at-a-time fill serializes one random DRAM read behind another,
    /// which made a query's first sighting of a document ~3× slower than a
    /// memo-free evaluation — the bulk sweep overlaps the misses, so a cold
    /// query costs about the same as a direct one.
    fn query_full_memoized(&mut self, terms: &[u64]) -> Vec<DocId> {
        let index = self.index;
        let k = index.num_documents();
        if k == 0 || terms.is_empty() {
            return Vec::new();
        }
        let b = index.buckets() as usize;
        let eta = index.params().eta;
        let mask_words = b.div_ceil(64);
        let blob_words = index.repetitions() * mask_words;
        for mask in &mut self.rep_masks {
            mask.set_all();
        }
        // Pass 1: resident terms — one memo lookup each (disjoint-field
        // borrows: `masks` is the cache, `rep_masks` the accumulators),
        // ANDed straight into the repetition masks.
        self.miss_terms.clear();
        for &t in terms {
            let Some(blob) = self.masks.get(t) else {
                self.miss_terms.push(t);
                continue;
            };
            let mut all_live = true;
            for (rep, mask) in self.rep_masks.iter_mut().enumerate() {
                all_live &= mask.and_words_any(&blob[rep * mask_words..(rep + 1) * mask_words]);
            }
            if !all_live {
                // Some repetition's bucket mask died: its union is empty, so
                // the intersection is conclusively empty.
                return Vec::new();
            }
        }
        // Pass 2: cold terms, bulk-probed into a rep-major staging area,
        // then gathered into blobs. Each blob is memoized and consumed
        // immediately — consume-before-evict, so a query with more cold
        // terms than the memo capacity still evaluates correctly.
        if !self.miss_terms.is_empty() {
            self.miss_terms.sort_unstable();
            self.miss_terms.dedup();
            let n = self.miss_terms.len();
            self.miss_masks.clear();
            self.miss_masks.resize(n * blob_words, 0);
            for (rep, table) in index.tables.iter().enumerate() {
                self.miss_pairs.clear();
                let miss_terms = &self.miss_terms;
                self.miss_pairs
                    .extend(miss_terms.iter().map(|&t| index.hash_u64_rep(rep, t)));
                table.matrix.probe_pairs_into(
                    &self.miss_pairs,
                    eta,
                    &mut self.miss_masks[rep * n * mask_words..(rep + 1) * n * mask_words],
                );
            }
            let mut dead = false;
            for i in 0..n {
                let (t, miss_masks) = (self.miss_terms[i], &self.miss_masks);
                let blob = self.masks.get_or_insert_with(t, blob_words, |blob| {
                    for rep in 0..index.repetitions() {
                        let src = (rep * n + i) * mask_words;
                        blob[rep * mask_words..(rep + 1) * mask_words]
                            .copy_from_slice(&miss_masks[src..src + mask_words]);
                    }
                });
                // The rows are already probed, so the remaining terms stay
                // worth memoizing even after the result is known-empty.
                if dead {
                    continue;
                }
                let mut all_live = true;
                for (rep, mask) in self.rep_masks.iter_mut().enumerate() {
                    all_live &= mask.and_words_any(&blob[rep * mask_words..(rep + 1) * mask_words]);
                }
                dead = !all_live;
            }
            if dead {
                return Vec::new();
            }
        }
        self.ctx.ensure(k, b);
        let (acc, tbl, _) = self.ctx.full_mode_buffers();
        for (rep, table) in index.tables.iter().enumerate() {
            let mask = &self.rep_masks[rep];
            tbl.clear_all();
            for bucket in mask.iter_ones() {
                for &d in &table.buckets[bucket] {
                    tbl.set(d as usize);
                }
            }
            // Fused AND + liveness, mirroring the per-call evaluator.
            let live = if rep == 0 {
                acc.copy_from(tbl);
                acc.any()
            } else {
                acc.and_assign_any(tbl)
            };
            if !live {
                return Vec::new();
            }
        }
        acc.iter_ones()
            .filter(|&d| d < k)
            .map(|d| d as DocId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RamboParams;

    fn archive(k: usize, terms_per_doc: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 32;
                let mut ts: Vec<u64> = (0..terms_per_doc as u64).map(|t| base | t).collect();
                ts.push(0xFFFF); // shared term
                ts.push(base); // duplicate of term 0
                (format!("doc-{d}"), ts)
            })
            .collect()
    }

    fn params(seed: u64) -> RamboParams {
        RamboParams::flat(8, 4, 1 << 13, 2, seed)
    }

    #[test]
    fn batch_is_bit_identical_to_term_at_a_time() {
        let docs = archive(25, 60);
        for threads in [1, 4] {
            let mut serial = Rambo::new(params(9)).unwrap();
            let mut batch = Rambo::new(params(9)).unwrap();
            for (name, terms) in &docs {
                let d = serial.add_document(name).unwrap();
                for &t in terms {
                    serial.insert_term_u64(d, t).unwrap();
                }
                batch
                    .insert_document_batch_with(name, terms, threads)
                    .unwrap();
            }
            assert_eq!(serial, batch, "threads = {threads}");
            assert_eq!(serial.total_inserts(), batch.total_inserts());
        }
    }

    /// The row-sorted staged write path only engages for tables past
    /// [`ROW_SORT_MIN_BYTES`] in production; force it here (threshold 0) so
    /// the large-table branch is covered by the bit-identity guarantee too.
    #[test]
    fn row_sorted_write_path_is_bit_identical() {
        let docs = archive(12, 120);
        let mut serial = Rambo::new(params(21)).unwrap();
        let mut staged = Rambo::new(params(21)).unwrap();
        for (name, terms) in &docs {
            let d = serial.add_document(name).unwrap();
            for &t in terms {
                serial.insert_term_u64(d, t).unwrap();
            }

            let id = staged.add_document(name).unwrap();
            let mut unique = terms.clone();
            unique.sort_unstable();
            unique.dedup();
            let eta = staged.params().eta;
            let m = staged.params().bfu_bits as u64;
            let seeds = staged.bloom_seeds.clone();
            let mut rows = Vec::new();
            for (table, &seed) in staged.tables.iter_mut().zip(&seeds) {
                super::insert_table(
                    table,
                    id,
                    &unique,
                    &mut rows,
                    super::RepInsert {
                        seed,
                        eta,
                        m,
                        row_sort_min_bytes: 0,
                    },
                );
            }
            staged.inserts += terms.len() as u64;
        }
        assert_eq!(serial, staged, "staged row-sorted writes must be lossless");
    }

    #[test]
    fn parallel_fanout_crosses_the_threshold() {
        // Enough work per table to take the scoped-thread path.
        let big: Vec<u64> = (0..(super::PARALLEL_MIN_WRITES as u64)).collect();
        let mut seq = Rambo::new(params(3)).unwrap();
        let mut par = Rambo::new(params(3)).unwrap();
        seq.insert_document_batch_with("big", &big, 1).unwrap();
        par.insert_document_batch_with("big", &big, 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_rejects_duplicates_and_unknown_docs() {
        let mut r = Rambo::new(params(1)).unwrap();
        r.insert_document_batch("a", &[1, 2]).unwrap();
        assert!(matches!(
            r.insert_document_batch("a", &[3]),
            Err(RamboError::DuplicateDocument(_))
        ));
        assert!(matches!(
            r.insert_terms_batch_with(99, &[1], 1),
            Err(RamboError::UnknownDocument(99))
        ));
    }

    #[test]
    fn empty_batch_is_a_registered_empty_document() {
        let mut r = Rambo::new(params(2)).unwrap();
        let d = r.insert_document_batch("empty", &[]).unwrap();
        assert_eq!(r.num_documents(), 1);
        assert_eq!(r.total_inserts(), 0);
        assert!(r.query_u64(123).is_empty() || !r.query_u64(123).contains(&d));
    }

    #[test]
    fn query_batch_matches_per_call_results() {
        let docs = archive(30, 40);
        let mut r = Rambo::new(params(7)).unwrap();
        for (name, terms) in &docs {
            r.insert_document_batch(name, terms).unwrap();
        }
        // Single-term, multi-term, and absent-term queries, with repeats to
        // exercise memoization.
        let mut queries: Vec<Vec<u64>> = docs.iter().map(|(_, ts)| ts[..1].to_vec()).collect();
        queries.push(vec![0xFFFF]);
        queries.push(vec![0xFFFF]);
        queries.push(docs[3].1[..4].to_vec());
        queries.extend((0..20).map(|i| vec![0xDEAD_0000_0000u64 + i]));
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            let mut ctx = QueryContext::new();
            let expected: Vec<Vec<DocId>> = queries
                .iter()
                .map(|q| r.query_terms_with(q, mode, &mut ctx))
                .collect();
            let mut batch = QueryBatch::new(&r);
            let got = batch.run(&queries, mode);
            assert_eq!(got, expected, "mode {mode:?}");
        }
    }

    /// Eviction correctness: the memo never exceeds its capacity, evicts in
    /// LRU order (recency includes hits, not just inserts), and evicted
    /// terms are transparently re-probed with identical results.
    #[test]
    fn mask_cache_evicts_lru_and_stays_correct() {
        let docs = archive(20, 30);
        let mut r = Rambo::new(params(17)).unwrap();
        for (name, terms) in &docs {
            r.insert_document_batch(name, terms).unwrap();
        }
        let (a, b, c) = (docs[0].1[0], docs[1].1[0], docs[2].1[0]);

        let mut batch = QueryBatch::with_mask_capacity(&r, 2);
        assert_eq!(batch.mask_capacity(), 2);
        let res_a = batch.query_terms(&[a], QueryMode::Full);
        let res_b = batch.query_terms(&[b], QueryMode::Full);
        assert_eq!(batch.memoized_terms(), 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(batch.query_terms(&[a], QueryMode::Full), res_a);
        let res_c = batch.query_terms(&[c], QueryMode::Full);
        assert_eq!(batch.memoized_terms(), 2, "capacity is a hard bound");
        assert!(batch.is_memoized(a), "recently hit entry must survive");
        assert!(!batch.is_memoized(b), "LRU entry must be evicted");
        assert!(batch.is_memoized(c));
        // Evicted term re-probes to the same answer.
        assert_eq!(batch.query_terms(&[b], QueryMode::Full), res_b);
        assert!(batch.is_memoized(b) && !batch.is_memoized(a));
        assert_eq!(batch.query_terms(&[c], QueryMode::Full), res_c);

        // A query with more distinct terms than the capacity still equals
        // the per-call evaluator (consume-before-evict).
        let wide: Vec<u64> = docs.iter().take(6).map(|(_, ts)| ts[0]).collect();
        let mut ctx = QueryContext::new();
        assert_eq!(
            batch.query_terms(&wide, QueryMode::Full),
            r.query_terms_with(&wide, QueryMode::Full, &mut ctx)
        );
        assert_eq!(batch.memoized_terms(), 2);
    }

    #[test]
    fn mask_cache_capacity_is_clamped_to_one() {
        let docs = archive(5, 10);
        let mut r = Rambo::new(params(19)).unwrap();
        for (name, terms) in &docs {
            r.insert_document_batch(name, terms).unwrap();
        }
        let mut batch = QueryBatch::with_mask_capacity(&r, 0);
        assert_eq!(batch.mask_capacity(), 1);
        let mut ctx = QueryContext::new();
        for (_, terms) in &docs {
            let q = &terms[..2];
            assert_eq!(
                batch.query_terms(q, QueryMode::Full),
                r.query_terms_with(q, QueryMode::Full, &mut ctx)
            );
            assert_eq!(batch.memoized_terms(), 1);
        }
    }

    #[test]
    fn default_mask_capacity_is_llc_sized() {
        let r = Rambo::new(params(23)).unwrap();
        let batch = QueryBatch::new(&r);
        let blob_bytes = r.repetitions() * (r.buckets() as usize).div_ceil(64) * 8;
        assert_eq!(
            batch.mask_capacity(),
            super::DEFAULT_MASK_CACHE_BYTES / (blob_bytes + 64)
        );
    }

    #[test]
    fn query_batch_memoizes_unique_terms() {
        let docs = archive(10, 20);
        let mut r = Rambo::new(params(5)).unwrap();
        for (name, terms) in &docs {
            r.insert_document_batch(name, terms).unwrap();
        }
        let mut batch = QueryBatch::new(&r);
        let q = vec![0xFFFFu64];
        for _ in 0..50 {
            let hits = batch.query_terms(&q, QueryMode::Full);
            assert_eq!(hits.len(), 10);
        }
        assert_eq!(
            batch.memoized_terms(),
            1,
            "repeat queries must hit the memo"
        );
    }
}
