//! Simulated genome corpora, read streams and the exact oracle.
//!
//! The corpus *shape* is fixed — genome lengths, family sizes, document
//! names — and the seed drives only the sequence content, so every seed
//! yields an index of the same geometry and comparable sizes and rates.
//! Genome lengths are geometrically skewed (many small genomes, few large
//! ones) and genomes come in strain families that share most of their
//! k-mers, like the paper's archive of microbial assemblies.

use crate::schedule::Rng;
use crate::trace::{SpanId, Tracer};
use rambo_baselines::{InvertedIndex, MembershipIndex};
use rambo_core::{DocId, Rambo};
use rambo_kmer::sim::GenomeSimulator;
use rambo_kmer::{kmers_of, KmerSet};
use std::collections::HashSet;

/// k-mer length (the paper's 31-mers).
pub const K: usize = 31;
/// Read length of the sequence queries.
pub const READ_LEN: usize = 150;
/// Per-base mutation rate between strains of one family.
pub const STRAIN_DIVERGENCE: f64 = 0.01;

/// Shape of a simulated archive: length classes `base_len · 2^c` holding
/// `top_count / 2^c` genomes each, grouped into families of at most
/// `family` strains; every family also has one unindexed strain that
/// supplies negative reads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Length of the smallest genomes, bases.
    pub base_len: usize,
    /// Number of length classes.
    pub classes: u32,
    /// Genomes in the smallest class (halving per class).
    pub top_count: usize,
    /// Strains per family.
    pub family: usize,
}

/// One indexed document: a genome and its distinct k-mers.
#[derive(Debug, Clone)]
pub struct Genome {
    /// Document name (fixed by the shape, not the seed).
    pub name: String,
    /// Bases.
    pub seq: Vec<u8>,
    /// Distinct k-mers, sorted.
    pub kmers: Vec<u64>,
}

/// A generated archive.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Indexed genomes, in insertion order.
    pub docs: Vec<Genome>,
    /// Unindexed strains (sources of negative reads).
    pub held_out: Vec<Vec<u8>>,
}

impl Corpus {
    /// Generate the archive for `seed` inside a `corpus.generate` span,
    /// extracting k-mers under a child `kmer.extract` span per genome.
    #[must_use]
    pub fn generate(shape: Shape, seed: u64, tracer: &Tracer) -> Self {
        tracer.span("corpus.generate", None, 0, |parent| {
            Self::simulate(shape, seed, tracer, parent)
        })
    }

    fn simulate(shape: Shape, seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> Self {
        let mut sim = GenomeSimulator::new(seed ^ 0x6E0E_5EED);
        let mut docs = Vec::new();
        let mut held_out = Vec::new();
        for c in 0..shape.classes {
            let len = shape.base_len << c;
            let count = (shape.top_count >> c).max(1);
            let families = count.div_ceil(shape.family);
            for f in 0..families {
                let strains = shape.family.min(count - f * shape.family);
                let ancestor = sim.random_genome(len);
                for s in 0..strains {
                    let seq = sim.mutate(&ancestor, STRAIN_DIVERGENCE);
                    docs.push(Genome {
                        name: format!("c{c}-f{f}-s{s}"),
                        kmers: extract(&seq, tracer, parent),
                        seq,
                    });
                }
                held_out.push(sim.mutate(&ancestor, STRAIN_DIVERGENCE));
            }
        }
        Self { docs, held_out }
    }

    /// Total bases of the indexed genomes.
    #[must_use]
    pub fn bases(&self) -> usize {
        self.docs.iter().map(|g| g.seq.len()).sum()
    }

    /// Total (document, k-mer) pairs.
    #[must_use]
    pub fn terms(&self) -> usize {
        self.docs.iter().map(|g| g.kmers.len()).sum()
    }

    /// Mean distinct k-mers per document.
    #[must_use]
    pub fn mean_terms(&self) -> usize {
        self.terms() / self.docs.len().max(1)
    }

    /// `n` error-free reads, never repeated (no source position is drawn
    /// twice): even-numbered reads come from indexed genomes (uniform over
    /// documents), odd-numbered ones from the unindexed strains. Returns
    /// each read's k-mers in sequence order.
    #[must_use]
    pub fn reads(&self, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = Rng::new(seed, 0x4EAD);
        let mut drawn = HashSet::with_capacity(n);
        (0..n)
            .map(|i| loop {
                let indexed = i % 2 == 0;
                let (g, src): (usize, &[u8]) = if indexed {
                    let g = rng.below(self.docs.len());
                    (g, &self.docs[g].seq)
                } else {
                    let g = rng.below(self.held_out.len());
                    (g, &self.held_out[g])
                };
                let at = rng.below(src.len() - READ_LEN + 1);
                if drawn.insert((indexed, g, at)) {
                    break kmers_of(&src[at..at + READ_LEN], K, false).collect();
                }
            })
            .collect()
    }
}

/// Distinct sorted k-mers of one sequence, traced as `kmer.extract`.
#[must_use]
pub fn extract(seq: &[u8], tracer: &Tracer, parent: Option<SpanId>) -> Vec<u64> {
    tracer.span("kmer.extract", parent, 0, |_| {
        KmerSet::from_sequence(seq, K, false).kmers().to_vec()
    })
}

/// The exact oracle, restricted to the terms the queries use (postings of
/// those terms are exactly what a full inverted index would hold, at a
/// fraction of its memory).
pub struct Oracle {
    index: InvertedIndex,
}

impl Oracle {
    /// Build over `docs` (insertion order = document ids), keeping only
    /// terms that occur in `queries`.
    #[must_use]
    pub fn build<'a>(
        docs: impl IntoIterator<Item = &'a [u64]>,
        queries: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        let mut wanted: Vec<u64> = queries.into_iter().flatten().copied().collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut index = InvertedIndex::new();
        for terms in docs {
            index.push_document(
                terms
                    .iter()
                    .copied()
                    .filter(|t| wanted.binary_search(t).is_ok()),
            );
        }
        Self { index }
    }

    /// Documents holding every term (the true answer of a sequence query).
    #[must_use]
    pub fn truth(&self, terms: &[u64]) -> Vec<u32> {
        self.index.query_terms(terms)
    }

    /// Documents holding `term`.
    #[must_use]
    pub fn postings(&self, term: u64) -> &[u32] {
        self.index.postings(term)
    }
}

/// Whether sorted `answer` contains every id of sorted `truth`.
#[must_use]
pub fn is_superset(answer: &[DocId], truth: &[u32]) -> bool {
    truth.iter().all(|t| answer.binary_search(t).is_ok())
}

/// Per-document false-positive rate of single-term queries for terms that
/// are in no document: false-positive documents over (probes × documents).
/// Returns `(rate, probes, false positives)`.
#[must_use]
pub fn fpr_per_doc<'a>(
    index: &Rambo,
    oracle: &Oracle,
    negative_reads: impl IntoIterator<Item = &'a Vec<u64>>,
) -> (f64, u64, u64) {
    let mut probes = 0u64;
    let mut fps = 0u64;
    for read in negative_reads {
        for &t in read {
            if oracle.postings(t).is_empty() {
                probes += 1;
                fps += index.query_u64(t).len() as u64;
            }
        }
    }
    let rate = fps as f64 / (probes.max(1) as f64 * index.num_documents().max(1) as f64);
    (rate, probes, fps)
}

/// Per-document false-positive rate of single-term queries for `probes`
/// random 62-bit terms drawn from `seed` that are in none of `docs`:
/// false-positive documents over (probes × documents). Returns `(rate,
/// probes, false positives)`.
#[must_use]
pub fn fpr_random_probes<'a>(
    index: &Rambo,
    docs: impl IntoIterator<Item = &'a [u64]>,
    probes: usize,
    seed: u64,
) -> (f64, u64, u64) {
    let known: HashSet<u64> = docs.into_iter().flatten().copied().collect();
    let mut rng = Rng::new(seed, 0xF00D);
    let (mut made, mut fps) = (0u64, 0u64);
    while made < probes as u64 {
        let t = rng.next_u64() >> 2;
        if !known.contains(&t) {
            made += 1;
            fps += index.query_u64(t).len() as u64;
        }
    }
    let rate = fps as f64 / (made.max(1) as f64 * index.num_documents().max(1) as f64);
    (rate, made, fps)
}
