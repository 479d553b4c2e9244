//! Algorithm 1's TEST rebuilt from the public call of each layer, with
//! a span around every call, for the traced runs.
//!
//! `GraphNer::test` and `TestSession::run` give no view of their
//! stages from outside, so the traced run performs the same work layer
//! by layer: BANNER featurization, CRF forward–backward, PMI vectors,
//! kNN, averaging, propagation, interpolation + Viterbi and the base
//! Viterbi re-decode. Its predictions are checked against the program's
//! own on the same inputs, so the decomposition is known to do the same
//! work. Artifacts are cached like the program's session caches them,
//! so a replayed sweep builds each vector set and graph once.
//!
//! One input cannot be reached from outside: the model's `X_ref` slice.
//! The replica rebuilds it from the training corpus's gold tags (the
//! same per-trigram averages `GraphNer::train` stores) without a span,
//! so its time stays in the unattributed remainder. So do the graph
//! statistics and the glue between calls.

use crate::trace::Tracer;
use crate::Sheet;
use graphner_core::pipeline::{AverageStage, CorpusPosteriors, DecodeStage, PropagateStage};
use graphner_core::{
    build_vertex_vectors, knn_from_vectors, GraphFeatureSet, GraphNer, GraphNerConfig, GraphStats,
};
use graphner_crf::{viterbi_tags, SentenceFeatures};
use graphner_graph::{KnnGraph, LabelDist, Partition, ShardSize, SparseVec};
use graphner_text::{BioTag, Corpus, Sentence, TrigramInterner, NUM_TAGS};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Deterministic work counts gathered while the replica runs.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub tokens_featurized: u64,
    pub features_fired: u64,
    pub lattice_cells: u64,
    pub pmi_nnz: u64,
    pub knn_candidate_pairs: u64,
    pub vertices: u64,
    pub edges: u64,
    pub propagate_sweeps: u64,
    pub vectors_built: u64,
    pub graphs_built: u64,
}

impl Counts {
    /// The counts as per-layer metrics.
    pub fn report(&self, sheet: &mut Sheet) {
        sheet.set(
            "banner.features_per_token",
            self.features_fired as f64 / self.tokens_featurized.max(1) as f64,
        );
        sheet.set("crf.lattice_cells", self.lattice_cells as f64);
        sheet.set("graph.pmi_nnz", self.pmi_nnz as f64);
        sheet.set("graph.knn_candidate_pairs", self.knn_candidate_pairs as f64);
        sheet.set(
            "graph.knn_edges_per_candidate",
            self.edges as f64 / self.knn_candidate_pairs.max(1) as f64,
        );
        sheet.set("graph.vertices", self.vertices as f64);
        sheet.set("graph.edges", self.edges as f64);
        sheet.set("graph.propagate_sweeps", self.propagate_sweeps as f64);
        sheet.set("core.vectors_built", self.vectors_built as f64);
        sheet.set("core.graphs_built", self.graphs_built as f64);
    }
}

type FsKey = (u8, u64);

/// The replica's artifact cache over one (model, test corpus) pair.
pub struct Replica<'a> {
    model: &'a GraphNer,
    train: &'a Corpus,
    test: &'a Corpus,
    interner: TrigramInterner,
    posteriors: Option<CorpusPosteriors>,
    vectors: BTreeMap<FsKey, Vec<SparseVec>>,
    graphs: BTreeMap<(FsKey, usize), (KnnGraph, Partition)>,
    averaged: Option<Vec<LabelDist>>,
    x_ref: Option<Vec<Option<LabelDist>>>,
    pub counts: Counts,
}

/// One row's outputs.
pub struct RowOut {
    pub predictions: Vec<Vec<BioTag>>,
    pub base_predictions: Vec<Vec<BioTag>>,
}

impl<'a> Replica<'a> {
    /// `train` must be the corpus `model` was trained on.
    pub fn new(model: &'a GraphNer, train: &'a Corpus, test: &'a Corpus) -> Replica<'a> {
        Replica {
            model,
            train,
            test,
            interner: TrigramInterner::new(),
            posteriors: None,
            vectors: BTreeMap::new(),
            graphs: BTreeMap::new(),
            averaged: None,
            x_ref: None,
            counts: Counts::default(),
        }
    }

    fn all_sentences(&self) -> Vec<&'a Sentence> {
        self.train.sentences.iter().chain(self.test.sentences.iter()).collect()
    }

    fn ensure_posteriors(&mut self, tr: &mut Tracer) {
        if self.posteriors.is_some() {
            return;
        }
        let base = self.model.base();
        let all = self.all_sentences();
        let feats: Vec<SentenceFeatures> =
            tr.span("banner.featurize", || all.par_iter().map(|s| base.featurize(s)).collect());
        let per_sentence: Vec<Vec<LabelDist>> = tr.span("crf.posteriors", || {
            feats
                .par_iter()
                .map(|f| if f.is_empty() { Vec::new() } else { base.crf().posteriors(f) })
                .collect()
        });
        let states = base.crf().num_states() as u64;
        for f in &feats {
            self.counts.tokens_featurized += f.len() as u64;
            self.counts.features_fired += f.obs.iter().map(|o| o.len() as u64).sum::<u64>();
            self.counts.lattice_cells += f.len() as u64 * states;
        }
        self.posteriors = Some(CorpusPosteriors { per_sentence, num_train: self.train.len() });
    }

    fn ensure_graph(&mut self, tr: &mut Tracer, fs: GraphFeatureSet, k: usize) {
        let key = fs.cache_key();
        if self.graphs.contains_key(&(key, k)) {
            return;
        }
        if !self.vectors.contains_key(&key) {
            let all = self.all_sentences();
            let base = self.model.base();
            let interner = &mut self.interner;
            // the MI pass runs inside the vector build and cannot be
            // called apart from it without running it twice
            let name = match fs {
                GraphFeatureSet::MiThreshold(_) => "graph.mi_filter",
                _ => "graph.vectors",
            };
            let v = tr.span(name, || build_vertex_vectors(base, interner, &all, fs));
            self.counts.pmi_nnz += v.iter().map(|x| x.nnz() as u64).sum::<u64>();
            self.counts.vectors_built += 1;
            self.vectors.insert(key, v);
        }
        let vectors = &self.vectors[&key];
        let pairs_before = graphner_obs::counter("knn.candidate_pairs").get();
        let graph = tr.span("graph.knn", || knn_from_vectors(vectors, k));
        self.counts.knn_candidate_pairs +=
            graphner_obs::counter("knn.candidate_pairs").get() - pairs_before;
        self.counts.vertices += graph.num_vertices() as u64;
        self.counts.edges += graph.num_edges() as u64;
        self.counts.graphs_built += 1;
        let partition = Partition::new(&graph, ShardSize::Auto);
        self.graphs.insert((key, k), (graph, partition));
    }

    fn ensure_averaged(&mut self, tr: &mut Tracer) {
        if self.averaged.is_some() {
            return;
        }
        let (model, test, interner) = (self.model, self.test, &self.interner);
        let posteriors = self.posteriors.as_ref().expect("posteriors run before averaging");
        self.averaged =
            Some(tr.span("core.average", || AverageStage::run(model, test, posteriors, interner)));
        // X_ref: not reachable from outside the model, rebuilt here from
        // the gold tags without a span (it stays in the remainder)
        let mut sums = vec![([0.0f64; NUM_TAGS], 0.0f64); self.interner.len()];
        for s in &self.train.sentences {
            let tags = s.tags.as_ref().expect("labelled training corpus");
            for (i, tag) in tags.iter().enumerate() {
                let v = self.interner.lookup_at(s, i).expect("train trigrams are interned");
                sums[v as usize].0[tag.index()] += 1.0;
                sums[v as usize].1 += 1.0;
            }
        }
        self.x_ref = Some(
            sums.into_iter()
                .map(|(c, n)| {
                    (n > 0.0).then(|| {
                        let mut d = [0.0; NUM_TAGS];
                        for (dy, cy) in d.iter_mut().zip(c) {
                            *dy = cy / n;
                        }
                        d
                    })
                })
                .collect(),
        );
    }

    /// TEST under `cfg`, reusing what earlier rows built. The transition
    /// knobs of `cfg` must be the model's own.
    pub fn run(&mut self, tr: &mut Tracer, cfg: &GraphNerConfig) -> RowOut {
        assert!(
            cfg.trans_add_k == self.model.config().trans_add_k
                && cfg.trans_power == self.model.config().trans_power
                && cfg.trans_ratio_cap == self.model.config().trans_ratio_cap,
            "rows vary graph and propagation knobs only"
        );
        self.ensure_posteriors(tr);
        self.ensure_graph(tr, cfg.feature_set, cfg.k);
        self.ensure_averaged(tr);
        let (graph, partition) = &self.graphs[&(cfg.feature_set.cache_key(), cfg.k)];
        let x_ref = self.x_ref.as_ref().expect("built with the averages");
        let averaged = self.averaged.as_ref().expect("built above");
        let posteriors = self.posteriors.as_ref().expect("built above");
        let mut x = averaged.clone();
        let report = tr
            .span("graph.propagate", || PropagateStage::run(graph, partition, &mut x, x_ref, cfg));
        self.counts.propagate_sweeps += report.iterations as u64;
        let transitions = self.model.transitions();
        let test_post = posteriors.test();
        let (test, interner) = (self.test, &self.interner);
        let predictions = tr.span("core.decode", || {
            DecodeStage::run(test, test_post, interner, &x, cfg.alpha, &transitions)
        });
        let base_predictions = tr.span("crf.viterbi", || {
            test_post.par_iter().map(|p| viterbi_tags(p, &transitions)).collect::<Vec<_>>()
        });
        let _ = GraphStats::compute(graph, x_ref, partition);
        RowOut { predictions, base_predictions }
    }
}
