//! `offline_bc2gm`: Algorithm 1 once, as in Table I, with the
//! BANNER-ChemDNER base on the BC2GM profile.
//!
//! Set-up generates the corpus and the unlabelled pool and trains the
//! distributional resources; each timed round is `GraphNer::train` then
//! `GraphNer::test`.

use crate::check::{check_knn_sample, checked_f_score, same_predictions, Failures};
use crate::replica::Replica;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{mix, peak_rss_mb, secs, worker_share, Args, Metric, Outcome, Sheet, SETUPS};
use graphner_banner::{DistributionalConfig, DistributionalResources, NerConfig};
use graphner_core::{build_vertex_vectors, knn_from_vectors, GraphNer, GraphNerConfig};
use graphner_corpusgen::{generate, generate_unlabelled, CorpusProfile, GeneratedCorpus};
use graphner_crf::{Order, TrainConfig};
use graphner_embed::{BrownConfig, KMeansConfig, SgnsConfig};
use graphner_text::{Corpus, Sentence, TrigramInterner};
use std::time::Instant;

/// Corpus size as a fraction of the paper's 15 000 / 5 000 sentences.
const SCALE: f64 = 0.05;

/// Vertices whose kNN rows are checked against a brute-force scan.
const KNN_SAMPLE: usize = 24;

/// L-BFGS iterations per CRF training.
const LBFGS_ITERATIONS: usize = 60;

/// The experiment binaries' base tagger settings, except that training
/// runs a fixed number of L-BFGS iterations (convergence tests off) and
/// drops features seen once: where training stops, and how many
/// singleton features a corpus has, would otherwise make the training
/// work differ from seed to seed by more than the bounds.
pub fn ner_config() -> NerConfig {
    NerConfig {
        order: Order::One,
        train: TrainConfig {
            l2: 1.0,
            max_iterations: LBFGS_ITERATIONS,
            grad_tol: 0.0,
            f_tol: 0.0,
            ..Default::default()
        },
        min_feature_count: 2,
    }
}

struct Inputs {
    corpus: GeneratedCorpus,
    test: Corpus,
    dist: DistributionalResources,
}

fn setup(seed: u64, tr: &mut Tracer) -> Inputs {
    let mut profile = CorpusProfile::bc2gm().scaled(SCALE);
    profile.seed = mix(seed, 1);
    let corpus = generate(&profile);
    let test = corpus.test.without_tags();
    // "abundant unlabelled data": the corpus text plus twice as much
    // freshly generated text, as the experiment binaries use
    let mut pool = corpus.train.without_tags();
    pool.sentences.extend(test.sentences.iter().cloned());
    let extra = generate_unlabelled(&profile, corpus.train.len() * 2, mix(seed, 2));
    pool.sentences.extend(extra.sentences);
    let cfg = DistributionalConfig {
        brown: BrownConfig { num_clusters: 40, min_count: 2 },
        sgns: SgnsConfig { dim: 32, epochs: 3, min_count: 2, ..Default::default() },
        kmeans: KMeansConfig { k: 24, ..Default::default() },
    };
    let dist = tr.span("embed.resources", || DistributionalResources::train(&pool, &cfg));
    Inputs { corpus, test, dist }
}

fn config() -> GraphNerConfig {
    GraphNerConfig::table_iv("BC2GM", true)
}

/// Rebuild the test graph from the public calls and check a seeded
/// sample of its rows against a brute-force scan.
fn knn_check(gner: &GraphNer, inputs: &Inputs, seed: u64, edges: usize) -> Result<(), String> {
    let all: Vec<&Sentence> =
        inputs.corpus.train.sentences.iter().chain(inputs.test.sentences.iter()).collect();
    let mut interner = TrigramInterner::new();
    let cfg = config();
    let vectors = build_vertex_vectors(gner.base(), &mut interner, &all, cfg.feature_set);
    let graph = knn_from_vectors(&vectors, cfg.k);
    if graph.num_edges() != edges {
        return Err(format!(
            "rebuilt graph has {} edges, test reported {edges}",
            graph.num_edges()
        ));
    }
    let n = graph.num_vertices() as u64;
    let sample: Vec<u32> =
        (0..KNN_SAMPLE as u64).map(|i| (mix(seed, 100 + i) % n) as u32).collect();
    check_knn_sample(&vectors, &graph, &sample)
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = Some(setup(args.seed, &mut Tracer::new(false)));
        setup_s.push(secs(t));
    }
    let inputs = inputs.expect("at least one set-up");
    let cfg = config();
    let ner = ner_config();
    let mut failures = Failures::default();

    let (mut train_s, mut test_s, mut round_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(GraphNer, graphner_core::TestOutput)> = None;
    let window = Instant::now();
    while secs(window) < args.seconds || round_s.len() < 2 {
        let dist = inputs.dist.clone();
        let t = Instant::now();
        let (gner, trained) = GraphNer::train(&inputs.corpus.train, &ner, Some(dist), cfg.clone());
        let t_train = secs(t);
        let out = gner.test(&inputs.test);
        let t_round = secs(t);
        eprintln!(
            "round {}: train {t_train:.4} s ({} L-BFGS iterations, {:?}), test {:.4} s",
            round_s.len(),
            trained.report.iterations,
            trained.report.reason,
            t_round - t_train
        );
        train_s.push(t_train);
        test_s.push(t_round - t_train);
        round_s.push(t_round);
        match &first {
            None => first = Some((gner, out)),
            Some((_, out0)) => failures.record(same_predictions(
                "repeated round",
                &out.predictions,
                &out0.predictions,
            )),
        }
    }
    let (gner, out) = first.expect("at least one round");
    let f = checked_f_score(
        &inputs.corpus.test,
        &out.predictions,
        &inputs.corpus.test_gold,
        &mut failures,
    );
    failures.record(knn_check(&gner, &inputs, args.seed, out.stats.num_edges));
    failures.report();

    let test_med = median(&test_s).expect("rounds ran");
    let metrics = vec![
        Metric { name: "setup_s", value: median(&setup_s).expect("set-ups ran"), unit: "s" },
        Metric { name: "train_s", value: median(&train_s).expect("rounds ran"), unit: "s" },
        Metric { name: "test_s", value: test_med, unit: "s" },
        Metric {
            name: "latency_p50_ms",
            value: 1e3 * median(&round_s).expect("rounds ran"),
            unit: "ms",
        },
        Metric { name: "sentences_per_s", value: inputs.test.len() as f64 / test_med, unit: "1/s" },
        Metric { name: "f_score", value: f, unit: "F1" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MiB" },
    ];
    Outcome {
        correct: failures.is_empty(),
        attempted: 2 * round_s.len() as u64,
        failed: 0,
        metrics,
    }
}

/// Untraced rounds for reference, then the same round traced: train
/// inside a `crf.train` span and TEST through the replica.
fn run_traced(args: &Args) -> Outcome {
    let mut tr = Tracer::new(true);
    let inputs = setup(args.seed, &mut tr);
    let cfg = config();
    let ner = ner_config();
    let mut failures = Failures::default();

    // the first round in a process runs slower (allocator warm-up), so
    // the untraced reference is the second of two
    let untraced = || {
        let dist = inputs.dist.clone();
        let t = Instant::now();
        let (gner, _) = GraphNer::train(&inputs.corpus.train, &ner, Some(dist), cfg.clone());
        let out = gner.test(&inputs.test);
        (out, secs(t))
    };
    let _ = untraced();
    let (reference, untraced_s) = untraced();

    let dist = inputs.dist.clone();
    let pool_before = rayon::pool_stats();
    let root = tr.enter("offline.round");
    let (gner, train_out) = tr
        .span("crf.train", || GraphNer::train(&inputs.corpus.train, &ner, Some(dist), cfg.clone()));
    let mut replica = Replica::new(&gner, &inputs.corpus.train, &inputs.test);
    let row = replica.run(&mut tr, &cfg);
    tr.exit(root);
    let share = worker_share(&pool_before);

    failures.record(same_predictions(
        "replica predictions",
        &row.predictions,
        &reference.predictions,
    ));
    failures.record(same_predictions(
        "replica base predictions",
        &row.base_predictions,
        &reference.base_predictions,
    ));
    let mut sheet = Sheet::default();
    sheet.set_span_times(tr.spans());
    let adds_up = sheet.set_root(tr.spans(), root.expect("traced"), untraced_s);
    if !adds_up {
        failures.record(Err("layer self times plus remainder do not add up".into()));
    }
    sheet.set("crf.lbfgs_iterations", train_out.report.iterations as f64);
    replica.counts.report(&mut sheet);
    sheet.set("pool.chunks_on_workers_share", share);
    crate::write_spans(&args.workload, &tr);
    failures.report();
    Outcome { correct: failures.is_empty(), attempted: 2, failed: 0, metrics: sheet.into_metrics() }
}
