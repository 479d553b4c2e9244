//! `sweep_aml`: Table III/IV-style ablation rows through one
//! `TestSession`, with the plain BANNER base on the AML profile.
//!
//! Set-up generates the corpus and trains the model; each timed
//! operation is one whole sweep over [`rows`] on a fresh session, so
//! the session's caches are built and reused inside the operation.

use crate::check::{checked_f_score, same_predictions, Failures};
use crate::offline::ner_config;
use crate::replica::Replica;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{mix, peak_rss_mb, secs, Args, Metric, Outcome, Sheet, SETUPS};
use graphner_core::{GraphFeatureSet, GraphNer, GraphNerConfig, TestOutput, TestSession};
use graphner_corpusgen::{generate, CorpusProfile, GeneratedCorpus};
use graphner_text::Corpus;
use std::time::Instant;

/// Corpus size as a fraction of the paper's 10 504 / 3 952 sentences.
const SCALE: f64 = 0.1;

/// The MI threshold of the `MI > τ` rows.
const MI_TAU: f64 = 0.005;

/// Index of the α = 1 row, whose predictions must equal the base
/// predictions.
const ALPHA_ONE_ROW: usize = 7;

/// Index of the row re-run through a fresh `reconfigured(cfg).test()`.
const FRESH_ROW: usize = 3;

/// The ablation rows: feature sets × K, then an α / μ / ν / sweep-count
/// grid on the Table IV base.
fn rows() -> Vec<GraphNerConfig> {
    let base = GraphNerConfig::table_iv("AML", false);
    let with = |f: &dyn Fn(&mut GraphNerConfig)| {
        let mut c = base.clone();
        f(&mut c);
        c
    };
    vec![
        base.clone(),
        with(&|c| c.k = 5),
        with(&|c| c.feature_set = GraphFeatureSet::Lexical),
        with(&|c| {
            c.feature_set = GraphFeatureSet::Lexical;
            c.k = 5
        }),
        with(&|c| c.feature_set = GraphFeatureSet::MiThreshold(MI_TAU)),
        with(&|c| {
            c.feature_set = GraphFeatureSet::MiThreshold(MI_TAU);
            c.k = 5
        }),
        with(&|c| c.alpha = 0.5),
        with(&|c| c.alpha = 1.0),
        with(&|c| {
            c.propagation.mu = 1e-4;
            c.propagation.nu = 1e-4
        }),
        with(&|c| c.propagation.iterations = 6),
    ]
}

struct Inputs {
    corpus: GeneratedCorpus,
    test: Corpus,
    gner: GraphNer,
}

fn setup(seed: u64, tr: &mut Tracer) -> (Inputs, usize) {
    let mut profile = CorpusProfile::aml().scaled(SCALE);
    profile.seed = mix(seed, 11);
    let corpus = generate(&profile);
    let test = corpus.test.without_tags();
    let (gner, out) = tr.span("crf.train", || {
        GraphNer::train(&corpus.train, &ner_config(), None, GraphNerConfig::table_iv("AML", false))
    });
    (Inputs { corpus, test, gner }, out.report.iterations)
}

/// Row outputs and the time of each row.
fn sweep(inputs: &Inputs, rows: &[GraphNerConfig]) -> (Vec<TestOutput>, Vec<f64>, usize, usize) {
    let mut session = TestSession::new(&inputs.gner, &inputs.test);
    let mut outs = Vec::with_capacity(rows.len());
    let mut times = Vec::with_capacity(rows.len());
    for cfg in rows {
        let t = Instant::now();
        outs.push(session.run(cfg));
        times.push(secs(t));
    }
    (outs, times, session.cached_vector_count(), session.cached_graph_count())
}

/// Property checks on one sweep and its mean F-score over rows.
fn check_sweep(
    inputs: &Inputs,
    rows: &[GraphNerConfig],
    outs: &[TestOutput],
    failures: &mut Failures,
) -> f64 {
    let a1 = &outs[ALPHA_ONE_ROW];
    failures.record(same_predictions(
        "alpha = 1 row vs base predictions",
        &a1.predictions,
        &a1.base_predictions,
    ));
    let fresh = inputs.gner.reconfigured(rows[FRESH_ROW].clone()).test(&inputs.test);
    failures.record(same_predictions(
        "session row vs fresh reconfigured test",
        &outs[FRESH_ROW].predictions,
        &fresh.predictions,
    ));
    let total: f64 = outs
        .iter()
        .map(|o| {
            checked_f_score(&inputs.corpus.test, &o.predictions, &inputs.corpus.test_gold, failures)
        })
        .sum();
    total / outs.len() as f64
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let rows = rows();
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut tr = Tracer::new(true);
        let (i, _) = setup(args.seed, &mut tr);
        setup_s.push(secs(t));
        train_s.push(tr.spans()[0].seconds());
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut failures = Failures::default();

    let (mut sweep_s, mut first_row_s) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<TestOutput>> = None;
    let mut counts = (0, 0);
    let window = Instant::now();
    while secs(window) < args.seconds || sweep_s.len() < 2 {
        let (outs, times, vectors, graphs) = sweep(&inputs, &rows);
        sweep_s.push(times.iter().sum::<f64>());
        first_row_s.push(times[0]);
        counts = (vectors, graphs);
        match &first {
            None => first = Some(outs),
            Some(outs0) => {
                for (a, b) in outs.iter().zip(outs0) {
                    failures.record(same_predictions(
                        "repeated sweep",
                        &a.predictions,
                        &b.predictions,
                    ));
                }
            }
        }
    }
    let outs = first.expect("at least one sweep");
    let f = check_sweep(&inputs, &rows, &outs, &mut failures);
    if counts != (3, 6) {
        failures.record(Err(format!(
            "session cached {counts:?} vector sets / graphs, expected (3, 6)"
        )));
    }
    failures.report();

    let sweep_med = median(&sweep_s).expect("sweeps ran");
    let metrics = vec![
        Metric { name: "setup_s", value: median(&setup_s).expect("set-ups ran"), unit: "s" },
        Metric { name: "train_s", value: median(&train_s).expect("set-ups ran"), unit: "s" },
        Metric { name: "test_s", value: median(&first_row_s).expect("sweeps ran"), unit: "s" },
        Metric { name: "latency_p50_ms", value: 1e3 * sweep_med, unit: "ms" },
        Metric {
            name: "sentences_per_s",
            value: (rows.len() * inputs.test.len()) as f64 / sweep_med,
            unit: "1/s",
        },
        Metric { name: "f_score", value: f, unit: "F1" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MiB" },
    ];
    Outcome {
        correct: failures.is_empty(),
        attempted: (sweep_s.len() * rows.len()) as u64,
        failed: 0,
        metrics,
    }
}

/// Untraced sweeps for reference, then the same rows traced through
/// the replica's cache.
fn run_traced(args: &Args) -> Outcome {
    let rows = rows();
    let mut tr = Tracer::new(true);
    let (inputs, iterations) = setup(args.seed, &mut tr);
    let mut failures = Failures::default();

    // the second of two untraced sweeps, past the process's warm-up
    let _ = sweep(&inputs, &rows);
    let (reference, times, _, _) = sweep(&inputs, &rows);
    let untraced_s: f64 = times.iter().sum();

    let root = tr.enter("sweep");
    let mut replica = Replica::new(&inputs.gner, &inputs.corpus.train, &inputs.test);
    let outs: Vec<_> = rows.iter().map(|cfg| replica.run(&mut tr, cfg)).collect();
    tr.exit(root);

    for (row, r) in outs.iter().zip(&reference) {
        failures.record(same_predictions("replica row", &row.predictions, &r.predictions));
        failures.record(same_predictions(
            "replica base row",
            &row.base_predictions,
            &r.base_predictions,
        ));
    }
    let mut sheet = Sheet::default();
    sheet.set_span_times(tr.spans());
    if !sheet.set_root(tr.spans(), root.expect("traced"), untraced_s) {
        failures.record(Err("layer self times plus remainder do not add up".into()));
    }
    sheet.set("crf.lbfgs_iterations", iterations as f64);
    replica.counts.report(&mut sheet);
    crate::write_spans(&args.workload, &tr);
    failures.report();
    Outcome {
        correct: failures.is_empty(),
        attempted: rows.len() as u64,
        failed: 0,
        metrics: sheet.into_metrics(),
    }
}
