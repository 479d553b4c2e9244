//! GraphNER benchmark: one process per workload, driven through the
//! public API of each crate.
//!
//! ```text
//! graphner-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed decides every input; the program sees only the generated
//! corpora and requests. Each run sets up seven times (reporting the
//! median), measures for `--seconds`, checks the outputs, prints every
//! metric by name with its unit and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 1` the run instead records spans around each layer call and
//! reports the per-layer metrics. See README.md for the workloads.

mod check;
mod offline;
mod replica;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "--seconds needs a number")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A stable 64-bit mix of the run seed with a per-input salt, so each
/// workload's inputs follow from `--seed` alone.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every per-layer metric, in report order. A layer a workload does
/// not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("banner.featurize_s", "s"),
    ("banner.features_per_token", "count"),
    ("embed.resources_s", "s"),
    ("crf.train_s", "s"),
    ("crf.lbfgs_iterations", "count"),
    ("crf.posteriors_s", "s"),
    ("crf.viterbi_s", "s"),
    ("crf.lattice_cells", "count"),
    ("graph.vectors_s", "s"),
    ("graph.mi_filter_s", "s"),
    ("graph.pmi_nnz", "count"),
    ("graph.knn_s", "s"),
    ("graph.knn_candidate_pairs", "count"),
    ("graph.knn_edges_per_candidate", "ratio"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.propagate_s", "s"),
    ("graph.propagate_sweeps", "count"),
    ("core.average_s", "s"),
    ("core.decode_s", "s"),
    ("core.vectors_built", "count"),
    ("core.graphs_built", "count"),
    ("core.tag_batch_s", "s"),
    ("core.freeze_s", "s"),
    ("serve.read_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.queue_roundtrip_us", "us"),
    ("serve.render_us", "us"),
    ("serve.write_us", "us"),
    ("serve.batch_requests_mean", "count"),
    ("serve.batch_sentences_mean", "count"),
    ("pool.chunks_on_workers_share", "share"),
    ("client.late_p50_ms", "ms"),
    ("client.late_max_ms", "ms"),
    ("trace.e2e_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The per-layer values of one traced run, keyed by metric name.
#[derive(Default)]
pub struct Sheet(std::collections::BTreeMap<&'static str, f64>);

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// Self time per span name, summed over every span of the run, as
    /// the `<name>_s` metrics.
    pub fn set_span_times(&mut self, spans: &[trace::Span]) {
        let own = trace::self_times(spans);
        let mut per: std::collections::BTreeMap<&str, f64> = Default::default();
        for (s, t) in spans.iter().zip(own) {
            *per.entry(s.name).or_insert(0.0) += t;
        }
        for (name, unit) in PER_LAYER {
            if let (Some(stem), "s") = (name.strip_suffix("_s"), *unit) {
                if let Some(&t) = per.get(stem) {
                    self.0.insert(name, t);
                }
            }
        }
    }

    /// Record the traced end-to-end root: its duration, the
    /// unattributed remainder, and the overhead against the same work
    /// untraced. Prints the breakdown and checks that the layers plus
    /// the remainder add up to the root.
    pub fn set_root(&mut self, spans: &[trace::Span], root: usize, untraced_s: f64) -> bool {
        let (layers, remainder) = trace::layer_breakdown(spans, root);
        let e2e = spans[root].seconds();
        let sum: f64 = layers.values().sum::<f64>() + remainder;
        eprintln!("traced end-to-end {e2e:.6} s, layer self times:");
        for (name, t) in &layers {
            eprintln!("  {name:<28} {t:>12.6} s  {:>6.2}%", 100.0 * t / e2e);
        }
        eprintln!(
            "  {:<28} {remainder:>12.6} s  {:>6.2}%",
            "(unattributed)",
            100.0 * remainder / e2e
        );
        eprintln!(
            "tracing overhead {:.6} s against {untraced_s:.6} s untraced ({:+.2}%)",
            e2e - untraced_s,
            100.0 * (e2e - untraced_s) / untraced_s
        );
        self.set("trace.e2e_s", e2e);
        self.set("trace.unattributed_s", remainder);
        self.set("trace.overhead_s", e2e - untraced_s);
        (sum - e2e).abs() <= 1e-9 * e2e.max(1.0)
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Share of pool chunks run by worker threads rather than the submitter
/// between two snapshots.
pub fn worker_share(before: &rayon::PoolStats) -> f64 {
    let d = rayon::pool_stats().delta(before);
    if d.chunks_executed == 0 {
        0.0
    } else {
        d.chunks_on_workers as f64 / d.chunks_executed as f64
    }
}

/// Write the traced run's spans out at the end of the run.
pub fn write_spans(workload: &str, tracer: &trace::Tracer) {
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, tracer.to_jsonl()) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Where traced runs write their spans: inside the build directory.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir).join(format!("perfbench-trace-{workload}.jsonl"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("graphner-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "offline_bc2gm" => offline::run(&args),
        "sweep_aml" => sweep::run(&args),
        "serve_bulk" => serve::run(&args, serve::Mode::Bulk),
        "serve_small" => serve::run(&args, serve::Mode::Small),
        other => {
            eprintln!("graphner-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>16} attempted, {} failed, correct = {}",
        "operations", outcome.attempted, outcome.failed, outcome.correct
    );
    println!("{}", outcome.json());
}
