//! `serve_bulk` and `serve_small`: an in-process `graphner-serve`
//! driven over `nproc` keep-alive connections.
//!
//! Set-up generates a BC2GM-profile corpus, trains the plain BANNER
//! base, freezes the session's propagated beliefs into a `GraphTagger`
//! and starts the server. Requests carry novel sentences: the test part
//! of a corpus generated from the run's seed, never the model's, so
//! their gold mentions give the served tags an F-score.
//!
//! * `serve_bulk`: closed loop, each request [`BULK_SENTENCES`]
//!   sentences; per-sentence tagging dominates. Throughput is the median
//!   over the window's one-second slices.
//! * `serve_small`: open loop at [`SMALL_RATE`] one-sentence requests
//!   per second, each timed from when it was due; per-request cost
//!   dominates. After the window it sends [`SLOW_CLIENTS`] requests that
//!   pause longer than the server's 500 ms connection poll inside their
//!   body. The server's reader drops the bytes it had read when the poll
//!   times out and answers `400`, so these fail until the reader keeps
//!   partial requests; they count as attempted and failed and stay out
//!   of the latency sample.

use crate::check::{checked_f_score, same_predictions, Failures};
use crate::offline::ner_config;
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::Tracer;
use crate::{mix, peak_rss_mb, secs, worker_share, Args, Metric, Outcome, Sheet, SETUPS};
use graphner_core::{GraphNer, GraphNerConfig, GraphTagger, ServeConfig, TestSession};
use graphner_corpusgen::{generate, CorpusProfile, GeneratedCorpus};
use graphner_serve::{
    parse_tag_body, read_request, render_tags, start, write_response, BoundedQueue, PopResult,
    ServerHandle,
};
use graphner_text::{BioTag, Sentence, Tagger};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Model corpus size as a fraction of the paper's 15 000 / 5 000
/// sentences.
const SCALE: f64 = 0.05;

/// Request corpus size: its test part (1 000 sentences) is the request
/// pool, large enough that the served F-score varies little by seed.
const REQUEST_SCALE: f64 = 0.2;

/// Sentences per `serve_bulk` request.
const BULK_SENTENCES: usize = 25;

/// `serve_small`'s fixed arrival rate, requests per second: well below
/// what the server sustains.
const SMALL_RATE: f64 = 100.0;

/// Slow-client requests sent after `serve_small`'s window.
const SLOW_CLIENTS: usize = 4;

/// Their body, in two parts with a pause between longer than the
/// server's connection poll.
const SLOW_BODY: (&str, &str) = ("the WT1 ", "gene was\n");
const SLOW_PAUSE: Duration = Duration::from_millis(800);

/// Client connections and threads: the machine's two CPUs.
const CLIENTS: usize = 2;

/// `serve_bulk`'s throughput is counted per slice of this many seconds
/// of the window and reported as the median slice, so a stall of the
/// shared host in part of the window moves it little.
const SLICE_S: f64 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Bulk,
    Small,
}

struct Model {
    tagger: GraphTagger,
    server: ServerHandle,
    train_s: f64,
    freeze_s: f64,
}

/// Train, freeze and start serving. The served model is the same in
/// every run — one deployed model, trained on the BC2GM profile's own
/// seed — so the seed varies the traffic, not the model.
fn setup(tr: &mut Tracer) -> Model {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(SCALE));
    let test = corpus.test.without_tags();
    let cfg = GraphNerConfig::table_iv("BC2GM", false);
    let t = Instant::now();
    let (gner, _) =
        tr.span("crf.train", || GraphNer::train(&corpus.train, &ner_config(), None, cfg.clone()));
    let train_s = secs(t);
    let t = Instant::now();
    let tagger = tr.span("core.freeze", || TestSession::new(&gner, &test).tagger(&cfg));
    let freeze_s = secs(t);
    let server =
        start(tagger.clone(), ServeConfig::default(), "127.0.0.1:0").expect("bind a local port");
    let mut conn = Conn::open(&server.addr().to_string()).expect("connect to the server");
    let (status, _) = conn.call("GET", "/healthz", b"").expect("health check");
    assert_eq!(status, 200, "server not healthy");
    Model { tagger, server, train_s, freeze_s }
}

/// The request pool: bodies, the sentences each carries, and the
/// response the in-process tagger gives for it.
struct Pool {
    corpus: GeneratedCorpus,
    bodies: Vec<Vec<u8>>,
    spans: Vec<std::ops::Range<usize>>,
    expected: Vec<Vec<u8>>,
}

fn pool(seed: u64, mode: Mode, tagger: &GraphTagger, failures: &mut Failures) -> Pool {
    let mut profile = CorpusProfile::bc2gm().scaled(REQUEST_SCALE);
    profile.seed = mix(seed, 22);
    let corpus = generate(&profile);
    let per = if mode == Mode::Bulk { BULK_SENTENCES } else { 1 };
    let n = corpus.test.len() / per * per;
    let (mut bodies, mut spans, mut expected) = (Vec::new(), Vec::new(), Vec::new());
    for start in (0..n).step_by(per) {
        let sents = &corpus.test.sentences[start..start + per];
        let body: String = sents.iter().map(|s| s.tokens.join(" ") + "\n").collect();
        let parsed = parse_tag_body(body.as_bytes()).expect("generated text parses");
        let echo: Vec<&Vec<String>> = parsed.iter().map(|s| &s.tokens).collect();
        let orig: Vec<&Vec<String>> = sents.iter().map(|s| &s.tokens).collect();
        failures.record(same_predictions("request tokenization echo", &echo, &orig));
        let tags = tagger.try_tag_batch(&parsed).expect("pool sentences are valid");
        expected.push(render_tags(&parsed, &tags).into_bytes());
        bodies.push(body.into_bytes());
        spans.push(start..start + per);
    }
    let tokens: usize = corpus.test.sentences[..n].iter().map(|s| s.tokens.len()).sum();
    eprintln!("request pool: {} bodies, {n} sentences, {tokens} tokens", bodies.len());
    Pool { corpus, bodies, spans, expected }
}

/// One keep-alive client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn head(method: &str, path: &str, len: usize) -> String {
        format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len}\r\n\r\n")
    }

    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let mut req = Conn::head(method, path, body.len()).into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req)?;
        self.response()
    }

    fn response(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// What the request loops observed.
#[derive(Default)]
struct Observed {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    sentences: u64,
    /// When each correct response arrived and how many sentences it
    /// carried.
    completions: Vec<(Instant, u64)>,
    /// The first response seen for each pool body.
    responses: Vec<Option<Vec<u8>>>,
    window_s: f64,
    start: Option<Instant>,
}

impl Observed {
    /// Sentences per second in each whole [`SLICE_S`] slice of the
    /// window.
    fn slice_rates(&self) -> Vec<f64> {
        let Some(start) = self.start else { return Vec::new() };
        let whole = (self.window_s / SLICE_S).floor() as usize;
        let mut counts = vec![0u64; whole];
        for &(done, n) in &self.completions {
            let slice = (done.duration_since(start).as_secs_f64() / SLICE_S) as usize;
            if let Some(c) = counts.get_mut(slice) {
                *c += n;
            }
        }
        counts.into_iter().map(|c| c as f64 / SLICE_S).collect()
    }
}

/// Send request `i` (pool body `i % pool`) and record it.
fn send(conn: &mut Conn, pool: &Pool, i: usize, obs: &mut Observed, due: Instant) {
    let b = i % pool.bodies.len();
    let sent = Instant::now();
    let result = conn.call("POST", "/v1/tag", &pool.bodies[b]);
    let done = Instant::now();
    obs.attempted += 1;
    obs.late_ms.push(1e3 * sent.duration_since(due).as_secs_f64());
    match result {
        Ok((200, body)) if body == pool.expected[b] => {
            obs.latencies_ms.push(1e3 * done.duration_since(due).as_secs_f64());
            obs.sentences += pool.spans[b].len() as u64;
            obs.completions.push((done, pool.spans[b].len() as u64));
            if obs.responses[b].is_none() {
                obs.responses[b] = Some(body);
            }
        }
        other => {
            obs.failed += 1;
            let what = match other {
                Ok((200, _)) => "200 response differs from in-process try_tag_batch".to_string(),
                Ok((status, _)) => format!("request answered {status}"),
                Err(e) => format!("request failed: {e}"),
            };
            eprintln!("request {i}: {what}");
        }
    }
}

/// Drive the server for `seconds`: a closed loop for bulk, the open
/// loop at [`SMALL_RATE`] for small. One thread and connection per
/// client.
fn drive(addr: &str, pool: &Pool, mode: Mode, seconds: f64) -> Observed {
    let total = (SMALL_RATE * seconds).round() as usize;
    let start = Instant::now();
    let per_client: Vec<Observed> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut obs =
                        Observed { responses: vec![None; pool.bodies.len()], ..Default::default() };
                    let mut conn = Conn::open(addr).expect("connect to the server");
                    let mut i = c;
                    loop {
                        let due = match mode {
                            Mode::Bulk => {
                                if secs(start) >= seconds {
                                    break;
                                }
                                Instant::now()
                            }
                            Mode::Small => {
                                if i >= total {
                                    break;
                                }
                                let due = start + Duration::from_secs_f64(i as f64 / SMALL_RATE);
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                due
                            }
                        };
                        send(&mut conn, pool, i, &mut obs, due);
                        i += CLIENTS;
                    }
                    obs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all = Observed { responses: vec![None; pool.bodies.len()], ..Default::default() };
    all.window_s = secs(start);
    all.start = Some(start);
    for o in per_client {
        all.completions.extend(o.completions);
        all.latencies_ms.extend(o.latencies_ms);
        all.late_ms.extend(o.late_ms);
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.sentences += o.sentences;
        for (slot, r) in all.responses.iter_mut().zip(o.responses) {
            if slot.is_none() {
                *slot = r;
            }
        }
    }
    all
}

/// Parse a `token\tTAG` response into per-sentence tags.
fn response_tags(body: &[u8]) -> Vec<Vec<BioTag>> {
    let text = String::from_utf8_lossy(body);
    let mut out = vec![Vec::new()];
    for line in text.lines() {
        if line.is_empty() {
            out.push(Vec::new());
        } else {
            let tag = line.rsplit('\t').next().and_then(BioTag::parse).unwrap_or(BioTag::O);
            out.last_mut().expect("non-empty").push(tag);
        }
    }
    out.pop();
    out
}

/// F-score of the served tags over the whole pool. A body the window
/// did not reach is sent once more so every pool sentence is scored.
fn served_f_score(addr: &str, pool: &Pool, obs: &mut Observed, failures: &mut Failures) -> f64 {
    let mut conn = Conn::open(addr).expect("connect to the server");
    for b in 0..pool.bodies.len() {
        if obs.responses[b].is_none() {
            send(&mut conn, pool, b, obs, Instant::now());
        }
    }
    let mut predictions = vec![Vec::new(); pool.corpus.test.len()];
    for (b, r) in obs.responses.iter().enumerate() {
        let Some(body) = r else { continue };
        for (i, tags) in pool.spans[b].clone().zip(response_tags(body)) {
            predictions[i] = tags;
        }
    }
    let mut test = pool.corpus.test.clone();
    let n = pool.spans.last().map_or(0, |r| r.end);
    test.sentences.truncate(n);
    predictions.truncate(n);
    checked_f_score(&test, &predictions, &pool.corpus.test_gold, failures)
}

/// The slow-client requests: `(attempted, failed)`.
fn slow_clients(addr: &str, tagger: &GraphTagger) -> (u64, u64) {
    let full = format!("{}{}", SLOW_BODY.0, SLOW_BODY.1);
    let sentences = parse_tag_body(full.as_bytes()).expect("fixed body parses");
    let tags = tagger.try_tag_batch(&sentences).expect("fixed body tags");
    let expected = render_tags(&sentences, &tags).into_bytes();
    let one = || -> bool {
        let Ok(mut conn) = Conn::open(addr) else { return false };
        let head = Conn::head("POST", "/v1/tag", full.len());
        if conn.writer.write_all(format!("{head}{}", SLOW_BODY.0).as_bytes()).is_err() {
            return false;
        }
        std::thread::sleep(SLOW_PAUSE);
        // the server may already have dropped the connection
        let _ = conn.writer.write_all(SLOW_BODY.1.as_bytes());
        matches!(conn.response(), Ok((200, body)) if body == expected)
    };
    let ok: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || (c..SLOW_CLIENTS).step_by(CLIENTS).filter(|_| one()).count())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("slow client thread")).sum()
    });
    (SLOW_CLIENTS as u64, (SLOW_CLIENTS - ok) as u64)
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    if args.trace {
        return run_traced(args, mode);
    }
    let (mut setup_s, mut train_s, mut freeze_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut model: Option<Model> = None;
    for _ in 0..SETUPS {
        if let Some(m) = model.take() {
            m.server.shutdown();
        }
        let t = Instant::now();
        let m = setup(&mut Tracer::new(false));
        setup_s.push(secs(t));
        train_s.push(m.train_s);
        freeze_s.push(m.freeze_s);
        model = Some(m);
    }
    let model = model.expect("at least one set-up");
    let addr = model.server.addr().to_string();
    let mut failures = Failures::default();
    let pool = pool(args.seed, mode, &model.tagger, &mut failures);

    let mut obs = drive(&addr, &pool, mode, args.seconds);
    let rates = obs.slice_rates();
    let sentences_per_s = match mode {
        Mode::Bulk => median(&rates).unwrap_or(0.0),
        Mode::Small => obs.sentences as f64 / obs.window_s,
    };
    eprintln!("throughput slices (1/s): {:?}", rates.iter().map(|r| *r as u64).collect::<Vec<_>>());
    let f = served_f_score(&addr, &pool, &mut obs, &mut failures);
    let (mut attempted, mut failed) = (obs.attempted, obs.failed);
    if mode == Mode::Small {
        let (a, f) = slow_clients(&addr, &model.tagger);
        eprintln!("slow-client requests: {a} attempted, {f} failed");
        attempted += a;
        failed += f;
    }
    model.server.shutdown();
    failures.report();

    let lat = &obs.latencies_ms;
    eprintln!(
        "{} latency samples, p90 {:.4} ms ({} beyond it); generator late by median {:.4} ms, \
         max {:.4} ms",
        lat.len(),
        percentile(lat, 0.9).unwrap_or(f64::NAN),
        samples_beyond(lat, 0.9),
        median(&obs.late_ms).unwrap_or(f64::NAN),
        obs.late_ms.iter().copied().fold(0.0, f64::max)
    );
    let metrics = vec![
        Metric { name: "setup_s", value: median(&setup_s).expect("set-ups ran"), unit: "s" },
        Metric { name: "train_s", value: median(&train_s).expect("set-ups ran"), unit: "s" },
        Metric { name: "test_s", value: median(&freeze_s).expect("set-ups ran"), unit: "s" },
        Metric { name: "latency_p50_ms", value: median(lat).unwrap_or(f64::NAN), unit: "ms" },
        Metric { name: "sentences_per_s", value: sentences_per_s, unit: "1/s" },
        Metric { name: "f_score", value: f, unit: "F1" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MiB" },
    ];
    Outcome { correct: failures.is_empty(), attempted, failed, metrics }
}

/// Per-request layer work along the server's path, called in process:
/// read the raw request, parse its body, a queue round trip, tag, render
/// and write the response. Returns the rendered responses.
fn request_path(tr: &mut Tracer, tagger: &GraphTagger, raw: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let queue: BoundedQueue<Vec<Sentence>> = BoundedQueue::new(1);
    raw.iter()
        .map(|bytes| {
            let req = tr
                .span("serve.read", || read_request(&mut BufReader::new(&bytes[..])))
                .expect("well-formed request");
            let sentences =
                tr.span("serve.parse", || parse_tag_body(&req.body)).expect("valid body");
            let sentences = tr.span("serve.queue", || {
                queue.try_push(sentences).expect("empty queue accepts");
                match queue.pop_timeout(Duration::from_secs(1)) {
                    PopResult::Popped(s) => s,
                    _ => unreachable!("the item was just pushed"),
                }
            });
            let tags = tr
                .span("core.tag_batch", || tagger.try_tag_batch(&sentences))
                .expect("pool sentences tag");
            let body = tr.span("serve.render", || render_tags(&sentences, &tags));
            let mut out = Vec::new();
            tr.span("serve.write", || write_response(&mut out, 200, &[], body.as_bytes()))
                .expect("writing to memory");
            body.into_bytes()
        })
        .collect()
}

/// Read the batcher's counters from `/metrics`: (batches, sentences,
/// requests).
fn batch_counters(addr: &str) -> (f64, f64, f64) {
    let mut conn = Conn::open(addr).expect("connect to the server");
    let (_, body) = conn.call("GET", "/metrics", b"").expect("metrics");
    let text = String::from_utf8_lossy(&body);
    let field = |line: &str, key: &str| -> f64 {
        line.split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let (mut batches, mut sentences, mut requests) = (0.0, 0.0, 0.0);
    for line in text.lines() {
        if line.contains("\"name\":\"serve.batch_size\"") {
            batches = field(line, "count");
            sentences = field(line, "sum");
        } else if line.contains("\"name\":\"serve.requests\"") {
            requests = field(line, "value");
        }
    }
    (batches, sentences, requests)
}

/// One set-up and half a window against the real server for the batch
/// and pool counters (and, on `serve_small`, the slow clients), then the
/// request path in process: untraced for reference, then traced.
fn run_traced(args: &Args, mode: Mode) -> Outcome {
    let mut tr = Tracer::new(true);
    let model = setup(&mut tr);
    let addr = model.server.addr().to_string();
    let mut failures = Failures::default();
    let pool = pool(args.seed, mode, &model.tagger, &mut failures);

    let pool_before = rayon::pool_stats();
    let obs = drive(&addr, &pool, mode, args.seconds / 2.0);
    let share = worker_share(&pool_before);
    let (batches, batch_sentences, requests) = batch_counters(&addr);
    if obs.failed > 0 {
        failures.record(Err(format!("{} requests failed in the traced window", obs.failed)));
    }
    // serve_small's traced run attempts as many requests as its timed run
    // (half a window, then as many in process) and the same slow
    // clients, so its failed share is the same
    let (mut attempted, mut failed) = (obs.attempted, 0);
    let paths = match mode {
        Mode::Small => {
            let (a, f) = slow_clients(&addr, &model.tagger);
            attempted += a;
            failed += f;
            obs.attempted as usize
        }
        Mode::Bulk => 200,
    };
    model.server.shutdown();

    let bodies: Vec<usize> = (0..paths).map(|i| i % pool.bodies.len()).collect();
    let raw: Vec<Vec<u8>> = bodies
        .iter()
        .map(|&b| {
            let mut r = Conn::head("POST", "/v1/tag", pool.bodies[b].len()).into_bytes();
            r.extend_from_slice(&pool.bodies[b]);
            r
        })
        .collect();
    // the second of two untraced passes, past the warm-up
    let _ = request_path(&mut Tracer::new(false), &model.tagger, &raw);
    let t = Instant::now();
    let _ = request_path(&mut Tracer::new(false), &model.tagger, &raw);
    let untraced_s = secs(t);
    let root = tr.enter("serve.path");
    let rendered = request_path(&mut tr, &model.tagger, &raw);
    tr.exit(root);
    let expected: Vec<&Vec<u8>> = bodies.iter().map(|&b| &pool.expected[b]).collect();
    let got: Vec<&Vec<u8>> = rendered.iter().collect();
    failures.record(same_predictions("in-process request path", &got, &expected));

    let mut sheet = Sheet::default();
    sheet.set_span_times(tr.spans());
    if !sheet.set_root(tr.spans(), root.expect("traced"), untraced_s) {
        failures.record(Err("layer self times plus remainder do not add up".into()));
    }
    let own = crate::trace::self_times(tr.spans());
    let per_request_us = |name: &str| {
        let total: f64 =
            tr.spans().iter().zip(&own).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum();
        1e6 * total / raw.len() as f64
    };
    sheet.set("serve.read_us", per_request_us("serve.read"));
    sheet.set("serve.parse_us", per_request_us("serve.parse"));
    sheet.set("serve.queue_roundtrip_us", per_request_us("serve.queue"));
    sheet.set("serve.render_us", per_request_us("serve.render"));
    sheet.set("serve.write_us", per_request_us("serve.write"));
    sheet.set("serve.batch_requests_mean", if batches > 0.0 { requests / batches } else { 0.0 });
    sheet.set(
        "serve.batch_sentences_mean",
        if batches > 0.0 { batch_sentences / batches } else { 0.0 },
    );
    sheet.set("pool.chunks_on_workers_share", share);
    if mode == Mode::Small {
        sheet.set("client.late_p50_ms", median(&obs.late_ms).unwrap_or(0.0));
        sheet.set("client.late_max_ms", obs.late_ms.iter().copied().fold(0.0, f64::max));
    }
    crate::write_spans(&args.workload, &tr);
    failures.report();
    Outcome {
        correct: failures.is_empty(),
        attempted: attempted + raw.len() as u64,
        failed,
        metrics: sheet.into_metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rates_count_whole_slices_only() {
        let start = Instant::now();
        let at = |s: f64| start + Duration::from_secs_f64(s);
        let obs = Observed {
            completions: vec![(at(0.2), 25), (at(0.9), 25), (at(1.5), 50), (at(2.1), 25)],
            window_s: 2.05,
            start: Some(start),
            ..Default::default()
        };
        // two whole slices; the response at 2.1 s lies past the last one
        assert_eq!(obs.slice_rates(), vec![50.0 / SLICE_S, 50.0 / SLICE_S]);
        assert!(Observed::default().slice_rates().is_empty());
    }
}
