//! What every workload shares: options, repeated set-up, the request-path
//! replay behind the traced run, and the per-layer table.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use kucnet::{ExplainOutput, GraphContext, ScoreService, UserState};
use kucnet_eval::top_n_indices;
use kucnet_graph::{LayeredGraph, UserId};
use kucnet_serve::{http_request, CacheStats, CacheVersion, SubgraphCache};
use kucnet_tensor::MatrixPool;

use crate::load::{paced, PhaseResult};
use crate::report::Metric;
use crate::stats::{median, percentile_of, samples_beyond};
use crate::trace::{self_times_ns, Span, Tracer, NO_REQUEST};

/// Items per recommendation, in every workload.
pub const TOP_K: usize = 20;
/// Set-ups per run of a workload whose set-up takes well under a second;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-ups per run of a workload whose set-up takes about 0.2 s or less:
/// more of them cost little, and the first one or two of a run often took
/// twice as long as the rest.
pub const SETUP_REPS_SMALL: usize = 9;
/// Minimum open-loop sample count, so that p99 has ten samples beyond it.
pub const MIN_OPEN_SAMPLES: usize = 1000;
/// A run whose generator lag p99 exceeds this is invalid and reports
/// nothing.
pub const LAG_BOUND_MS: f64 = 25.0;
/// Slices of the closed loop whose median answer rate is `throughput_rps`.
pub const THROUGHPUT_WINDOWS: usize = 16;
/// Client threads of every closed loop. With two on a two-core host the
/// answer rate followed how much of the second core the host lent at the
/// time, more than it followed the request path.
pub const CLOSED_CLIENTS: usize = 1;
/// Users in each workload's seeded output-check sample.
pub const CHECK_USERS: usize = 24;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Marks the process start; call first thing in `main`.
pub fn mark_process_start() {
    let _ = PROCESS_START.set(Instant::now());
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Set in the child processes of [`repeat_setup`]: set up once, print
    /// the set-up time and exit.
    pub setup_only: bool,
}

impl Opts {
    /// Client threads of an open loop that overlaps requests: `nproc`, but
    /// never more than two.
    pub fn clients(&self) -> usize {
        nproc().clamp(1, 2)
    }
}

/// Sent / succeeded / failed counts of one named phase.
#[derive(Clone, Debug)]
pub struct PhaseCount {
    /// Phase name.
    pub name: &'static str,
    /// Operations sent.
    pub sent: u64,
    /// Operations that succeeded.
    pub ok: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Latency summary of a load phase, empty for other phases.
    pub detail: String,
}

impl PhaseCount {
    /// An empty count.
    pub fn new(name: &'static str) -> Self {
        Self { name, sent: 0, ok: 0, failed: 0, detail: String::new() }
    }

    /// Records one operation's outcome.
    pub fn count(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Counts and exact latency percentiles (ms) of a load phase.
    pub fn of(name: &'static str, r: &PhaseResult) -> Self {
        let q = |v: &[f64], p| percentile_of(v, p).unwrap_or(0.0);
        let l = &r.latency_ms;
        let mut detail = format!(
            "n {} p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3} max {:.3} ms",
            l.len(),
            q(l, 0.5),
            q(l, 0.9),
            q(l, 0.99),
            q(l, 0.999),
            q(l, 1.0)
        );
        if !r.lag_ms.is_empty() {
            detail.push_str(&format!(", generator lag p99 {:.3} ms", q(&r.lag_ms, 0.99)));
        }
        Self { name, sent: r.sent, ok: r.ok, failed: r.failed, detail }
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every phase's counts, output checks included.
    pub phases: Vec<PhaseCount>,
    /// Whether every output check passed.
    pub correct: bool,
    /// End-to-end metrics (always measured).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Human-readable per-layer table (traced run only).
    pub table: Vec<String>,
    /// Program-side settings and sizes, for provenance.
    pub program: Vec<(String, String)>,
    /// Generator lag p99 of the open loop, in ms.
    pub gen_lag_p99_ms: f64,
}

/// Internal flag of the set-up child processes.
pub const SETUP_ONLY: &str = "--setup-only";

fn since_process_start() -> f64 {
    PROCESS_START.get().map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Sets the workload up `reps` times, each from a fresh process
/// start to ready for the first timed request: first in child processes of
/// this program run with [`SETUP_ONLY`], one at a time, then in this
/// process, whose set-up is kept. Returns it with every set-up time in
/// seconds. Peak memory is that of one set-up, and this process's peak RSS
/// is not inflated by set-ups it threw away.
///
/// In a set-up child this sets up, prints the time and exits.
pub fn repeat_setup<T>(
    opts: &Opts,
    reps: usize,
    tr: &mut Tracer,
    build: impl FnOnce(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    if opts.setup_only {
        let _built = build(tr);
        println!("{}", since_process_start());
        std::process::exit(0);
    }
    // This process's own set-up time leaves out the time its children ran.
    let before_children = since_process_start();
    let mut times: Vec<f64> = (1..reps).map(|_| setup_in_child()).collect();
    let started = Instant::now();
    let built = tr.span("bench.setup", NO_REQUEST, |tr| build(tr));
    times.push(before_children + started.elapsed().as_secs_f64());
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    println!("setup times s {}", shown.join(" "));
    (built, times)
}

/// Runs one set-up child and returns the set-up time it printed.
fn setup_in_child() -> f64 {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    args.push(SETUP_ONLY.to_string());
    let out = std::process::Command::new(exe)
        .args(&args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run a set-up child process");
    assert!(out.status.success(), "set-up child failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .expect("set-up child prints its set-up time")
}

/// Open-loop sample count for `rate` over `secs`, never below
/// [`MIN_OPEN_SAMPLES`].
pub fn open_samples(rate: f64, secs: f64) -> usize {
    ((rate * secs) as usize).max(MIN_OPEN_SAMPLES)
}

/// The end-to-end metrics shared by every workload.
pub fn e2e_metrics(
    setup_times: &[f64],
    open: &PhaseResult,
    closed: &PhaseResult,
    update_ms: &[f64],
) -> Vec<Metric> {
    assert!(
        samples_beyond(open.latency_ms.len(), 0.99) >= 10,
        "{} open-loop samples leave fewer than ten beyond p99",
        open.latency_ms.len()
    );
    vec![
        Metric::new("setup_s", median(setup_times).unwrap_or(0.0), "s"),
        Metric::new("peak_rss_mb", crate::report::peak_rss_mb(), "MB"),
        Metric::new("throughput_rps", closed.throughput(THROUGHPUT_WINDOWS), "1/s"),
        Metric::new("latency_p50_ms", percentile_of(&open.latency_ms, 0.50).unwrap_or(0.0), "ms"),
        Metric::new("update_p50_ms", median(update_ms).unwrap_or(0.0), "ms"),
    ]
}

/// The phase count of operations that each return their time in ms when
/// they succeed, with the succeeded times' percentiles as its detail, and
/// those times.
pub fn timed_phase(
    name: &'static str,
    label: &str,
    timed: Vec<Option<f64>>,
) -> (PhaseCount, Vec<f64>) {
    let mut phase = PhaseCount::new(name);
    for t in &timed {
        phase.count(t.is_some());
    }
    let ms: Vec<f64> = timed.into_iter().flatten().collect();
    phase.detail = times_detail(label, &ms);
    (phase, ms)
}

/// Count and exact percentiles of the timed operations `ms`, labelled.
pub fn times_detail(label: &str, ms: &[f64]) -> String {
    let q = |p| percentile_of(ms, p).unwrap_or(0.0);
    format!(
        "{label} n {} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3} ms",
        ms.len(),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(1.0)
    )
}

/// The offline top-K `(item, score)` pairs of `scores`, selected as the
/// server selects them.
pub fn top_pairs(scores: &[f32]) -> Vec<(u32, f32)> {
    top_n_indices(scores, TOP_K).into_iter().map(|i| (i as u32, scores[i])).collect()
}

/// Cache counters accumulated between two snapshots.
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> (u64, u64, u64) {
    (after.lookups - before.lookups, after.hits - before.hits, after.evictions - before.evictions)
}

/// How a workload's serving path scores one request, for the in-process
/// replay of the traced run.
pub trait ReplayPath {
    /// The exact HTTP request bytes, for workloads served over HTTP.
    fn http_bytes(&self, _user: u32) -> Option<Vec<u8>> {
        None
    }
    /// Routes `user` to a scoring service; `true` for the i8 path.
    fn route(&self, user: u32) -> (Arc<dyn ScoreService>, bool);
    /// Builds `user`'s pruned graph the way the serving path does on a cache
    /// miss, recording a span around each layer call.
    fn build(&self, user: u32, tr: &mut Tracer, request: u64) -> LayeredGraph;
}

/// Replays `users` through `path` one request at a time, untraced and
/// traced side by side: two replicas, each with its own cache that starts
/// with every user of `prewarm` touched once, take each request in turn,
/// alternating which goes first. Returns, for the untraced and the traced
/// replica, each timed request's wall time in nanoseconds.
pub fn replay(
    path: &dyn ReplayPath,
    prewarm: &[u32],
    users: &[u32],
    tr: &mut Tracer,
) -> [Vec<u64>; 2] {
    let capacity = prewarm.len() + users.len() + 1;
    let caches = [SubgraphCache::new(capacity), SubgraphCache::new(capacity)];
    let mut pools = [MatrixPool::new(), MatrixPool::new()];
    let mut off = Tracer::new(false);
    for &u in prewarm {
        replay_one(path, &caches[0], &mut pools[0], u, NO_REQUEST, &mut off);
        replay_one(path, &caches[1], &mut pools[1], u, NO_REQUEST, tr);
    }
    let mut out = [Vec::with_capacity(users.len()), Vec::with_capacity(users.len())];
    for (i, &u) in users.iter().enumerate() {
        let req = i as u64;
        for side in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            let tracer = if side == 0 { &mut off } else { &mut *tr };
            out[side].push(replay_one(path, &caches[side], &mut pools[side], u, req, tracer));
        }
    }
    out
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn replay_one(
    path: &dyn ReplayPath,
    cache: &SubgraphCache,
    pool: &mut MatrixPool,
    user: u32,
    req: u64,
    tr: &mut Tracer,
) -> u64 {
    let started = Instant::now();
    tr.span("bench.request", req, |tr| {
        if let Some(bytes) = path.http_bytes(user) {
            let parsed =
                tr.span("serve.http_parse", req, |_| http_request(&mut BufReader::new(&bytes[..])));
            std::hint::black_box(parsed.expect("replayed request bytes parse"));
        }
        let (service, quantized) = tr.span("serve.route", req, |_| path.route(user));
        let version = CacheVersion::new(u64::from(quantized), 0);
        let ((graph, state), _hit) = tr.span("serve.cache", req, |tr| {
            cache.get_or_insert_context_versioned(UserId(user), version, || {
                let graph = Arc::new(path.build(user, tr, req));
                let state = tr.span("core.user_state", req, |_| {
                    service.build_user_state(pool, &graph, quantized)
                });
                (graph, state)
            })
        });
        let forward = if quantized { "core.forward_i8" } else { "core.forward_f32" };
        let scores = tr.span(forward, req, |_| match &state {
            Some(state) if state.quantized() == quantized => {
                service.score_graph_from_state(pool, &graph, state)
            }
            _ if quantized => service.score_graph_quant_pooled(pool, &graph),
            _ => service.score_graph_pooled(pool, &graph),
        });
        let top = tr.span("core.topk", req, |_| top_n_indices(&scores, TOP_K));
        std::hint::black_box(top);
    });
    ns(started.elapsed())
}

/// A scoring service that marks when a replayed request leaves the serving
/// queue. A batcher worker takes one graph context per variant as soon as a
/// batch reaches it, before any cache lookup or scoring; with one request
/// in flight, the first such call after a submit ends that request's queue
/// wait. Every call goes on to the wrapped service unchanged.
struct Probed {
    inner: Arc<dyn ScoreService>,
    dequeued: Arc<Mutex<Option<Instant>>>,
}

impl ScoreService for Probed {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }
    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        self.inner.build_user_graph(user)
    }
    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        self.inner.score_graph(graph)
    }
    fn score_graph_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<f32> {
        self.inner.score_graph_pooled(pool, graph)
    }
    fn supports_quantized(&self) -> bool {
        self.inner.supports_quantized()
    }
    fn prepare_quantized(&self) -> bool {
        self.inner.prepare_quantized()
    }
    fn score_graph_quant_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<f32> {
        self.inner.score_graph_quant_pooled(pool, graph)
    }
    fn build_user_state(
        &self,
        pool: &mut MatrixPool,
        graph: &LayeredGraph,
        quantized: bool,
    ) -> Option<Arc<UserState>> {
        self.inner.build_user_state(pool, graph, quantized)
    }
    fn score_graph_from_state(
        &self,
        pool: &mut MatrixPool,
        graph: &LayeredGraph,
        state: &UserState,
    ) -> Vec<f32> {
        self.inner.score_graph_from_state(pool, graph, state)
    }
    fn score_user(&self, user: UserId) -> Vec<f32> {
        self.inner.score_user(user)
    }
    fn explain_item(&self, user: UserId, item: u32, threshold: f32) -> Option<ExplainOutput> {
        self.inner.explain_item(user, item, threshold)
    }
    fn graph_context(&self) -> Box<dyn GraphContext + '_> {
        self.dequeued.lock().expect("probe lock").get_or_insert_with(Instant::now);
        self.inner.graph_context()
    }
}

/// Times the queue wait of requests submitted one at a time to a replay
/// batcher (or router) whose services were wrapped by [`QueueProbe::wrap`].
#[derive(Default)]
pub struct QueueProbe {
    dequeued: Arc<Mutex<Option<Instant>>>,
}

/// One replayed submit, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Submit {
    /// The whole submit call.
    pub total_ns: u64,
    /// From the call until a batcher worker took the request's batch.
    pub queue_ns: u64,
}

impl QueueProbe {
    /// `service`, marking this probe whenever a batch reaches it.
    pub fn wrap(&self, service: Arc<dyn ScoreService>) -> Arc<dyn ScoreService> {
        Arc::new(Probed { inner: service, dequeued: Arc::clone(&self.dequeued) })
    }

    /// Submits `users` one at a time on the open-loop schedule at `rate`,
    /// timing each submit and its queue wait.
    pub fn replay_submits(
        &self,
        rate: f64,
        users: &[u32],
        mut submit: impl FnMut(u32) -> bool,
    ) -> Vec<Submit> {
        paced(rate, users.len(), |i| {
            let u = users[i];
            *self.dequeued.lock().expect("probe lock") = None;
            let t = Instant::now();
            assert!(submit(u), "replayed submit for user {u} failed");
            let total_ns = ns(t.elapsed());
            let dequeued = self.dequeued.lock().expect("probe lock").take();
            let queue_ns = ns(dequeued
                .expect("a replayed request reached a batcher worker")
                .duration_since(t));
            Submit { total_ns, queue_ns }
        })
    }
}

/// Medians (ms) of the replayed submits' totals and queue waits.
pub fn submit_medians(submits: &[Submit]) -> (f64, f64) {
    let ms = |f: fn(&Submit) -> u64| {
        median(&submits.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    (ms(|s| s.total_ns), ms(|s| s.queue_ns))
}

/// Per-name self times (ms) of the spans recorded in `tr`, including those
/// outside requests.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        out.entry(s.name).or_default().push(self_ns as f64 / 1e6);
    }
    out
}

/// Durations (seconds) of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e9).collect()
}

/// One row of the per-layer table: a layer's median self time per call
/// and how many calls one request of the measured workload makes.
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Median self time per call, ms.
    pub per_call_ms: f64,
    /// Calls per request on the measured path.
    pub calls: f64,
}

impl Row {
    /// Row for span `name` from the self times in `by_name`.
    pub fn of(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &'static str, calls: f64) -> Self {
        let per_call_ms = by_name.get(name).and_then(|v| median(v)).unwrap_or(0.0);
        Self { name, per_call_ms, calls: if per_call_ms > 0.0 { calls } else { 0.0 } }
    }

    /// Expected ms this layer adds to one request.
    pub fn per_request_ms(&self) -> f64 {
        self.per_call_ms * self.calls
    }
}

/// Renders the per-request layer table against the end-to-end median, with
/// the part of it the rows do not cover as an explicit remainder.
pub fn layer_table(rows: &[Row], latency_p50_ms: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<22} {:>12} {:>10} {:>12} {:>8}",
        "layer span", "ms/call", "calls/req", "ms/request", "share"
    )];
    let mut attributed = 0.0;
    for r in rows.iter().filter(|r| r.per_call_ms > 0.0) {
        attributed += r.per_request_ms();
        lines.push(format!(
            "{:<22} {:>12.4} {:>10.3} {:>12.4} {:>7.1}%",
            r.name,
            r.per_call_ms,
            r.calls,
            r.per_request_ms(),
            100.0 * r.per_request_ms() / latency_p50_ms
        ));
    }
    let remainder = latency_p50_ms - attributed;
    lines.push(format!(
        "{:<22} {:>12} {:>10} {:>12.4} {:>7.1}%",
        "(unattributed)",
        "",
        "",
        remainder,
        100.0 * remainder / latency_p50_ms
    ));
    lines.push(format!(
        "{:<22} {:>12} {:>10} {:>12.4} {:>7.1}%",
        "latency_p50_ms", "", "", latency_p50_ms, 100.0
    ));
    lines
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every workload reports, from the replay spans and
/// the counters of the measured run.
pub struct LayerInputs<'a> {
    /// Self times by span name.
    pub by_name: &'a BTreeMap<&'static str, Vec<f64>>,
    /// All spans (set-up durations are read from them).
    pub spans: &'a [Span],
    /// Mean kept PPR entries per user.
    pub entries_per_user: f64,
    /// Mean pruned-graph edges per user.
    pub edges_per_user: f64,
    /// Median replayed submit, ms.
    pub submit_ms: f64,
    /// Median queue wait, ms.
    pub queue_wait_ms: f64,
    /// Mean batch size of the measured run.
    pub batch_size_avg: f64,
    /// Cache hits over lookups in the measured run.
    pub cache_hit_ratio: f64,
    /// Cache evictions in the measured run.
    pub cache_evictions: f64,
    /// Users invalidated per refresh.
    pub invalidated_users: f64,
    /// Users whose PPR was recomputed per refresh.
    pub recomputed_users: f64,
    /// Changed over recomputed users.
    pub changed_ratio: f64,
    /// Per-request PPR time over the median request.
    pub ppr_request_share: f64,
    /// Generator lag p99, ms.
    pub gen_lag_p99_ms: f64,
    /// Traced over untraced median replayed request.
    pub trace_overhead_ratio: f64,
}

impl LayerInputs<'_> {
    /// The per-layer metrics in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let med = |name: &str| self.by_name.get(name).and_then(|v| median(v)).unwrap_or(0.0);
        let setup_med = |name: &str| median(&durations_s(self.spans, name)).unwrap_or(0.0);
        vec![
            Metric::new("datasets.gen_s", setup_med("datasets.gen"), "s"),
            Metric::new("datasets.load_s", setup_med("datasets.load"), "s"),
            Metric::new("core.model_new_s", setup_med("core.model_new"), "s"),
            Metric::new("ppr.sparse_ppr_ms", med("ppr.sparse_ppr"), "ms"),
            Metric::new("ppr.entries_per_user", self.entries_per_user, "count"),
            Metric::new("ppr.request_share", self.ppr_request_share, "ratio"),
            Metric::new("graph.layering_ms", med("graph.layering"), "ms"),
            Metric::new("graph.edges_per_user", self.edges_per_user, "count"),
            Metric::new("core.user_state_ms", med("core.user_state"), "ms"),
            Metric::new("core.forward_f32_ms", med("core.forward_f32"), "ms"),
            Metric::new("core.topk_us", med("core.topk") * 1e3, "us"),
            Metric::new("serve.submit_ms", self.submit_ms, "ms"),
            Metric::new("serve.queue_wait_ms", self.queue_wait_ms, "ms"),
            Metric::new("serve.batch_size_avg", self.batch_size_avg, "count"),
            Metric::new("serve.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            Metric::new("serve.cache_evictions", self.cache_evictions, "count"),
            Metric::new("serve.invalidated_users", self.invalidated_users, "count"),
            Metric::new("dynamic.recomputed_users", self.recomputed_users, "count"),
            Metric::new("dynamic.changed_ratio", self.changed_ratio, "ratio"),
            Metric::new("bench.gen_lag_p99_ms", self.gen_lag_p99_ms, "ms"),
            Metric::new("bench.trace_overhead_ratio", self.trace_overhead_ratio, "ratio"),
        ]
    }
}

/// Median of replayed request wall times, traced over untraced.
pub fn overhead_ratio(traced: &[u64], untraced: &[u64]) -> f64 {
    let med = |v: &[u64]| median(&v.iter().map(|&w| w as f64).collect::<Vec<_>>()).unwrap_or(0.0);
    ratio(med(traced), med(untraced))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service whose only callable method is `graph_context`.
    struct Idle;

    impl ScoreService for Idle {
        fn name(&self) -> String {
            "idle".into()
        }
        fn n_users(&self) -> usize {
            1
        }
        fn n_items(&self) -> usize {
            1
        }
        fn build_user_graph(&self, _user: UserId) -> Arc<LayeredGraph> {
            unreachable!("the probe test builds no graph")
        }
        fn score_graph(&self, _graph: &LayeredGraph) -> Vec<f32> {
            unreachable!("the probe test scores nothing")
        }
    }

    #[test]
    fn queue_probe_times_each_submit_until_its_batch_reaches_a_worker() {
        let probe = QueueProbe::default();
        let service = probe.wrap(Arc::new(Idle));
        let submits = probe.replay_submits(1000.0, &[0, 1, 2], |u| {
            // Queued for 1 ms (user 0) or 3 ms, then taken by a worker that
            // asks twice (two variants) with 20 ms between.
            std::thread::sleep(Duration::from_millis(if u == 0 { 1 } else { 3 }));
            let _ = service.graph_context();
            std::thread::sleep(Duration::from_millis(20));
            let _ = service.graph_context();
            true
        });
        assert_eq!(submits.len(), 3);
        for (s, queued_ms) in submits.iter().zip([1, 3, 3]) {
            let queue_ms = s.queue_ns as f64 / 1e6;
            assert!(queue_ms >= queued_ms as f64 && queue_ms < queued_ms as f64 + 15.0, "{s:?}");
            assert!(s.total_ns >= s.queue_ns + 20_000_000, "{s:?}");
        }
        let (total_ms, queue_ms) = submit_medians(&submits);
        assert!(queue_ms >= 3.0 && total_ms >= queue_ms + 20.0);
    }
}
