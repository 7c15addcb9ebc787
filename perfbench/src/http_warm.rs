//! `http-warm`: lastfm-small registered as two variants of one model, `f32`
//! and `i8`, split 50/50 by the `ModelRegistry` and served over loopback
//! TCP by `Server::start_full`. Every user is requested once before timing,
//! so every timed request hits the cache: the HTTP frontend, batcher,
//! registry routing, both forward precisions and top-K make up its cost.

use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_graph::{build_layered_graph, Ckg, LayeredGraph, LayeringOptions, UserId};
use kucnet_ppr::{sparse_ppr, PprConfig, PprTopK};
use kucnet_serve::{Batcher, ModelRegistry, ServeConfig, Server, ServerHandle, SubgraphCache};
use kucnet_tensor::MatrixPool;

use crate::common::*;
use crate::http::{parse_ranking, post_bytes, post_ok, recommend_body};
use crate::load::{closed_loop, derive_seed, open_loop, paced, sample_users, skewed_users};
use crate::report::Metric;
use crate::stats::percentile_of;
use crate::trace::{Tracer, NO_REQUEST};

/// Open-loop arrival rate, requests per second.
const RATE: f64 = 100.0;
/// Skew exponent of the user draw.
const SKEW: f64 = 0.8;
/// Model hot-swaps timed per run.
const UPDATES: usize = 96;
/// Hot-swaps per second: spread over seconds, the swaps sample the host's
/// speed over as long a stretch as the loops do.
const UPDATE_RATE: f64 = 20.0;
/// Requests replayed in-process by the traced run.
const REPLAY: usize = 400;
/// Sparse PPR entries kept per user by `KucNet::new`.
pub const PPR_KEEP: usize = 4096;
/// Variants and their traffic weights.
const VARIANTS: [(&str, u64, bool); 2] = [("f32", 50, false), ("i8", 50, true)];

/// A generated small dataset and its CKG.
pub struct Data {
    /// The dataset profile.
    pub profile: DatasetProfile,
    /// The CKG over every interaction.
    pub ckg: Ckg,
}

/// Generates `profile`'s dataset from the workload seed, with set-up spans.
pub fn generate(profile: DatasetProfile, seed: u64, tr: &mut Tracer) -> Data {
    let data = tr.span("datasets.gen", NO_REQUEST, |_| {
        GeneratedDataset::generate(&profile, derive_seed(seed, "dataset"))
    });
    let ckg = tr.span("datasets.load", NO_REQUEST, |_| data.build_ckg(&data.interactions));
    Data { profile, ckg }
}

/// The model config every small workload uses: defaults, seeded from the
/// workload seed.
pub fn model_config(seed: u64) -> KucNetConfig {
    KucNetConfig { seed: derive_seed(seed, "model"), ..KucNetConfig::default() }
}

struct Stack {
    server: ServerHandle,
    model: Arc<KucNet>,
    n_users: u32,
}

fn build_stack(seed: u64, config: &KucNetConfig, serve: &ServeConfig, tr: &mut Tracer) -> Stack {
    let data = generate(DatasetProfile::lastfm_small(), seed, tr);
    let n_users = data.ckg.n_users() as u32;
    let model =
        tr.span("core.model_new", NO_REQUEST, |_| Arc::new(KucNet::new(config.clone(), data.ckg)));
    let server = tr.span("serve.start", NO_REQUEST, |_| {
        let registry = registry_of(&(Arc::clone(&model) as Arc<dyn ScoreService>));
        Server::start_full(registry, None, None, serve.clone(), "127.0.0.1:0")
            .expect("start the server")
    });
    tr.span("bench.prewarm", NO_REQUEST, |_| {
        for u in 0..n_users {
            post_ok(server.addr(), "/recommend", &recommend_body(u, TOP_K))
                .expect("prewarm request");
        }
    });
    Stack { server, model, n_users }
}

fn registry_of(service: &Arc<dyn ScoreService>) -> Arc<ModelRegistry> {
    let mut registry = ModelRegistry::new(ServeConfig::default().ab_seed);
    for (name, weight, _) in VARIANTS {
        registry.register(name, weight, Arc::clone(service)).expect("register a variant");
    }
    for (name, _, quantized) in VARIANTS {
        registry.set_quantized(name, quantized).expect("set a variant's precision");
    }
    Arc::new(registry)
}

/// Sends one `/recommend` and checks it returned a full ranking.
pub fn recommend(addr: SocketAddr, user: u32) -> bool {
    post_ok(addr, "/recommend", &recommend_body(user, TOP_K))
        .and_then(|b| parse_ranking(&b))
        .is_some_and(|r| r.items.len() == TOP_K)
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let config = model_config(opts.seed);
    let serve = ServeConfig::default();
    let (stack, setup_times) =
        repeat_setup(opts, SETUP_REPS, tr, |tr| build_stack(opts.seed, &config, &serve, tr));
    let addr = stack.server.addr();
    let clients = opts.clients();

    let open_users = skewed_users(
        derive_seed(opts.seed, "open"),
        stack.n_users,
        SKEW,
        open_samples(RATE, 0.6 * opts.seconds),
    );
    let closed_users = skewed_users(derive_seed(opts.seed, "closed"), stack.n_users, SKEW, 1 << 16);
    let cache_before = stack.server.cache_stats();
    let batch_before = stack.server.batcher_stats();
    let open = open_loop(clients, RATE, &open_users, |u| recommend(addr, u));
    let closed = closed_loop(
        CLOSED_CLIENTS,
        Duration::from_secs_f64(0.2 * opts.seconds),
        &closed_users,
        |u| recommend(addr, u),
    );
    let cache_after = stack.server.cache_stats();
    let batch_after = stack.server.batcher_stats();

    // Output check: each served ranking equals the offline top-K of the
    // precision its variant serves.
    let registry = Arc::clone(stack.server.registry());
    let mut check = PhaseCount::new("check");
    let mut pool = MatrixPool::new();
    for u in sample_users(derive_seed(opts.seed, "check"), stack.n_users, CHECK_USERS) {
        let served =
            post_ok(addr, "/recommend", &recommend_body(u, TOP_K)).and_then(|b| parse_ranking(&b));
        let graph = stack.model.build_user_graph(UserId(u));
        let quantized = VARIANTS[registry.pin().route(UserId(u))].2;
        let scores = if quantized {
            stack.model.score_graph_quant_pooled(&mut pool, &graph)
        } else {
            stack.model.score_graph(&graph)
        };
        check.count(served.is_some_and(|r| r.items == top_pairs(&scores)));
    }

    // Hot-swap: republish the model to the variant a probe user routes to,
    // and time until that user is served by the new version (a cold
    // request: the version bump makes every cached context stale).
    let probes = sample_users(derive_seed(opts.seed, "update"), stack.n_users, UPDATES);
    let timed = paced(UPDATE_RATE, probes.len(), |i| {
        let u = probes[i];
        let variant = registry.pin().route(UserId(u));
        let started = Instant::now();
        let version = registry
            .reload(VARIANTS[variant].0, Arc::clone(&stack.model) as Arc<dyn ScoreService>)
            .expect("reload a variant");
        let served =
            post_ok(addr, "/recommend", &recommend_body(u, TOP_K)).and_then(|b| parse_ranking(&b));
        let ok = served.is_some_and(|r| r.model_version == version);
        ok.then(|| started.elapsed().as_secs_f64() * 1e3)
    });
    let (update, update_ms) = timed_phase("update", "republish to new-version reply", timed);

    let mut out = Outcome {
        correct: check.failed == 0,
        e2e: e2e_metrics(&setup_times, &open, &closed, &update_ms),
        gen_lag_p99_ms: percentile_of(&open.lag_ms, 0.99).unwrap_or(0.0),
        ..Outcome::default()
    };
    out.phases =
        vec![PhaseCount::of("open", &open), PhaseCount::of("closed", &closed), check, update];
    out.program = serve_provenance(&serve, &config, stack.n_users, RATE);
    out.program.push(("clients.open".into(), clients.to_string()));
    out.program.push(("clients.closed".into(), CLOSED_CLIENTS.to_string()));
    out.program.push(("update.rate_per_s".into(), UPDATE_RATE.to_string()));

    if opts.trace {
        let (lookups, hits, evictions) = cache_delta(&cache_before, &cache_after);
        let counters = Counters {
            hit_ratio: ratio(hits as f64, lookups as f64),
            batch_avg: ratio(
                (batch_after.jobs - batch_before.jobs) as f64,
                (batch_after.batches - batch_before.batches) as f64,
            ),
            evictions: evictions as f64,
            latency_p50_ms: percentile_of(&open.latency_ms, 0.50).unwrap_or(0.0),
            gen_lag_p99_ms: out.gen_lag_p99_ms,
        };
        let probe = QueueProbe::default();
        let replay_registry = registry_of(&probe.wrap(Arc::clone(&stack.model) as _));
        let path = KucNetPath::new(&stack.model, Some(Arc::clone(&replay_registry)), true);
        let prewarm: Vec<u32> = (0..stack.n_users).collect();
        let users = &open_users[..REPLAY.min(open_users.len())];
        let batcher = Batcher::start(
            Arc::clone(&replay_registry),
            Arc::new(SubgraphCache::new(serve.cache_capacity)),
            &serve,
        );
        for &u in &prewarm {
            batcher.submit(UserId(u), TOP_K).expect("prewarm the replay batcher");
        }
        let (table, layers) = trace_kucnet(
            &path,
            &prewarm,
            users,
            tr,
            &counters,
            &probe,
            |u| batcher.submit(UserId(u), TOP_K).is_ok(),
            RATE,
        );
        batcher.shutdown();
        out.table = table;
        out.layers = layers;
    }
    out
}

/// Serving settings and sizes recorded with every run.
pub fn serve_provenance(
    serve: &ServeConfig,
    config: &KucNetConfig,
    n_users: u32,
    rate: f64,
) -> Vec<(String, String)> {
    vec![
        ("users".into(), n_users.to_string()),
        ("serve.workers".into(), serve.workers.to_string()),
        ("serve.batch_threads".into(), serve.batch_threads.to_string()),
        ("serve.cache_capacity".into(), serve.cache_capacity.to_string()),
        ("serve.max_batch".into(), serve.max_batch.to_string()),
        ("serve.flush_deadline_ms".into(), format!("{}", serve.flush_deadline.as_secs_f64() * 1e3)),
        ("model.threads".into(), config.threads.to_string()),
        ("open.rate_rps".into(), rate.to_string()),
    ]
}

/// Counters of the measured (untraced-path) phases a traced run reports.
pub struct Counters {
    /// Cache hits over lookups.
    pub hit_ratio: f64,
    /// Jobs per dispatched batch.
    pub batch_avg: f64,
    /// Cache evictions.
    pub evictions: f64,
    /// Open-loop median latency, ms.
    pub latency_p50_ms: f64,
    /// Generator lag p99, ms.
    pub gen_lag_p99_ms: f64,
}

/// The serving path of a `KucNet`-backed workload, rebuilt from public
/// layer functions: optional registry routing and HTTP parsing, then
/// layering over the model's CKG with the user's PPR top-K.
pub struct KucNetPath<'a> {
    model: &'a Arc<KucNet>,
    registry: Option<Arc<ModelRegistry>>,
    http: bool,
    /// Sum of kept PPR entries and count of users they were computed for.
    pub entries: Cell<(usize, usize)>,
    /// Sum of graph edges and count of graphs built.
    pub edges: Cell<(usize, usize)>,
}

impl<'a> KucNetPath<'a> {
    /// A path serving `model`, routed by `registry` when given.
    pub fn new(model: &'a Arc<KucNet>, registry: Option<Arc<ModelRegistry>>, http: bool) -> Self {
        Self { model, registry, http, entries: Cell::new((0, 0)), edges: Cell::new((0, 0)) }
    }

    /// `user`'s sparse PPR entries, computed as `PprCache::compute` does.
    pub fn ppr(&self, user: u32, tr: &mut Tracer, req: u64) -> Vec<(u32, f32)> {
        let ckg = self.model.ckg();
        let root = ckg.user_node(UserId(user));
        let entries = tr.span("ppr.sparse_ppr", req, |_| {
            sparse_ppr(ckg.csr(), root, &PprConfig::default(), PPR_KEEP)
        });
        let (n, e) = self.entries.get();
        self.entries.set((n + 1, e + entries.len()));
        entries
    }
}

impl ReplayPath for KucNetPath<'_> {
    fn http_bytes(&self, user: u32) -> Option<Vec<u8>> {
        self.http.then(|| post_bytes("/recommend", &recommend_body(user, TOP_K)))
    }

    fn route(&self, user: u32) -> (Arc<dyn ScoreService>, bool) {
        match &self.registry {
            Some(registry) => {
                let pin = registry.pin();
                let model = pin.model_for(UserId(user));
                (Arc::clone(model.service()), model.quantized())
            }
            None => (Arc::clone(self.model) as Arc<dyn ScoreService>, false),
        }
    }

    fn build(&self, user: u32, tr: &mut Tracer, req: u64) -> LayeredGraph {
        // PPR is precomputed at model construction on this path, so the
        // per-user vector is computed outside the request span.
        let entries = self.ppr(user, &mut Tracer::new(false), req);
        let ckg = self.model.ckg();
        let root = ckg.user_node(UserId(user));
        let cfg = self.model.config();
        let graph = tr.span("graph.layering", req, |_| {
            let mut sel = PprTopK::from_entries(&entries, cfg.k);
            build_layered_graph(ckg.csr(), root, &LayeringOptions::new(cfg.depth), &mut sel)
        });
        let (n, e) = self.edges.get();
        self.edges.set((n + 1, e + graph.total_edges()));
        graph
    }
}

/// Replays a `KucNet`-backed serving path (untraced, traced, and through a
/// replay batcher via `submit`, whose services `probe` wrapped) and builds
/// the per-layer table and metrics.
#[allow(clippy::too_many_arguments)]
pub fn trace_kucnet(
    path: &KucNetPath<'_>,
    prewarm: &[u32],
    users: &[u32],
    tr: &mut Tracer,
    c: &Counters,
    probe: &QueueProbe,
    submit: impl FnMut(u32) -> bool,
    rate: f64,
) -> (Vec<String>, Vec<Metric>) {
    // The replayed graphs must be the ones the model builds.
    for &u in users.iter().take(3) {
        let mine = path.build(u, &mut Tracer::new(false), NO_REQUEST);
        assert_eq!(
            mine.node_lists,
            path.model.build_graph(UserId(u), Vec::new()).node_lists,
            "replayed graph of user {u} differs"
        );
    }
    // PPR is off the request path here; time it per user all the same.
    for &u in users.iter().take(50) {
        path.ppr(u, tr, NO_REQUEST);
    }
    let [untraced, traced] = replay(path, prewarm, users, tr);
    let (submit_ms, wait) = submit_medians(&probe.replay_submits(rate, users, submit));

    let by_name = self_ms_by_name(tr.spans());
    let miss = 1.0 - c.hit_ratio;
    let requests = traced.len().max(1) as f64;
    let count = |name: &str| {
        tr.spans().iter().filter(|s| s.name == name && s.request != NO_REQUEST).count() as f64
            / requests
    };
    let rows = vec![
        Row::of(&by_name, "serve.http_parse", count("serve.http_parse")),
        Row { name: "serve.queue_wait", per_call_ms: wait, calls: 1.0 },
        Row::of(&by_name, "serve.route", 1.0),
        Row::of(&by_name, "serve.cache", 1.0),
        Row::of(&by_name, "graph.layering", miss),
        Row::of(&by_name, "core.user_state", miss),
        Row::of(&by_name, "core.forward_f32", count("core.forward_f32")),
        Row::of(&by_name, "core.forward_i8", count("core.forward_i8")),
        Row::of(&by_name, "core.topk", 1.0),
    ];
    let mut table = layer_table(&rows, c.latency_p50_ms);
    let med = |name: &str| by_name.get(name).and_then(|v| crate::stats::median(v)).unwrap_or(0.0);
    table.push(format!(
        "ppr.precompute_s {:.4} (PprCache::compute inside KucNet::new)",
        path.model.ppr_seconds
    ));
    if path.http {
        table.push(format!("serve.http_parse_us {:.3}", med("serve.http_parse") * 1e3));
    }
    if path.registry.is_some() {
        table.push(format!("core.forward_i8_ms {:.4}", med("core.forward_i8")));
    }
    let (n_e, sum_e) = path.entries.get();
    let (n_g, sum_g) = path.edges.get();
    let layers = LayerInputs {
        by_name: &by_name,
        spans: tr.spans(),
        entries_per_user: ratio(sum_e as f64, n_e as f64),
        edges_per_user: ratio(sum_g as f64, n_g as f64),
        submit_ms,
        queue_wait_ms: wait,
        batch_size_avg: c.batch_avg,
        cache_hit_ratio: c.hit_ratio,
        cache_evictions: c.evictions,
        invalidated_users: 0.0,
        recomputed_users: 0.0,
        changed_ratio: 0.0,
        ppr_request_share: 0.0,
        gen_lag_p99_ms: c.gen_lag_p99_ms,
        trace_overhead_ratio: overhead_ratio(&traced, &untraced),
    }
    .metrics();
    (table, layers)
}
