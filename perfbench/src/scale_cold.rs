//! `scale-cold`: the 2^20-user streaming scale dataset in 8 shards behind
//! `ShardRouter::recommend`, driven with skewed users that mostly miss the
//! shard caches. A miss pays lazy per-request `sparse_ppr`, layering and the
//! f32 forward, with no HTTP in the path.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNetConfig, ScoreService, ShardService};
use kucnet_datasets::{load_shard_segments, write_scale_dataset, ScaleProfile};
use kucnet_graph::{
    build_layered_graph, shard_of, LayeredGraph, LayeringOptions, NodeId, Segment, UserId,
};
use kucnet_ppr::{sparse_ppr, PprConfig, PprTopK};
use kucnet_serve::{CacheStats, ServeConfig, ShardRouter};

use crate::common::*;
use crate::load::{closed_loop, derive_seed, open_loop, paced, sample_users, skewed_users};
use crate::stats::percentile_of;
use crate::trace::{Tracer, NO_REQUEST};

/// Serve shards.
const N_SHARDS: usize = 8;
/// Per-shard subgraph cache entries.
const CACHE_CAPACITY: usize = 8192;
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 40.0;
/// Skew exponent of the user draw.
const SKEW: f64 = 0.8;
/// Sparse PPR entries kept per user; equals the lazy per-request PPR of
/// `ShardService`, so the replay builds the graphs the router builds.
const PPR_KEEP: usize = 4096;
/// Model hot-swaps timed per run.
const UPDATES: usize = 80;
/// Hot-swaps per second: spread over seconds, the swaps sample the host's
/// speed over as long a stretch as the loops do.
const UPDATE_RATE: f64 = 10.0;
/// Requests replayed in-process by the traced run.
const REPLAY: usize = 120;
/// Set-ups per run: each generates and loads the whole dataset (~4.5 s).
const SETUP_REPS_LARGE: usize = 3;

/// Deletes the generated dataset directory when dropped, so it is removed
/// on every exit path, failures included.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Stack {
    router: ShardRouter,
    services: Vec<Arc<ShardService>>,
    segments: Vec<Vec<Arc<Segment>>>,
}

fn build_stack(
    profile: &ScaleProfile,
    dir: &Path,
    config: &KucNetConfig,
    serve: &ServeConfig,
    tr: &mut Tracer,
) -> Stack {
    tr.span("datasets.gen", NO_REQUEST, |_| {
        let _ = std::fs::remove_dir_all(dir);
        write_scale_dataset(profile, dir).expect("generate the scale dataset")
    });
    let segments: Vec<Vec<Arc<Segment>>> = tr.span("datasets.load", NO_REQUEST, |_| {
        (0..N_SHARDS)
            .map(|s| load_shard_segments(dir, profile, s, N_SHARDS).expect("load a shard"))
            .collect()
    });
    // Everything is resident now; the files are no longer needed.
    let _ = std::fs::remove_dir_all(dir);
    let services =
        tr.span("core.model_new", NO_REQUEST, |_| new_services(profile, config, &segments));
    let router = tr.span("serve.start", NO_REQUEST, |_| {
        ShardRouter::start(
            services.iter().map(|s| Arc::clone(s) as Arc<dyn ScoreService>).collect(),
            serve,
        )
        .expect("start the shard router")
    });
    Stack { router, services, segments }
}

fn new_services(
    profile: &ScaleProfile,
    config: &KucNetConfig,
    segments: &[Vec<Arc<Segment>>],
) -> Vec<Arc<ShardService>> {
    segments
        .iter()
        .enumerate()
        .map(|(s, segs)| {
            Arc::new(ShardService::from_segments(
                config.clone(),
                profile.layout(),
                profile.n_base_relations(),
                segs.clone(),
                s,
            ))
        })
        .collect()
}

fn cache_total(router: &ShardRouter) -> CacheStats {
    let mut total = CacheStats::default();
    for s in 0..router.n_shards() {
        let c = router.cache_stats(s);
        total.lookups += c.lookups;
        total.hits += c.hits;
        total.misses += c.misses;
        total.evictions += c.evictions;
    }
    total
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut profile = ScaleProfile::full();
    profile.seed = derive_seed(opts.seed, "scale-dataset");
    let config = KucNetConfig { seed: derive_seed(opts.seed, "model"), ..KucNetConfig::default() };
    let serve = ServeConfig { cache_capacity: CACHE_CAPACITY, ..ServeConfig::default() };
    let dir = crate::out_dir().join(format!("scale-{}", std::process::id()));
    let _cleanup = RemoveOnDrop(dir.clone());

    let (stack, setup_times) = repeat_setup(opts, SETUP_REPS_LARGE, tr, |tr| {
        build_stack(&profile, &dir, &config, &serve, tr)
    });
    let n_users = profile.n_users;
    let send =
        |u: u32| stack.router.recommend(UserId(u), TOP_K).is_ok_and(|r| r.ranking.len() == TOP_K);

    let open_users = skewed_users(
        derive_seed(opts.seed, "open"),
        n_users,
        SKEW,
        open_samples(RATE, 0.8 * opts.seconds),
    );
    let closed_users = skewed_users(derive_seed(opts.seed, "closed"), n_users, SKEW, 1 << 16);
    let before = cache_total(&stack.router);
    let batches_before: (u64, u64) = batch_totals(&stack.router);
    // One open-loop client: a miss keeps a core busy for most of the 25 ms
    // between arrivals, and two overlapping misses on two cores made the
    // tail follow host interference more than the request path.
    let open = open_loop(1, RATE, &open_users, send);
    let closed = closed_loop(
        CLOSED_CLIENTS,
        Duration::from_secs_f64(0.4 * opts.seconds),
        &closed_users,
        send,
    );
    let after = cache_total(&stack.router);
    let batches_after = batch_totals(&stack.router);
    let (lookups, hits, evictions) = cache_delta(&before, &after);

    // Hot-swap: republish the model on every shard and time until a probe
    // user is served by the new version (a cold request: the version bump
    // makes every cached context stale).
    let probes = sample_users(derive_seed(opts.seed, "update"), n_users, UPDATES);
    let timed = paced(UPDATE_RATE, UPDATES, |i| {
        let u = probes[i];
        let started = Instant::now();
        let versions: Vec<u64> = (0..N_SHARDS)
            .map(|s| {
                let service = Arc::clone(&stack.services[s]) as Arc<dyn ScoreService>;
                stack.router.registry(s).reload("default", service).expect("reload a shard model")
            })
            .collect();
        let want = versions[stack.router.shard_for(UserId(u))];
        let ok = stack.router.recommend(UserId(u), TOP_K).is_ok_and(|r| r.model_version == want);
        ok.then(|| started.elapsed().as_secs_f64() * 1e3)
    });
    let (update, update_ms) = timed_phase("update", "republish to new-version reply", timed);

    // Output check: router replies equal the top-K of `score_user` on the
    // shard that owns the user.
    let mut check = PhaseCount::new("check");
    for u in sample_users(derive_seed(opts.seed, "check"), n_users, CHECK_USERS) {
        let served = stack.router.recommend(UserId(u), TOP_K).map(|r| r.ranking);
        let scores = stack.services[shard_of(u, N_SHARDS)].score_user(UserId(u));
        check.count(served == Ok(top_pairs(&scores)));
    }

    let mut out = Outcome {
        correct: check.failed == 0,
        e2e: e2e_metrics(&setup_times, &open, &closed, &update_ms),
        gen_lag_p99_ms: percentile_of(&open.lag_ms, 0.99).unwrap_or(0.0),
        ..Outcome::default()
    };
    out.phases =
        vec![PhaseCount::of("open", &open), PhaseCount::of("closed", &closed), update, check];
    out.program = vec![
        ("users".into(), n_users.to_string()),
        ("shards".into(), N_SHARDS.to_string()),
        ("serve.workers_per_shard".into(), serve.workers.to_string()),
        ("serve.batch_threads".into(), serve.batch_threads.to_string()),
        ("serve.cache_capacity_per_shard".into(), serve.cache_capacity.to_string()),
        ("serve.flush_deadline_ms".into(), format!("{}", serve.flush_deadline.as_secs_f64() * 1e3)),
        ("model.threads".into(), config.threads.to_string()),
        ("open.rate_rps".into(), RATE.to_string()),
        ("clients.open".into(), "1".into()),
        ("clients.closed".into(), CLOSED_CLIENTS.to_string()),
        ("update.rate_per_s".into(), UPDATE_RATE.to_string()),
    ];

    if opts.trace {
        let hit_ratio = ratio(hits as f64, lookups as f64);
        let batch_avg = ratio(
            (batches_after.1 - batches_before.1) as f64,
            (batches_after.0 - batches_before.0) as f64,
        );
        let p50 = percentile_of(&open.latency_ms, 0.50).unwrap_or(0.0);
        trace_layers(
            &mut out,
            &stack,
            &profile,
            &serve,
            &open_users,
            tr,
            hit_ratio,
            batch_avg,
            evictions as f64,
            p50,
        );
    }
    stack.router.shutdown();
    out
}

fn batch_totals(router: &ShardRouter) -> (u64, u64) {
    (0..router.n_shards()).fold((0, 0), |(b, j), s| {
        let st = router.batcher_stats(s);
        (b + st.batches, j + st.jobs)
    })
}

/// The miss path of the router, rebuilt from the public layer functions.
struct ScalePath<'a> {
    stack: &'a Stack,
    /// `(shard, segment)` of every user.
    owner: Vec<(u32, u32)>,
    n_nodes: usize,
    depth: usize,
    k: usize,
    entries: Cell<(usize, usize)>,
    edges: Cell<(usize, usize)>,
}

impl ReplayPath for ScalePath<'_> {
    fn route(&self, user: u32) -> (Arc<dyn ScoreService>, bool) {
        (Arc::clone(&self.stack.services[shard_of(user, N_SHARDS)]) as Arc<dyn ScoreService>, false)
    }

    fn build(&self, user: u32, tr: &mut Tracer, req: u64) -> LayeredGraph {
        let (s, k) = self.owner[user as usize];
        let seg = &self.stack.segments[s as usize][k as usize];
        let root = NodeId(user);
        let local_root = seg.local_of(root).expect("a user's segment holds the user");
        let local = tr.span("ppr.sparse_ppr", req, |_| {
            sparse_ppr(seg.csr(), NodeId(local_root), &PprConfig::default(), PPR_KEEP)
        });
        let entries: Vec<(u32, f32)> =
            local.iter().map(|&(n, s)| (seg.nodes()[n as usize], s)).collect();
        let graph = tr.span("graph.layering", req, |_| {
            let mut sel = PprTopK::from_entries(&entries, self.k);
            build_layered_graph(
                &seg.view(self.n_nodes),
                root,
                &LayeringOptions::new(self.depth),
                &mut sel,
            )
        });
        let (n, e) = self.entries.get();
        self.entries.set((n + 1, e + entries.len()));
        let (n, e) = self.edges.get();
        self.edges.set((n + 1, e + graph.total_edges()));
        graph
    }
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    out: &mut Outcome,
    stack: &Stack,
    profile: &ScaleProfile,
    serve: &ServeConfig,
    open_users: &[u32],
    tr: &mut Tracer,
    hit_ratio: f64,
    batch_avg: f64,
    evictions: f64,
    latency_p50_ms: f64,
) {
    let mut owner = vec![(u32::MAX, u32::MAX); profile.n_users as usize];
    for (s, segs) in stack.segments.iter().enumerate() {
        for (k, seg) in segs.iter().enumerate() {
            for u in seg.users(profile.n_users) {
                owner[u.0 as usize] = (s as u32, k as u32);
            }
        }
    }
    let cfg = stack.services[0].config().clone();
    let path = ScalePath {
        stack,
        owner,
        n_nodes: profile.layout().n_nodes(),
        depth: cfg.depth,
        k: cfg.k,
        entries: Cell::new((0, 0)),
        edges: Cell::new((0, 0)),
    };
    let users = &open_users[..REPLAY.min(open_users.len())];
    // The replayed graphs must be the ones the router builds.
    for &u in &users[..3] {
        let mine = path.build(u, &mut Tracer::new(false), NO_REQUEST);
        let theirs = stack.services[shard_of(u, N_SHARDS)].build_graph(UserId(u));
        assert_eq!(
            mine.node_lists, theirs.node_lists,
            "replayed graph of user {u} differs from the router's"
        );
    }
    path.entries.set((0, 0));
    path.edges.set((0, 0));

    let [untraced, traced] = replay(&path, &[], users, tr);
    let probe = QueueProbe::default();
    let router = ShardRouter::start(
        stack.services.iter().map(|s| probe.wrap(Arc::clone(s) as _)).collect(),
        serve,
    )
    .expect("start the replay router");
    let submits = probe.replay_submits(RATE, users, |u| router.recommend(UserId(u), TOP_K).is_ok());
    router.shutdown();
    let (submit_ms, wait) = submit_medians(&submits);

    let by_name = self_ms_by_name(tr.spans());
    let miss = 1.0 - hit_ratio;
    let rows = vec![
        Row { name: "serve.queue_wait", per_call_ms: wait, calls: 1.0 },
        Row::of(&by_name, "serve.route", 1.0),
        Row::of(&by_name, "serve.cache", 1.0),
        Row::of(&by_name, "ppr.sparse_ppr", miss),
        Row::of(&by_name, "graph.layering", miss),
        Row::of(&by_name, "core.user_state", miss),
        Row::of(&by_name, "core.forward_f32", 1.0),
        Row::of(&by_name, "core.topk", 1.0),
    ];
    let mut table = layer_table(&rows, latency_p50_ms);
    let ppr = &rows[3];
    let largest = rows
        .iter()
        .max_by(|a, b| a.per_request_ms().total_cmp(&b.per_request_ms()))
        .map_or("", |r| r.name);
    let share = ratio(ppr.per_request_ms(), latency_p50_ms);
    table.push(format!(
        "ppr.sparse_ppr {:.3} ms/miss x miss rate {:.3} = {:.3} ms per request = {:.1}% of the median request \
         ({latency_p50_ms:.3} ms); largest layer: {largest}; per-request PPR {} the median request",
        ppr.per_call_ms,
        miss,
        ppr.per_request_ms(),
        100.0 * share,
        if share > 0.5 { "dominates" } else { "does not dominate" }
    ));
    table.push(format!(
        "serve.shard_recommend_ms {submit_ms:.4} (median ShardRouter::recommend, replayed)"
    ));
    let (n_e, sum_e) = path.entries.get();
    let (n_g, sum_g) = path.edges.get();
    out.layers = LayerInputs {
        by_name: &by_name,
        spans: tr.spans(),
        entries_per_user: ratio(sum_e as f64, n_e as f64),
        edges_per_user: ratio(sum_g as f64, n_g as f64),
        submit_ms,
        queue_wait_ms: wait,
        batch_size_avg: batch_avg,
        cache_hit_ratio: hit_ratio,
        cache_evictions: evictions,
        invalidated_users: 0.0,
        recomputed_users: 0.0,
        changed_ratio: 0.0,
        ppr_request_share: share,
        gen_lag_p99_ms: out.gen_lag_p99_ms,
        trace_overhead_ratio: overhead_ratio(&traced, &untraced),
    }
    .metrics();
    out.table = table;
}
