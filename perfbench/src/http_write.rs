//! `http-write`: amazon-book-small behind `Server::start_dynamic` with
//! `DynamicService::for_model`. One client thread sends `/recommend` reads
//! on the open-loop schedule while the other posts the seeded update stream
//! (interactions and KG triples) at a fixed rate, with `{"refresh":1}`
//! after every fixed number of appends. A refresh recomputes PPR for the
//! dirty frontier and invalidates the cached users whose top-K changed.
//! The rest of the stream is then posted with no reads beside it, and its
//! refresh round trips make `update_p50_ms`.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kucnet::{KucNet, ScoreService};
use kucnet_datasets::{update_stream, DatasetProfile, UpdateOp};
use kucnet_dynamic::{DynamicConfig, DynamicGraph, DynamicService, RefreshPhase};
use kucnet_graph::{build_layered_graph, Ckg, KgNode, LayeredGraph, LayeringOptions, UserId};
use kucnet_ppr::{sparse_ppr, PprTopK};
use kucnet_serve::{Batcher, ModelRegistry, ServeConfig, Server, ServerHandle, SubgraphCache};

use crate::common::*;
use crate::http::{json_u64, parse_ranking, post_bytes, post_ok, recommend_body};
use crate::http_warm::{generate, model_config, recommend, serve_provenance, Counters};
use crate::load::{closed_loop, derive_seed, open_loop, sample_users, skewed_users};
use crate::stats::{median, percentile_of};
use crate::trace::{Span, Tracer, NO_REQUEST};

/// Open-loop read rate, requests per second.
const RATE: f64 = 100.0;
/// Update-stream rate, operations per second.
const WRITE_RATE: f64 = 5.0;
/// Appends between refreshes.
const REFRESH_EVERY: usize = 16;
/// Refreshes posted untimed after the open loop, before those timed: the
/// first few after the reads stop ran up to twice as slow as the rest.
const QUIET_WARMUP: usize = 6;
/// Refreshes timed after the warm-up, with no reads beside them. A refresh
/// keeps both cores busy, so its time follows the host's speed; 64 of them
/// sample it over about seven seconds.
const QUIET_REFRESHES: usize = 64;
/// Overlay size past which a refresh compacts (the dynamic graph default).
const COMPACT_THRESHOLD: usize = 1024;
/// Skew exponent of the user draw.
const SKEW: f64 = 0.8;
/// Requests replayed in-process by the traced run.
const REPLAY: usize = 300;

struct Stack {
    server: ServerHandle,
    service: Arc<DynamicService>,
    ckg: Ckg,
    profile: DatasetProfile,
    n_users: u32,
}

fn build_stack(seed: u64, serve: &ServeConfig, tr: &mut Tracer) -> Stack {
    let data = generate(DatasetProfile::amazon_book_small(), seed, tr);
    let service = tr.span("core.model_new", NO_REQUEST, |_| {
        let model = Arc::new(KucNet::new(model_config(seed), data.ckg.clone()));
        Arc::new(DynamicService::for_model(model, COMPACT_THRESHOLD))
    });
    let server = tr.span("serve.start", NO_REQUEST, |_| {
        Server::start_dynamic(
            Arc::clone(&service) as _,
            Arc::clone(&service) as _,
            serve.clone(),
            "127.0.0.1:0",
        )
        .expect("start the server")
    });
    let n_users = data.ckg.n_users() as u32;
    Stack { server, service, ckg: data.ckg, profile: data.profile, n_users }
}

/// The `/update` body of one stream operation.
fn update_body(ckg: &Ckg, op: UpdateOp) -> String {
    let node = |n: KgNode| match n {
        KgNode::User(u) => ckg.user_node(u).0,
        KgNode::Item(i) => ckg.item_node(i).0,
        KgNode::Entity(e) => ckg.entity_node(e).0,
    };
    match op {
        UpdateOp::Interact(u, i) => format!("{{\"user\":{},\"item\":{}}}", u.0, i.0),
        UpdateOp::KgTriple(h, r, t) => {
            format!("{{\"head\":{},\"rel\":{},\"tail\":{}}}", node(h), r + 1, node(t))
        }
        UpdateOp::Refresh => "{\"refresh\":1}".to_string(),
    }
}

/// `(round trip ms, invalidated, recomputed, changed)` of one refresh.
type RefreshReply = (f64, u64, u64, u64);

/// Posts one stream operation; a refresh's reply is logged in `refreshes`.
fn post_op(
    addr: SocketAddr,
    ckg: &Ckg,
    op: UpdateOp,
    refreshes: &Mutex<Vec<RefreshReply>>,
) -> bool {
    let started = Instant::now();
    let Some(reply) = post_ok(addr, "/update", &update_body(ckg, op)) else {
        return false;
    };
    if op == UpdateOp::Refresh {
        let field = |k| json_u64(&reply, k).unwrap_or(0);
        refreshes.lock().expect("refresh log lock").push((
            started.elapsed().as_secs_f64() * 1e3,
            field("invalidated"),
            field("recomputed"),
            field("changed"),
        ));
    }
    true
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let serve = ServeConfig::default();
    let (stack, setup_times) =
        repeat_setup(opts, SETUP_REPS_SMALL, tr, |tr| build_stack(opts.seed, &serve, tr));
    let addr = stack.server.addr();

    let open_users = skewed_users(
        derive_seed(opts.seed, "open"),
        stack.n_users,
        SKEW,
        open_samples(RATE, 0.5 * opts.seconds),
    );
    let open_secs = open_users.len() as f64 / RATE;
    // Whole blocks of `REFRESH_EVERY` appends and a refresh: those that fit
    // the open loop at `WRITE_RATE`, then `QUIET_WARMUP + QUIET_REFRESHES`
    // more.
    let mixed_blocks = (WRITE_RATE * open_secs / (REFRESH_EVERY + 1) as f64) as usize;
    let ops = update_stream(
        &stack.profile,
        derive_seed(opts.seed, "updates"),
        (mixed_blocks + QUIET_WARMUP + QUIET_REFRESHES) * REFRESH_EVERY,
        REFRESH_EVERY,
    );
    let (mixed_ops, quiet_ops) = ops.split_at(mixed_blocks * (REFRESH_EVERY + 1));
    let op_index: Vec<u32> = (0..mixed_ops.len() as u32).collect();
    let mixed_refreshes: Mutex<Vec<RefreshReply>> = Mutex::new(Vec::new());

    let cache_before = stack.server.cache_stats();
    let batch_before = stack.server.batcher_stats();
    let (open, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            open_loop(1, WRITE_RATE, &op_index, |i| {
                post_op(addr, &stack.ckg, mixed_ops[i as usize], &mixed_refreshes)
            })
        });
        let open = open_loop(1, RATE, &open_users, |u| recommend(addr, u));
        (open, writer.join().expect("writer thread panicked"))
    });
    // The rest of the stream with no reads beside it: each refresh's round
    // trip is then the server's own cost of making the appends servable.
    let quiet_refreshes: Mutex<Vec<RefreshReply>> = Mutex::new(Vec::new());
    let mut quiet = PhaseCount::new("refresh");
    for &op in quiet_ops {
        quiet.count(post_op(addr, &stack.ckg, op, &quiet_refreshes));
    }
    let quiet_refreshes = quiet_refreshes.into_inner().expect("refresh log lock");
    let update_ms: Vec<f64> = quiet_refreshes.iter().skip(QUIET_WARMUP).map(|r| r.0).collect();
    quiet.detail = times_detail("refresh round trip", &update_ms);
    let closed_users = skewed_users(derive_seed(opts.seed, "closed"), stack.n_users, SKEW, 1 << 16);
    let closed = closed_loop(
        CLOSED_CLIENTS,
        Duration::from_secs_f64(0.2 * opts.seconds),
        &closed_users,
        |u| recommend(addr, u),
    );
    let cache_after = stack.server.cache_stats();
    let batch_after = stack.server.batcher_stats();
    let mixed_refreshes = mixed_refreshes.into_inner().expect("refresh log lock");
    let mut write_phase = PhaseCount::of("write", &writes);
    write_phase.detail.push_str(&format!(
        "; {}",
        times_detail(
            "refresh round trip",
            &mixed_refreshes.iter().map(|r| r.0).collect::<Vec<_>>()
        )
    ));

    // Output check: after the last refresh, served rankings equal
    // `DynamicService::score_user` on the final snapshot.
    let mut check = PhaseCount::new("check");
    for u in sample_users(derive_seed(opts.seed, "check"), stack.n_users, CHECK_USERS) {
        let served =
            post_ok(addr, "/recommend", &recommend_body(u, TOP_K)).and_then(|b| parse_ranking(&b));
        check.count(
            served.is_some_and(|r| r.items == top_pairs(&stack.service.score_user(UserId(u)))),
        );
    }

    let mut out = Outcome {
        correct: check.failed == 0 && stack.service.graph().pending_len() == 0,
        e2e: e2e_metrics(&setup_times, &open, &closed, &update_ms),
        gen_lag_p99_ms: percentile_of(&open.lag_ms, 0.99)
            .unwrap_or(0.0)
            .max(percentile_of(&writes.lag_ms, 0.99).unwrap_or(0.0)),
        ..Outcome::default()
    };
    out.phases = vec![
        PhaseCount::of("open", &open),
        write_phase,
        quiet,
        PhaseCount::of("closed", &closed),
        check,
    ];
    out.program = serve_provenance(&serve, stack.service.model().config(), stack.n_users, RATE);
    out.program
        .push(("dynamic.threads".into(), stack.service.model().config().threads.to_string()));
    out.program.push(("clients.open".into(), "1 read + 1 write".into()));
    out.program.push(("clients.closed".into(), CLOSED_CLIENTS.to_string()));
    out.program.push(("write.rate_ops".into(), WRITE_RATE.to_string()));
    out.program.push(("write.refresh_every".into(), REFRESH_EVERY.to_string()));
    out.program.push(("write.quiet_warmup".into(), QUIET_WARMUP.to_string()));
    out.program.push(("write.quiet_refreshes".into(), QUIET_REFRESHES.to_string()));

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
        let users = &open_users[..REPLAY.min(open_users.len())];
        let refreshes = [mixed_refreshes, quiet_refreshes].concat();
        let (table, layers) = trace_layers(&stack, &ops, &refreshes, users, tr, &counters, &serve);
        out.table = table;
        out.layers = layers;
    }
    out
}

/// The read path of the dynamic service, rebuilt from public layer
/// functions over the committed snapshot.
struct DynamicPath<'a> {
    service: &'a Arc<DynamicService>,
    edges: std::cell::Cell<(usize, usize)>,
}

impl ReplayPath for DynamicPath<'_> {
    fn http_bytes(&self, user: u32) -> Option<Vec<u8>> {
        Some(post_bytes("/recommend", &recommend_body(user, TOP_K)))
    }

    fn route(&self, _user: u32) -> (Arc<dyn ScoreService>, bool) {
        (Arc::clone(self.service) as Arc<dyn ScoreService>, false)
    }

    fn build(&self, user: u32, tr: &mut Tracer, req: u64) -> LayeredGraph {
        let snap = self.service.graph().snapshot();
        let cfg = self.service.model().config();
        let root = self.service.model().ckg().user_node(UserId(user));
        let graph = tr.span("graph.layering", req, |_| {
            let mut sel = PprTopK::from_entries(snap.ppr_entries(user), cfg.k);
            build_layered_graph(&snap.view(), root, &LayeringOptions::new(cfg.depth), &mut sel)
        });
        let (n, e) = self.edges.get();
        self.edges.set((n + 1, e + graph.total_edges()));
        graph
    }
}

/// Per-phase durations (ms) of one refresh tick on the replica.
const TICK_PHASES: [&str; 5] = [
    "dynamic.tick_collect",
    "dynamic.tick_frontier",
    "dynamic.tick_recompute",
    "dynamic.tick_compact",
    "dynamic.tick_commit",
];

fn phase_index(p: RefreshPhase) -> usize {
    match p {
        RefreshPhase::Collect => 0,
        RefreshPhase::Frontier => 1,
        RefreshPhase::Recompute => 2,
        RefreshPhase::Compact => 3,
        RefreshPhase::Commit => 4,
    }
}

/// Feeds the update stream to a replica `DynamicGraph` configured like the
/// served one, timing every append and every refresh phase (the interval
/// between consecutive `refresh_tick_observed` callbacks).
fn replay_replica(service: &DynamicService, ops: &[UpdateOp], tr: &mut Tracer) {
    let model = service.model();
    let ckg = model.ckg();
    let config = DynamicConfig {
        compact_threshold: COMPACT_THRESHOLD,
        threads: model.config().threads,
        ..DynamicConfig::default()
    };
    let replica = DynamicGraph::new(ckg, config);
    let node = |n: KgNode| match n {
        KgNode::User(u) => ckg.user_node(u).0,
        KgNode::Item(i) => ckg.item_node(i).0,
        KgNode::Entity(e) => ckg.entity_node(e).0,
    };
    for &op in ops {
        match op {
            UpdateOp::Interact(u, i) => {
                tr.span("dynamic.append", NO_REQUEST, |_| replica.append_interaction(u.0, i.0))
                    .expect("replica append");
            }
            UpdateOp::KgTriple(h, r, t) => {
                tr.span("dynamic.append", NO_REQUEST, |_| {
                    replica.append_triple(node(h), r + 1, node(t))
                })
                .expect("replica append");
            }
            UpdateOp::Refresh => {
                let mut marks: Vec<(usize, Instant)> = Vec::with_capacity(5);
                let started = Instant::now();
                replica
                    .refresh_tick_observed(&mut |p| marks.push((phase_index(p), Instant::now())));
                let ended = Instant::now();
                let start_ns = tr.ns_of(started);
                tr.record(Span {
                    name: "dynamic.refresh_tick",
                    start_ns,
                    end_ns: tr.ns_of(ended),
                    parent: None,
                    request: NO_REQUEST,
                });
                for (j, &(phase, at)) in marks.iter().enumerate() {
                    let until = marks.get(j + 1).map_or(ended, |m| m.1);
                    tr.record(Span {
                        name: TICK_PHASES[phase],
                        start_ns: tr.ns_of(at),
                        end_ns: tr.ns_of(until),
                        parent: None,
                        request: NO_REQUEST,
                    });
                }
            }
        }
    }
}

fn trace_layers(
    stack: &Stack,
    ops: &[UpdateOp],
    refreshes: &[RefreshReply],
    users: &[u32],
    tr: &mut Tracer,
    c: &Counters,
    serve: &ServeConfig,
) -> (Vec<String>, Vec<crate::report::Metric>) {
    let path = DynamicPath { service: &stack.service, edges: std::cell::Cell::new((0, 0)) };
    for &u in users.iter().take(3) {
        let mine = path.build(u, &mut Tracer::new(false), NO_REQUEST);
        assert_eq!(
            mine.node_lists,
            stack.service.build_user_graph(UserId(u)).node_lists,
            "replayed graph of user {u} differs"
        );
    }
    // Per-user PPR runs on the write path (refresh recompute); time one
    // vector per user over the committed snapshot.
    let snap = stack.service.graph().snapshot();
    let cfg = stack.service.graph().config().clone();
    let mut entries = (0usize, 0usize);
    for &u in users.iter().take(50) {
        let root = stack.service.model().ckg().user_node(UserId(u));
        let e = tr.span("ppr.sparse_ppr", NO_REQUEST, |_| {
            sparse_ppr(&snap.view(), root, &cfg.ppr, cfg.keep)
        });
        entries = (entries.0 + 1, entries.1 + e.len());
    }
    replay_replica(&stack.service, ops, tr);

    let [untraced, traced] = replay(&path, &[], users, tr);
    let probe = QueueProbe::default();
    let registry =
        Arc::new(ModelRegistry::single(probe.wrap(Arc::clone(&stack.service) as _), serve.ab_seed));
    let batcher =
        Batcher::start(registry, Arc::new(SubgraphCache::new(serve.cache_capacity)), serve);
    let submits = probe.replay_submits(RATE, users, |u| batcher.submit(UserId(u), TOP_K).is_ok());
    batcher.shutdown();
    let (submit_ms, wait) = submit_medians(&submits);

    let by_name = self_ms_by_name(tr.spans());
    let miss = 1.0 - c.hit_ratio;
    let rows = vec![
        Row::of(&by_name, "serve.http_parse", 1.0),
        Row { name: "serve.queue_wait", per_call_ms: wait, calls: 1.0 },
        Row::of(&by_name, "serve.route", 1.0),
        Row::of(&by_name, "serve.cache", 1.0),
        Row::of(&by_name, "graph.layering", miss),
        Row::of(&by_name, "core.user_state", miss),
        Row::of(&by_name, "core.forward_f32", 1.0),
        Row::of(&by_name, "core.topk", 1.0),
    ];
    let mut table = layer_table(&rows, c.latency_p50_ms);
    let med = |name: &str| by_name.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    table.push(format!("dynamic.append_us {:.3}", med("dynamic.append") * 1e3));
    for name in ["dynamic.refresh_tick"].iter().chain(TICK_PHASES.iter()) {
        table.push(format!("{name}_ms {:.4}", med(name)));
    }
    table.push(format!("serve.http_parse_us {:.3}", med("serve.http_parse") * 1e3));
    table.push(format!(
        "ppr.precompute_s {:.4} (PprCache::compute inside KucNet::new)",
        stack.service.model().ppr_seconds
    ));
    let n = refreshes.len().max(1) as f64;
    let invalidated: f64 = refreshes.iter().map(|r| r.1 as f64).sum::<f64>() / n;
    let recomputed: f64 = refreshes.iter().map(|r| r.2 as f64).sum::<f64>() / n;
    let changed: f64 = refreshes.iter().map(|r| r.3 as f64).sum::<f64>() / n;
    table.push(format!(
        "refreshes {} (per refresh: recomputed {recomputed:.1}, changed {changed:.1}, invalidated {invalidated:.1})",
        refreshes.len()
    ));
    let (n_g, sum_g) = path.edges.get();
    let layers = LayerInputs {
        by_name: &by_name,
        spans: tr.spans(),
        entries_per_user: ratio(entries.1 as f64, entries.0 as f64),
        edges_per_user: ratio(sum_g as f64, n_g as f64),
        submit_ms,
        queue_wait_ms: wait,
        batch_size_avg: c.batch_avg,
        cache_hit_ratio: c.hit_ratio,
        cache_evictions: c.evictions,
        invalidated_users: invalidated,
        recomputed_users: recomputed,
        changed_ratio: ratio(changed, recomputed),
        ppr_request_share: 0.0,
        gen_lag_p99_ms: c.gen_lag_p99_ms,
        trace_overhead_ratio: overhead_ratio(&traced, &untraced),
    }
    .metrics();
    (table, layers)
}
