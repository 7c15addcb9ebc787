//! `train`: `KucNet::new` (eager PPR) on lastfm-small's training split, a
//! fixed number of `train_epoch` calls, one all-user `evaluate` on the
//! held-out split, then the trained model served in-process through a
//! `Batcher`. Only this workload runs the taped forward and backward, the
//! ordered gradient reduction and Adam.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNet, ScoreService};
use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset, Split};
use kucnet_eval::evaluate;
use kucnet_graph::{ItemId, UserId};
use kucnet_serve::{Batcher, ModelRegistry, ServeConfig, SubgraphCache};

use crate::common::*;
use crate::http_warm::{model_config, serve_provenance, trace_kucnet, Counters, KucNetPath};
use crate::load::{closed_loop, derive_seed, open_loop, sample_users, skewed_users};
use crate::stats::{median, percentile_of};
use crate::trace::{Tracer, NO_REQUEST};

/// Training epochs per run; `update_p50_ms` is their median. An epoch keeps
/// both cores busy, so its time follows the host's speed; twelve sample it
/// over about four seconds.
const EPOCHS: usize = 12;
/// Open-loop arrival rate of the serving phase, requests per second.
const RATE: f64 = 150.0;
/// Skew exponent of the user draw.
const SKEW: f64 = 0.8;
/// Requests replayed in-process by the traced run.
const REPLAY: usize = 400;
/// Share of each user's interactions held out for evaluation.
const TEST_RATIO: f32 = 0.2;

struct Stack {
    model: KucNet,
    split: Split,
}

fn build_stack(seed: u64, tr: &mut Tracer) -> Stack {
    let profile = DatasetProfile::lastfm_small();
    let data = tr.span("datasets.gen", NO_REQUEST, |_| {
        GeneratedDataset::generate(&profile, derive_seed(seed, "dataset"))
    });
    let (split, ckg) = tr.span("datasets.load", NO_REQUEST, |_| {
        let split = traditional_split(&data, TEST_RATIO, derive_seed(seed, "split"));
        let ckg = data.build_ckg(&split.train);
        (split, ckg)
    });
    let model = tr.span("core.model_new", NO_REQUEST, |_| KucNet::new(model_config(seed), ckg));
    Stack { model, split }
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let (stack, setup_times) =
        repeat_setup(opts, SETUP_REPS_SMALL, tr, |tr| build_stack(opts.seed, tr));
    let Stack { mut model, split } = stack;
    let ppr_seconds = model.ppr_seconds;

    let mut epoch_ms = Vec::with_capacity(EPOCHS);
    let mut losses = Vec::with_capacity(EPOCHS);
    for _ in 0..EPOCHS {
        let started = Instant::now();
        losses.push(tr.span("core.train_epoch", NO_REQUEST, |_| model.train_epoch()));
        epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let started = Instant::now();
    let metrics = tr.span("eval.evaluate", NO_REQUEST, |_| evaluate(&model, &split, TOP_K));
    let eval_s = started.elapsed().as_secs_f64();

    // Serve the trained model in-process.
    let model = Arc::new(model);
    let serve = ServeConfig::default();
    let registry =
        Arc::new(ModelRegistry::single(Arc::clone(&model) as Arc<dyn ScoreService>, serve.ab_seed));
    let cache = Arc::new(SubgraphCache::new(serve.cache_capacity));
    let batcher = Batcher::start(Arc::clone(&registry), Arc::clone(&cache), &serve);
    let n_users = model.n_users() as u32;
    let submit = |u: u32| batcher.submit(UserId(u), TOP_K).is_ok_and(|r| r.ranking.len() == TOP_K);
    for u in 0..n_users {
        assert!(submit(u), "prewarm request for user {u} failed");
    }
    let open_users = skewed_users(
        derive_seed(opts.seed, "open"),
        n_users,
        SKEW,
        open_samples(RATE, 0.5 * opts.seconds),
    );
    let closed_users = skewed_users(derive_seed(opts.seed, "closed"), n_users, SKEW, 1 << 16);
    let batch_before = batcher.stats();
    let cache_before = cache.stats();
    let open = open_loop(opts.clients(), RATE, &open_users, submit);
    let closed = closed_loop(
        CLOSED_CLIENTS,
        Duration::from_secs_f64(0.2 * opts.seconds),
        &closed_users,
        submit,
    );
    let batch_after = batcher.stats();
    let cache_after = cache.stats();

    // Output check: finite losses, recall in [0, 1], and served rankings
    // equal to the trained model's offline top-K.
    let mut check = PhaseCount::new("check");
    for u in sample_users(derive_seed(opts.seed, "check"), n_users, CHECK_USERS) {
        let served = batcher.submit(UserId(u), TOP_K).map(|r| r.ranking);
        check.count(served == Ok(top_pairs(&model.score_user(UserId(u)))));
    }
    let quality_ok = losses.iter().all(|l| l.is_finite()) && (0.0..=1.0).contains(&metrics.recall);

    let mut out = Outcome {
        correct: check.failed == 0 && quality_ok,
        e2e: e2e_metrics(&setup_times, &open, &closed, &epoch_ms),
        gen_lag_p99_ms: percentile_of(&open.lag_ms, 0.99).unwrap_or(0.0),
        ..Outcome::default()
    };
    let mut train = PhaseCount::new("train");
    for loss in &losses {
        train.count(loss.is_finite());
    }
    out.phases =
        vec![train, PhaseCount::of("open", &open), PhaseCount::of("closed", &closed), check];
    out.program = serve_provenance(&serve, model.config(), n_users, RATE);
    out.program.push(("clients.open".into(), opts.clients().to_string()));
    out.program.push(("clients.closed".into(), CLOSED_CLIENTS.to_string()));
    out.program.push(("train.epochs".into(), EPOCHS.to_string()));
    out.program.push(("train.batch_users".into(), model.config().batch_users.to_string()));

    let mut table = vec![
        format!("train losses {losses:?}"),
        format!(
            "core.train_epoch_s {:.4} (median of {EPOCHS})",
            median(&epoch_ms).unwrap_or(0.0) / 1e3
        ),
        format!("eval.eval_s {eval_s:.4}"),
        format!("eval.recall_at_20 {:.4}", metrics.recall),
        format!("eval.ndcg_at_20 {:.4}", metrics.ndcg),
        format!("ppr.precompute_s {ppr_seconds:.4} (PprCache::compute inside KucNet::new)"),
    ];
    if opts.trace {
        // Layering over every training user with its positives masked, as
        // one epoch's `build_graph` calls are.
        let per_user = model.config().pos_per_user;
        let started = Instant::now();
        let mut positives: Vec<Vec<ItemId>> = vec![Vec::new(); n_users as usize];
        for &(u, i) in model.ckg().interactions() {
            positives[u.0 as usize].push(i);
        }
        for (u, items) in positives.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let user = UserId(u as u32);
            let root = model.ckg().user_node(user);
            let excluded =
                items.iter().take(per_user).map(|&i| (root, model.ckg().item_node(i))).collect();
            let g = tr
                .span("graph.train_build_graph", NO_REQUEST, |_| model.build_graph(user, excluded));
            std::hint::black_box(g);
        }
        let build_s = started.elapsed().as_secs_f64();
        let epoch_s = median(&epoch_ms).unwrap_or(0.0) / 1e3;
        table.push(format!("graph.train_build_graph_s {build_s:.4}"));
        table.push(format!("core.train_rest_s {:.4}", epoch_s - build_s));

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
        let path = KucNetPath::new(&model, None, false);
        let prewarm: Vec<u32> = (0..n_users).collect();
        let users = &open_users[..REPLAY.min(open_users.len())];
        let probe = QueueProbe::default();
        let replay_batcher = Batcher::start(
            Arc::new(ModelRegistry::single(probe.wrap(Arc::clone(&model) as _), serve.ab_seed)),
            Arc::new(SubgraphCache::new(serve.cache_capacity)),
            &serve,
        );
        for &u in &prewarm {
            replay_batcher.submit(UserId(u), TOP_K).expect("prewarm the replay batcher");
        }
        let (layer_table, layers) = trace_kucnet(
            &path,
            &prewarm,
            users,
            tr,
            &counters,
            &probe,
            |u| replay_batcher.submit(UserId(u), TOP_K).is_ok(),
            RATE,
        );
        replay_batcher.shutdown();
        table.extend(layer_table);
        out.layers = layers;
    }
    batcher.shutdown();
    out.table = table;
    out
}
