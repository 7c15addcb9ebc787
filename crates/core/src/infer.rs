//! Tape-free inference: the KUCNet forward pass with frozen parameters.
//!
//! Training records every op on a [`Tape`](kucnet_tensor::Tape) so gradients
//! can flow backward; scoring a user online needs none of that. One layer
//! driver, [`node_logits`], runs the propagation directly over [`Matrix`]
//! values in either precision ([`Weights`]). In f32 it re-runs the exact
//! arithmetic of [`crate::model::forward`] + [`crate::model::score_logits`]
//! — same kernels, same op order, so the scores are bit-identical to the
//! taped forward in eval mode — without allocating a single tape node; in
//! i8 only the message aggregation changes (see [`crate::quant`]).
//!
//! It also defines [`ScoreService`], the trait the online serving layer
//! (`kucnet-serve`) and the offline benchmarks both consume: "give me the
//! pruned subgraph of a user" and "score all items over a subgraph" are
//! deliberately separate operations so a serving cache can memoize the
//! expensive pruning step and skip straight to scoring on repeat requests.

use std::sync::Arc;

use parking_lot::RwLock;

use kucnet_graph::{LayeredGraph, NodeId, UserId};
use kucnet_tensor::{
    add_elementwise_into, attn_edge_scores_into, gather_rows_into, scale_rows_in_place,
    scale_scatter_add_rows_into, Matrix, MatrixPool, ParamStore, PoolGuard, PoolStash,
};

use crate::config::{Activation, AggregationNorm, KucNetConfig};
use crate::model::KucNetParams;
use crate::quant::{aggregate_i8, QuantizedParams, UserState};

/// The frozen weights one tape-free forward runs on: the f32 master
/// parameters, or their inference-only i8 companion (DESIGN.md §16). The
/// precision is a value, so both run through the same layer driver.
#[derive(Clone, Copy)]
pub enum Weights<'a> {
    /// The f32 master weights: bitwise identical to the taped forward.
    F32(&'a ParamStore, &'a KucNetParams),
    /// The quantized companion: node-level two-digit i8 matmuls.
    I8(&'a QuantizedParams),
}

impl Weights<'_> {
    /// Number of propagation layers the weights cover.
    fn depth(&self) -> usize {
        match self {
            Weights::F32(_, params) => params.layers.len(),
            Weights::I8(qp) => qp.layers().len(),
        }
    }

    /// The readout vector `w` of Eq. 7 (exact f32 in both precisions).
    fn final_w(&self) -> &Matrix {
        match self {
            Weights::F32(store, params) => store.value(params.final_w),
            Weights::I8(qp) => qp.final_w(),
        }
    }
}

/// Runs the KUCNet propagation (Eqs. 5–7) over `graph` with the frozen
/// `weights`, returning the score logit of every node in the final layer.
/// No tape, no gradient bookkeeping, and dropout is never applied (this is
/// an eval-mode path, matching `forward(..., dropout_rng: None)`).
///
/// Every intermediate is drawn from `pool`, so on a warm pool a whole
/// propagation allocates nothing fresh. With `resume = Some(h¹)` (see
/// [`first_layer`]) the pass starts at layer 2. Both paths run the same
/// per-layer code, so a resumed pass is **bitwise identical** to the full
/// pass in either precision. In f32 the logits are bitwise identical to the
/// taped forward in eval mode: same kernels, same op order.
pub fn node_logits(
    pool: &mut MatrixPool,
    weights: Weights<'_>,
    config: &KucNetConfig,
    graph: &LayeredGraph,
    resume: Option<&Matrix>,
) -> Vec<f32> {
    assert_eq!(weights.depth(), graph.depth(), "depth mismatch");
    let mut scratch = (Vec::new(), Vec::new());
    let (mut h, start) = match resume {
        Some(h1) => {
            assert!(!graph.layers.is_empty(), "cannot resume a depth-0 graph");
            assert_eq!(
                h1.rows(),
                graph.node_lists[1].len(),
                "stale user state: layer-1 row mismatch"
            );
            (pool.matrix_copy(h1), 1)
        }
        // h^0_{u:u} = 0 for the single root node.
        None => (pool.matrix_zeroed(1, config.dim), 0),
    };
    for l in start..graph.layers.len() {
        h = propagate_layer(pool, weights, config, graph, l, &mut scratch, h);
    }
    // ŷ = w^T h (Eq. 7): one logit per final-layer node.
    let mut out = pool.matrix_raw(h.rows(), 1);
    h.matmul_into(weights.final_w(), &mut out);
    let logits = out.data().to_vec();
    pool.release_matrix(h);
    pool.release_matrix(out);
    logits
}

/// The user's layer-1 propagation `h¹`: the per-user half of the forward
/// pass, which depends only on the subgraph and the frozen weights, not on
/// which items are being ranked. Materialized once at cache-fill time as a
/// [`UserState`]; [`node_logits`] with `resume = Some(h¹)` then skips
/// layer 1 entirely.
pub fn first_layer(
    pool: &mut MatrixPool,
    weights: Weights<'_>,
    config: &KucNetConfig,
    graph: &LayeredGraph,
) -> Matrix {
    assert_eq!(weights.depth(), graph.depth(), "depth mismatch");
    assert!(!graph.layers.is_empty(), "cannot precompute layer 1 of a depth-0 graph");
    let h0 = pool.matrix_zeroed(1, config.dim);
    propagate_layer(pool, weights, config, graph, 0, &mut (Vec::new(), Vec::new()), h0)
}

/// One propagation layer of the tape-free forward, in either precision.
/// Only the message aggregation differs per precision; the empty-layer
/// short-circuit, the `MeanIn` normalization and the activation are shared.
/// Consumes (and releases) `h`, returning the next layer's activations.
fn propagate_layer(
    pool: &mut MatrixPool,
    weights: Weights<'_>,
    config: &KucNetConfig,
    graph: &LayeredGraph,
    l: usize,
    scratch: &mut (Vec<i8>, Vec<i8>),
    h: Matrix,
) -> Matrix {
    let layer = &graph.layers[l];
    let out_rows = graph.node_lists[l + 1].len();
    if layer.n_edges() == 0 {
        pool.release_matrix(h);
        return pool.matrix_zeroed(out_rows, config.dim);
    }
    let mut agg = match weights {
        Weights::F32(store, params) => aggregate_f32(pool, store, params, config, graph, l, &h),
        Weights::I8(qp) => aggregate_i8(pool, qp, config, graph, l, scratch, &h),
    };
    pool.release_matrix(h);
    if config.agg_norm == AggregationNorm::MeanIn {
        let mut indeg = pool.acquire_zeroed(out_rows);
        for &dst in &layer.dst_pos {
            indeg[dst as usize] += 1.0;
        }
        let mut inv = pool.acquire(out_rows);
        for (slot, &c) in inv.iter_mut().zip(indeg.iter()) {
            *slot = if c > 0.0 { 1.0 / c } else { 0.0 };
        }
        scale_rows_in_place(&mut agg, &inv);
        pool.release(indeg);
        pool.release(inv);
    }
    match config.activation {
        Activation::Identity => {}
        Activation::Tanh => {
            for x in agg.data_mut() {
                *x = x.tanh();
            }
        }
        Activation::Relu => {
            for x in agg.data_mut() {
                *x = x.max(0.0);
            }
        }
    }
    agg
}

/// The f32 message aggregation of layer `l`: per-edge `W^l (h_s + h_r)`,
/// scaled by the attention α (Eq. 6) and scattered onto the next layer.
fn aggregate_f32(
    pool: &mut MatrixPool,
    store: &ParamStore,
    params: &KucNetParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
    l: usize,
    h: &Matrix,
) -> Matrix {
    let d = config.dim;
    let layer = &graph.layers[l];
    let p = &params.layers[l];
    let e = layer.n_edges();
    let mut hs = pool.matrix_raw(e, d);
    gather_rows_into(h, &layer.src_pos, &mut hs);
    let mut hr = pool.matrix_raw(e, d);
    gather_rows_into(store.value(p.rel), &layer.rel, &mut hr);
    // message = W^l (h_s + h_r)
    let mut summed = pool.matrix_raw(e, d);
    add_elementwise_into(&hs, &hr, &mut summed);
    let mut msg = pool.matrix_raw(e, d);
    summed.matmul_into(store.value(p.w), &mut msg);
    if config.agg_norm == AggregationNorm::RandomWalk {
        let mut outdeg = pool.acquire_zeroed(graph.node_lists[l].len());
        for &sp in &layer.src_pos {
            outdeg[sp as usize] += 1.0;
        }
        let mut inv = pool.acquire(e);
        for (slot, &sp) in inv.iter_mut().zip(&layer.src_pos) {
            *slot = 1.0 / outdeg[sp as usize].max(1.0);
        }
        scale_rows_in_place(&mut msg, &inv);
        pool.release(outdeg);
        pool.release(inv);
    }
    let alpha = if config.attention {
        // α = σ(w_α^T ReLU(W_αs h_s + W_αr h_r + b_α))   (Eq. 6), fused
        // into one pass over the edge rows.
        let da = config.attn_dim;
        let mut a_s = pool.matrix_raw(e, da);
        hs.matmul_into(store.value(p.w_as), &mut a_s);
        let mut a_r = pool.matrix_raw(e, da);
        hr.matmul_into(store.value(p.w_ar), &mut a_r);
        let mut alpha = pool.matrix_raw(e, 1);
        attn_edge_scores_into(
            &a_s,
            &a_r,
            store.value(params.b_alpha),
            store.value(p.w_a),
            &mut alpha,
        );
        pool.release_matrix(a_s);
        pool.release_matrix(a_r);
        Some(alpha)
    } else {
        None
    };
    // Fused α-scale + scatter into a pooled accumulator.
    let mut agg = pool.matrix_zeroed(graph.node_lists[l + 1].len(), d);
    scale_scatter_add_rows_into(&msg, alpha.as_ref(), &layer.dst_pos, &mut agg);
    if let Some(alpha) = alpha {
        pool.release_matrix(alpha);
    }
    pool.release_matrix(hs);
    pool.release_matrix(hr);
    pool.release_matrix(summed);
    pool.release_matrix(msg);
    agg
}

/// Maps final-layer node logits to a dense per-item score vector of length
/// `n_items`, using the host's node→item mapping (items absent from the
/// final layer score 0, per Algorithm 1).
pub(crate) fn item_scores(
    graph: &LayeredGraph,
    logits: &[f32],
    n_items: usize,
    item_of: impl Fn(NodeId) -> Option<usize>,
) -> Vec<f32> {
    let mut scores = vec![0.0f32; n_items];
    if let Some(last) = graph.node_lists.last() {
        for (pos, &node) in last.iter().enumerate() {
            if let Some(item) = item_of(node) {
                scores[item] = logits[pos];
            }
        }
    }
    scores
}

/// A set of frozen KUCNet weights ready to score: the f32 master
/// parameters, a stash of warm inference pools, and the publish-once i8
/// companion built lazily from them. [`crate::KucNet`] and
/// [`crate::ShardService`] each own one and delegate every scoring call of
/// [`ScoreService`] to it.
pub(crate) struct FrozenScorer {
    /// The f32 master weights (authoritative; training updates them).
    store: ParamStore,
    /// Parameter handles into `store`.
    params: KucNetParams,
    /// Warm pools for scoring calls that bring no pool of their own.
    pools: PoolStash,
    /// The inference-only i8 companion (DESIGN.md §16), built on first use
    /// from `store` and dropped by [`FrozenScorer::store_mut`], so it never
    /// outlives the weights it was quantized from.
    quant: RwLock<Option<Arc<QuantizedParams>>>,
}

impl FrozenScorer {
    /// Wraps freshly initialized or loaded master weights.
    pub(crate) fn new(store: ParamStore, params: KucNetParams) -> Self {
        Self { store, params, pools: PoolStash::new(), quant: RwLock::new(None) }
    }

    /// The f32 master weights.
    pub(crate) fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Parameter handles into [`FrozenScorer::store`].
    pub(crate) fn params(&self) -> &KucNetParams {
        &self.params
    }

    /// Mutable access to the master weights (training, checkpoint loads).
    /// Drops the i8 companion first: the next quantized call rebuilds it
    /// from whatever the caller leaves in the store.
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        *self.quant.write() = None;
        &mut self.store
    }

    /// Checks a warm pool out of the stash (returned on drop).
    pub(crate) fn pool(&self) -> PoolGuard<'_> {
        self.pools.checkout()
    }

    /// Final-layer node logits of `graph`. With a `state`, the pass resumes
    /// at layer 2 in the state's precision; otherwise it runs in full, in
    /// i8 when `quantized`.
    pub(crate) fn logits(
        &self,
        pool: &mut MatrixPool,
        config: &KucNetConfig,
        graph: &LayeredGraph,
        quantized: bool,
        state: Option<&UserState>,
    ) -> Vec<f32> {
        let quantized = state.map_or(quantized, UserState::quantized);
        let qp = quantized.then(|| self.quantized_params());
        node_logits(pool, self.weights(qp.as_deref()), config, graph, state.map(UserState::h1))
    }

    /// The user's precomputed layer-1 propagation in the given precision,
    /// or `None` when `graph` has no layer-1 nodes (nothing is worth
    /// precomputing; the full pass scores it the same).
    pub(crate) fn user_state(
        &self,
        pool: &mut MatrixPool,
        config: &KucNetConfig,
        graph: &LayeredGraph,
        quantized: bool,
    ) -> Option<Arc<UserState>> {
        if graph.node_lists.get(1).is_none_or(Vec::is_empty) {
            return None;
        }
        let qp = quantized.then(|| self.quantized_params());
        let h1 = first_layer(pool, self.weights(qp.as_deref()), config, graph);
        Some(Arc::new(UserState::new(quantized, h1)))
    }

    /// The f32 weights, or the given i8 companion.
    fn weights<'a>(&'a self, qp: Option<&'a QuantizedParams>) -> Weights<'a> {
        match qp {
            Some(qp) => Weights::I8(qp),
            None => Weights::F32(&self.store, &self.params),
        }
    }

    /// The current quantized companion, built on first use from the f32
    /// master weights and shared until they change. See DESIGN.md §16.
    pub(crate) fn quantized_params(&self) -> Arc<QuantizedParams> {
        if let Some(qp) = self.quant.read().as_ref() {
            return Arc::clone(qp);
        }
        let built = Arc::new(QuantizedParams::build(&self.store, &self.params));
        let mut slot = self.quant.write();
        // A racing builder may have beaten us; keep whichever landed first
        // so every concurrent scorer shares one companion.
        if let Some(qp) = slot.as_ref() {
            return Arc::clone(qp);
        }
        *slot = Some(Arc::clone(&built));
        built
    }
}

/// A trained model usable as an online candidate scorer.
///
/// The two halves of scoring are exposed separately because they have very
/// different costs and cacheability: [`build_user_graph`] runs PPR-guided
/// pruning and layering (expensive, deterministic per user — memoizable),
/// while [`score_graph`] is one propagation over an already-built subgraph
/// (cheap, depends on the current parameters). `kucnet-serve` caches the
/// former per user and calls the latter per request.
///
/// [`build_user_graph`]: ScoreService::build_user_graph
/// [`score_graph`]: ScoreService::score_graph
pub trait ScoreService: Send + Sync {
    /// Display name of the underlying model.
    fn name(&self) -> String;

    /// Number of users the model can score.
    fn n_users(&self) -> usize;

    /// Number of items each score vector covers.
    fn n_items(&self) -> usize;

    /// Builds the pruned inference-time computation graph of `user` from
    /// scratch (no internal caching — callers own memoization policy).
    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph>;

    /// Scores every item for the user `graph` was built for
    /// (indexed by `ItemId.0`; items absent from the final layer score 0).
    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32>;

    /// [`score_graph`](ScoreService::score_graph) drawing intermediates from
    /// a caller-held pool. The default ignores the pool; implementations
    /// with pooled inference paths override it so batch scorers that keep
    /// one warm pool per worker avoid all per-request allocation. Must
    /// return exactly what `score_graph` would.
    fn score_graph_pooled(&self, _pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<f32> {
        self.score_graph(graph)
    }

    /// True when the service carries an inference-only i8 companion of its
    /// weights (DESIGN.md §16) and can serve the quantized scoring path.
    /// The default is unsupported; `kucnet::KucNet` overrides it.
    fn supports_quantized(&self) -> bool {
        false
    }

    /// Builds (or refreshes) the quantized weight companion from the
    /// current f32 master weights. The registry calls this at model load /
    /// hot-swap time so toggling a variant to the quantized path is
    /// instant. Returns whether a companion is now available; the default
    /// does nothing and reports `false`.
    fn prepare_quantized(&self) -> bool {
        false
    }

    /// Scores a subgraph via the quantized (i8) inference path. Services
    /// without one fall back to the exact f32 path, so callers may invoke
    /// this unconditionally once a variant is flagged quantized.
    fn score_graph_quant_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<f32> {
        self.score_graph_pooled(pool, graph)
    }

    /// Materializes the user's layer-1 propagation (the per-user half of
    /// the forward pass) for reuse by
    /// [`score_graph_from_state`](ScoreService::score_graph_from_state).
    /// Called at cache-fill time, in the precision selected for the
    /// variant; the serving cache stores the result under the same
    /// `CacheVersion{model, graph}` stamp as the subgraph, so model swaps
    /// and dynamic-graph ticks invalidate both together. `None` (the
    /// default) means the service does not precompute state and every
    /// request runs the full forward; services that do precompute still
    /// return `None` for a graph with no layer-1 nodes, whose full pass is
    /// trivially all zeros.
    fn build_user_state(
        &self,
        _pool: &mut MatrixPool,
        _graph: &LayeredGraph,
        _quantized: bool,
    ) -> Option<Arc<UserState>> {
        None
    }

    /// Warm-path scoring resuming from a precomputed [`UserState`]: runs
    /// layers `2..L` only. For an f32 state this must return bitwise what
    /// the full f32 pass would; for a quantized state, what the full
    /// quantized pass would. The default ignores the state and runs the
    /// full f32 path.
    fn score_graph_from_state(
        &self,
        pool: &mut MatrixPool,
        graph: &LayeredGraph,
        _state: &UserState,
    ) -> Vec<f32> {
        self.score_graph_pooled(pool, graph)
    }

    /// Convenience: build the graph and score it in one call.
    fn score_user(&self, user: UserId) -> Vec<f32> {
        self.score_graph(&self.build_user_graph(user))
    }

    /// Renders the attention-path explanation (paper Figure 7) of scoring
    /// `item` for `user` against the service's *current* graph state,
    /// keeping edges with attention at least `threshold`.
    ///
    /// Returns `None` when the service cannot produce explanations (mocks,
    /// fault wrappers without an inner model) or when `user`/`item` are out
    /// of range; the serving layer maps that to a 400. The default is
    /// unsupported — `kucnet::KucNet` and `kucnet_dynamic::DynamicService`
    /// override it.
    fn explain_item(&self, _user: UserId, _item: u32, _threshold: f32) -> Option<ExplainOutput> {
        None
    }

    /// Pins the current graph state for a batch of builds.
    ///
    /// Static services return a [`StaticGraphContext`] (version 0 for every
    /// user, builds delegate to
    /// [`build_user_graph`](ScoreService::build_user_graph)). Services over a
    /// mutating graph override this to snapshot the live epoch once per
    /// batch, so every build in the batch sees one consistent graph even if
    /// a `refresh_tick` lands mid-batch.
    fn graph_context(&self) -> Box<dyn GraphContext + '_> {
        Box::new(StaticGraphContext(self))
    }
}

/// A rendered explanation as returned by [`ScoreService::explain_item`]:
/// the Figure 7 DOT digraph plus the human-readable text rendering.
///
/// Both strings are produced by `kucnet::Explanation::{to_dot, to_text}`,
/// so a live endpoint serving `dot` verbatim is byte-identical to the
/// offline `fig7_explain` extraction for the same `(user, item, threshold)`
/// on the same graph state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainOutput {
    /// Graphviz DOT digraph of the kept attention paths.
    pub dot: String,
    /// Indented per-edge text rendering of the same paths.
    pub text: String,
    /// Number of supporting edges kept at the threshold.
    pub n_edges: usize,
}

/// A pinned, immutable view of the graph state used to build user subgraphs
/// for one batch. See [`ScoreService::graph_context`].
pub trait GraphContext: Send + Sync {
    /// Monotonic version of `user`'s subgraph under this context. A cached
    /// subgraph built at an older version is stale and must be rebuilt.
    fn user_version(&self, user: UserId) -> u64;

    /// Builds `user`'s pruned computation graph against the pinned state.
    fn build(&self, user: UserId) -> Arc<LayeredGraph>;
}

/// The trivial [`GraphContext`] of an immutable service: every user is
/// forever at version 0 and builds go straight to the service.
pub struct StaticGraphContext<'a, S: ?Sized + ScoreService>(pub &'a S);

impl<S: ?Sized + ScoreService> GraphContext for StaticGraphContext<'_, S> {
    fn user_version(&self, _user: UserId) -> u64 {
        0
    }

    fn build(&self, user: UserId) -> Arc<LayeredGraph> {
        self.0.build_user_graph(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{forward, model_rng, score_logits};
    use crate::KucNet;
    use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::Recommender;
    use kucnet_graph::{build_layered_graph, KeepAll, LayeringOptions};
    use kucnet_tensor::Tape;

    fn logits_via_tape(
        store: &ParamStore,
        params: &KucNetParams,
        config: &KucNetConfig,
        graph: &LayeredGraph,
    ) -> Vec<f32> {
        let tape = Tape::new();
        let bound = params.bind_frozen(store, &tape);
        let out = forward(&tape, &bound, config, graph, None);
        let scores = score_logits(&tape, &bound, out.final_h);
        tape.value(scores).data().to_vec()
    }

    fn parity_case(config: KucNetConfig) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 13);
        let ckg = data.build_ckg(&data.interactions);
        let mut store = ParamStore::new();
        let mut rng = model_rng(&config);
        let params = KucNetParams::init(
            &mut store,
            &config,
            ckg.csr().n_relations_total() as usize,
            &mut rng,
        );
        for u in 0..3u32 {
            let root = ckg.user_node(UserId(u));
            let graph = build_layered_graph(
                ckg.csr(),
                root,
                &LayeringOptions::new(config.depth),
                &mut KeepAll,
            );
            let taped = logits_via_tape(&store, &params, &config, &graph);
            let free = node_logits(
                &mut MatrixPool::new(),
                Weights::F32(&store, &params),
                &config,
                &graph,
                None,
            );
            assert_eq!(taped, free, "tape-free forward diverged (user {u}, {config:?})");
        }
    }

    #[test]
    fn tape_free_forward_is_bit_identical_to_taped() {
        parity_case(KucNetConfig::default());
        parity_case(KucNetConfig::default().without_attention());
        parity_case(KucNetConfig {
            activation: Activation::Relu,
            agg_norm: AggregationNorm::MeanIn,
            ..KucNetConfig::default()
        });
        parity_case(KucNetConfig {
            activation: Activation::Identity,
            agg_norm: AggregationNorm::RandomWalk,
            ..KucNetConfig::default()
        });
    }

    #[test]
    fn score_service_matches_recommender_scores() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 21);
        let split = traditional_split(&data, 0.25, 3);
        let model = KucNet::new(KucNetConfig::default(), data.build_ckg(&split.train));
        let service: &dyn ScoreService = &model;
        for u in 0..4u32 {
            let via_trait = service.score_user(UserId(u));
            let via_recommender = model.score_items(UserId(u));
            assert_eq!(via_trait, via_recommender, "user {u}");
        }
        assert_eq!(service.n_items(), model.ckg().n_items());
        assert_eq!(service.n_users(), model.ckg().n_users());
    }
}
