//! The memoised run engine: one per-vertex loop for all three models.
//!
//! A local algorithm is a function of the radius-`r` neighbourhood, and
//! the paper's constructions (iterated wreath-product Cayley graphs,
//! `l`-lifts) multiply vertex counts while *collapsing* the number of
//! distinct neighbourhoods. Every run here exploits that collapse the
//! same way, in one loop (`run_memoised`): for each vertex, check the
//! budget's interrupt, look up the vertex's class, evaluate the
//! algorithm on the first vertex of each class (under the budget's cache
//! cap), and hand the memoised output to a vertex or edge assembler.
//!
//! The models differ only in where a class comes from:
//!
//! * [`ViewEngine`] (PO) precomputes the root view class of **every**
//!   vertex by incremental refinement in [`locap_lifts::ViewCache`]
//!   (radius `r` extends radius `r − 1`, identical subtrees interned,
//!   the per-state sweep fanned across scoped workers);
//! * [`OiEngine`] / [`IdEngine`] extract each vertex's canonical form as
//!   a packed `u64` key ([`locap_graph::canon`]'s `*_key_into`,
//!   `O(|ball|)` with no per-call allocation) over a flat [`CsrGraph`]
//!   and intern it in a per-engine [`KeyInterner`]: type equality is id
//!   equality, so the memo is a dense `Vec` indexed by intern id.
//!
//! Every entry takes a [`RunBudget`] (`RunBudget::unlimited()` for an
//! unbounded run) and returns a [`Budgeted`] value whose `truncation`
//! says why a run stopped early. Outputs are bit-identical to the
//! per-vertex reference paths in [`crate::oracle`] (asserted by the
//! `engine_differential` suite). [`EngineStats`] counts hits and misses,
//! and every run publishes into the global [`locap_obs`] registry
//! (`engine/{po,oi,id}/…` counters, one `engine/<model>/run_vertex|run_edge`
//! span per call).

use std::collections::BTreeSet;

use locap_obs as obs;

use locap_graph::budget::{Budgeted, RunBudget, TruncationReason};
use locap_graph::canon::{id_key_into, ordered_key_into, IdNbhd, NbhdScratch, OrderedNbhd};
use locap_graph::{CsrGraph, Edge, Graph, KeyInterner, LDigraph, NodeId};
use locap_lifts::{Letter, ViewCache, ViewTree};

use crate::error::{check_len, RunError};
use crate::{
    IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoVertexAlgorithm,
};

/// Cache-effectiveness counters of an engine-backed run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Vertices processed.
    pub vertices: usize,
    /// Distinct neighbourhood/view classes among them (last run).
    pub classes: usize,
    /// Algorithm evaluations actually performed (= misses; once per class).
    pub evals: u64,
    /// Evaluations answered by broadcast from an earlier class member.
    pub hits: u64,
}

/// An engine's run counters, its registry handles (one counter family
/// per model under `engine/<model>/…`, hoisted at construction so runs
/// pay only atomic adds) and its span and trace names.
#[derive(Debug, Clone)]
struct RunLog {
    stats: EngineStats,
    runs: obs::Counter,
    vertices: obs::Counter,
    evals: obs::Counter,
    hits: obs::Counter,
    classes: obs::Gauge,
    run_vertex: String,
    run_edge: String,
    miss: String,
    dedup: String,
}

impl RunLog {
    fn new(model: &str) -> RunLog {
        RunLog {
            stats: EngineStats::default(),
            runs: obs::counter(&format!("engine/{model}/runs")),
            vertices: obs::counter(&format!("engine/{model}/vertices")),
            evals: obs::counter(&format!("engine/{model}/evals")),
            hits: obs::counter(&format!("engine/{model}/hits")),
            classes: obs::gauge(&format!("engine/{model}/classes")),
            run_vertex: format!("engine/{model}/run_vertex"),
            run_edge: format!("engine/{model}/run_edge"),
            miss: format!("engine/{model}/miss"),
            dedup: format!("engine/{model}/dedup"),
        }
    }

    /// Records one run: every evaluation is a distinct class, so the run
    /// saw `evals` classes (a level, not a total).
    fn record(&mut self, vertices: usize, evals: u64, hits: u64) {
        let classes = evals as usize;
        self.stats.vertices += vertices;
        self.stats.evals += evals;
        self.stats.hits += hits;
        self.stats.classes = classes;
        self.runs.inc();
        self.vertices.add(vertices as u64);
        self.evals.add(evals);
        self.hits.add(hits);
        self.classes.set(classes as i64);
        // individual misses are traced inline; hits are too frequent to
        // trace per vertex and appear here in aggregate
        if obs::trace::enabled() {
            obs::trace::instant(
                &self.dedup,
                &[
                    ("vertices", vertices as i64),
                    ("classes", classes as i64),
                    ("evals", evals as i64),
                    ("hits", hits as i64),
                ],
            );
        }
    }
}

/// Where [`run_memoised`] gets a vertex's class and the neighbourhood
/// the algorithm is evaluated on.
trait Classes {
    type Nbhd;
    /// The memo index of `v`'s radius-`r` class.
    fn class_of(&mut self, v: NodeId, r: usize) -> usize;
    /// The neighbourhood of `class`, the class [`Classes::class_of`]
    /// just returned.
    fn nbhd(&mut self, class: usize, r: usize) -> Self::Nbhd;
}

/// The one memoised run loop shared by all six runs. For each vertex in
/// order: check the interrupt, get its class id, evaluate on the first
/// vertex of each class (a new class must fit the budget's cache cap),
/// and pass the output to `assemble`. Returns why the run stopped early,
/// if it did; an assembly error aborts the run without recording it.
// lint: hot
fn run_memoised<C: Classes, O>(
    n: usize,
    r: usize,
    classes: &mut C,
    budget: &RunBudget,
    log: &mut RunLog,
    mut evaluate: impl FnMut(&C::Nbhd) -> O,
    mut assemble: impl FnMut(NodeId, &O) -> Result<(), RunError>,
) -> Result<Option<TruncationReason>, RunError> {
    let mut memo: Vec<Option<O>> = Vec::new();
    let (mut processed, mut evals, mut hits) = (0usize, 0u64, 0u64);
    let mut truncation = None;
    // lint: hot-setup-end
    for v in 0..n {
        if let Some(t) = budget.check_interrupt() {
            truncation = Some(t.publish());
            break;
        }
        let id = classes.class_of(v, r);
        if id >= memo.len() {
            memo.resize_with(id + 1, || None);
        }
        if memo[id].is_none() {
            if let Some(t) = budget.check_cache(evals as usize + 1) {
                truncation = Some(t.publish());
                break;
            }
            evals += 1;
            if obs::trace::enabled() {
                obs::trace::instant(&log.miss, &[("node", v as i64), ("class", id as i64)]);
            }
            memo[id] = Some(evaluate(&classes.nbhd(id, r)));
        } else {
            hits += 1;
        }
        processed += 1;
        if let Some(out) = &memo[id] {
            assemble(v, out)?;
        }
    }
    log.record(processed, evals, hits);
    Ok(truncation)
}

/// PO classes: the root view classes precomputed by the refinement.
struct RootClasses<'a, 'g> {
    cache: &'a mut ViewCache<'g>,
    roots: Vec<u32>,
}

impl Classes for RootClasses<'_, '_> {
    type Nbhd = ViewTree;
    fn class_of(&mut self, v: NodeId, _r: usize) -> usize {
        self.roots[v] as usize
    }
    fn nbhd(&mut self, class: usize, r: usize) -> ViewTree {
        self.cache.class_view(r, class as u32)
    }
}

/// The PO-model engine: a per-graph cache of view classes with
/// evaluate-once-per-class algorithm runs. See the module docs.
pub struct ViewEngine<'g> {
    cache: ViewCache<'g>,
    log: RunLog,
}

impl<'g> ViewEngine<'g> {
    /// Creates an engine for `d`; all state is built lazily.
    pub fn new(d: &'g LDigraph) -> ViewEngine<'g> {
        ViewEngine { cache: ViewCache::new(d), log: RunLog::new("po") }
    }

    /// Counters of the algorithm runs executed so far.
    pub fn run_stats(&self) -> &EngineStats {
        &self.log.stats
    }

    /// Runs a PO vertex algorithm: one evaluation per view class,
    /// broadcast to all vertices of the class. The cache cap bounds the
    /// view-cache entries and the deadline is checked per vertex; on
    /// truncation the value is the per-vertex prefix computed so far
    /// (empty when the cache cap stops the class refinement itself).
    ///
    /// # Errors
    ///
    /// Currently infallible (PO vertex runs have no input
    /// preconditions); `Result` for uniformity with the other engines.
    pub fn run_vertex_budgeted<A: PoVertexAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        let _span = obs::span(&self.log.run_vertex);
        let mut out = Vec::with_capacity(self.cache.digraph().node_count());
        let truncation = self.run(
            algo.radius(),
            budget,
            |t| algo.evaluate(t),
            |_, &bit: &bool| {
                out.push(bit);
                Ok(())
            },
        )?;
        Ok(Budgeted { value: out, truncation })
    }

    /// Runs a PO edge algorithm: one evaluation per view class, then
    /// per-vertex letter-to-edge assembly (a positive letter selects the
    /// outgoing edge with that label, an inverse letter the incoming
    /// one). On truncation the value holds the edges selected by the
    /// vertices processed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::AbsentLetter`] when the algorithm selects a letter
    /// the node does not have.
    pub fn run_edge_budgeted<A: PoEdgeAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        let _span = obs::span(&self.log.run_edge);
        let d = self.cache.digraph();
        let mut out = BTreeSet::new();
        let assemble = |v: NodeId, letters: &Vec<(Letter, bool)>| {
            for &(letter, _) in letters.iter().filter(|(_, selected)| *selected) {
                let target = if letter.inverse {
                    d.in_neighbor(v, letter.label)
                } else {
                    d.out_neighbor(v, letter.label)
                };
                let Some(u) = target else {
                    return Err(
                        RunError::AbsentLetter { node: v, letter: letter.to_string() }.publish()
                    );
                };
                out.insert(Edge::new(v, u));
            }
            Ok(())
        };
        let truncation = self.run(algo.radius(), budget, |t| algo.evaluate(t), assemble)?;
        Ok(Budgeted { value: out, truncation })
    }

    /// Refines the classes up to radius `r` under the cache cap, then runs
    /// the memoised loop over them.
    fn run<O>(
        &mut self,
        r: usize,
        budget: &RunBudget,
        evaluate: impl FnMut(&ViewTree) -> O,
        assemble: impl FnMut(NodeId, &O) -> Result<(), RunError>,
    ) -> Result<Option<TruncationReason>, RunError> {
        let roots = match self.cache.try_root_classes(r, budget.cache_cap()) {
            Ok((roots, _)) => roots,
            Err(t) => return Ok(Some(t.publish())),
        };
        let mut classes = RootClasses { cache: &mut self.cache, roots };
        let n = classes.roots.len();
        run_memoised(n, r, &mut classes, budget, &mut self.log, evaluate, assemble)
    }
}

mod model {
    use super::{
        id_key_into, ordered_key_into, CsrGraph, IdNbhd, NbhdScratch, NodeId, OrderedNbhd,
    };
    #[cfg(doc)]
    use crate::error::RunError;

    /// What separates the OI engine from the ID engine: the per-node
    /// label, the key extractor and decoder, and the names it reports.
    /// Sealed: implemented by [`Oi`] and [`Id`] only.
    pub trait KeyModel {
        /// Per-node label: a rank (OI) or an identifier (ID).
        type Label: Copy;
        /// The neighbourhood the model's algorithms read.
        type Nbhd;
        /// Registry name of the model (`engine/<NAME>/…`).
        const NAME: &'static str;
        /// Name of the label slice in [`RunError::InputLengthMismatch`].
        const LABELS: &'static str;
        /// The label as an adjacency sort key.
        fn sort_key(label: Self::Label) -> u64;
        /// Writes the packed canonical key of `v`'s radius-`r` ball.
        fn key_into(
            csr: &CsrGraph,
            labels: &[Self::Label],
            v: NodeId,
            r: usize,
            scratch: &mut NbhdScratch,
            key: &mut Vec<u64>,
        );
        /// Decodes a key written by [`KeyModel::key_into`].
        fn from_key(key: &[u64]) -> Self::Nbhd;
    }

    /// The OI model: ranks, order-isomorphism types.
    pub struct Oi;

    impl KeyModel for Oi {
        type Label = usize;
        type Nbhd = OrderedNbhd;
        const NAME: &'static str = "oi";
        const LABELS: &'static str = "rank";
        fn sort_key(label: usize) -> u64 {
            label as u64
        }
        fn key_into(
            csr: &CsrGraph,
            labels: &[usize],
            v: NodeId,
            r: usize,
            scratch: &mut NbhdScratch,
            key: &mut Vec<u64>,
        ) {
            ordered_key_into(csr, labels, v, r, scratch, key);
        }
        fn from_key(key: &[u64]) -> OrderedNbhd {
            OrderedNbhd::from_key(key)
        }
    }

    /// The ID model: unique identifiers.
    pub struct Id;

    impl KeyModel for Id {
        type Label = u64;
        type Nbhd = IdNbhd;
        const NAME: &'static str = "id";
        const LABELS: &'static str = "ids";
        fn sort_key(label: u64) -> u64 {
            label
        }
        fn key_into(
            csr: &CsrGraph,
            labels: &[u64],
            v: NodeId,
            r: usize,
            scratch: &mut NbhdScratch,
            key: &mut Vec<u64>,
        ) {
            id_key_into(csr, labels, v, r, scratch, key);
        }
        fn from_key(key: &[u64]) -> IdNbhd {
            IdNbhd::from_key(key)
        }
    }
}

use model::{Id, KeyModel, Oi};

/// OI/ID classes: packed canonical keys interned to dense ids. The
/// interner persists across runs (same type, same id); the memo does not.
struct KeyClasses<'g, M: KeyModel> {
    labels: &'g [M::Label],
    /// Flat adjacency mirror of the graph for the extraction hot loop.
    csr: CsrGraph,
    interner: KeyInterner,
    scratch: NbhdScratch,
    key: Vec<u64>,
}

impl<M: KeyModel> Classes for KeyClasses<'_, M> {
    type Nbhd = M::Nbhd;
    fn class_of(&mut self, v: NodeId, r: usize) -> usize {
        M::key_into(&self.csr, self.labels, v, r, &mut self.scratch, &mut self.key);
        self.interner.intern(&self.key) as usize
    }
    fn nbhd(&mut self, _class: usize, _r: usize) -> M::Nbhd {
        M::from_key(&self.key)
    }
}

/// The OI/ID engine: `O(|ball|)` packed-key extraction over a flat
/// [`CsrGraph`], with keys interned so each distinct type is evaluated
/// once and memo lookups are dense-id indexing. Used through its two
/// instances, [`OiEngine`] and [`IdEngine`].
pub struct KeyEngine<'g, M: KeyModel> {
    g: &'g Graph,
    keys: KeyClasses<'g, M>,
    /// Label-sorted adjacency (`sorted_offsets[v]..[v + 1]` spans `v`'s
    /// neighbours in label order, the index order of edge outputs);
    /// empty until the labels cover the graph — runs check that first.
    sorted_offsets: Vec<u32>,
    sorted_nbrs: Vec<u32>,
    log: RunLog,
}

/// The OI-model engine over `(g, rank)`. Each distinct ordered type is
/// evaluated once and broadcast.
pub type OiEngine<'g> = KeyEngine<'g, Oi>;

/// The ID-model engine over `(g, ids)`. Identifiers being globally
/// unique, the dedup ratio is usually 1 on connected graphs with
/// `r ≥ 1`: the win is the extraction fast path, and radius-0 or
/// disconnected corner cases still dedup.
pub type IdEngine<'g> = KeyEngine<'g, Id>;

impl<'g, M: KeyModel> KeyEngine<'g, M> {
    /// Creates an engine for `g` with per-node `labels`.
    pub fn new(g: &'g Graph, labels: &'g [M::Label]) -> KeyEngine<'g, M> {
        let mut sorted_offsets = Vec::new();
        let mut sorted_nbrs = Vec::new();
        // invalid input keeps the engine constructible; runs report
        // InputLengthMismatch
        if labels.len() == g.node_count() {
            sorted_offsets.reserve(g.node_count() + 1);
            sorted_nbrs.reserve(2 * g.edge_count());
            sorted_offsets.push(0);
            let mut buf: Vec<NodeId> = Vec::new();
            for v in g.nodes() {
                buf.clear();
                buf.extend_from_slice(g.neighbors(v));
                // stable, so ties keep the adjacency order
                buf.sort_by_key(|&u| M::sort_key(labels[u]));
                sorted_nbrs.extend(buf.iter().map(|&u| u as u32));
                sorted_offsets.push(sorted_nbrs.len() as u32);
            }
        }
        KeyEngine {
            g,
            keys: KeyClasses {
                labels,
                csr: g.to_csr(),
                interner: KeyInterner::new(),
                scratch: NbhdScratch::new(),
                key: Vec::new(),
            },
            sorted_offsets,
            sorted_nbrs,
            log: RunLog::new(M::NAME),
        }
    }

    /// Counters of the runs executed so far.
    pub fn run_stats(&self) -> &EngineStats {
        &self.log.stats
    }

    fn run_vertex(
        &mut self,
        r: usize,
        budget: &RunBudget,
        evaluate: impl FnMut(&M::Nbhd) -> bool,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        check_len(M::LABELS, self.g.node_count(), self.keys.labels.len())?;
        let _span = obs::span(&self.log.run_vertex);
        let n = self.g.node_count();
        let mut out = Vec::with_capacity(n);
        let assemble = |_, &bit: &bool| {
            out.push(bit);
            Ok(())
        };
        let truncation =
            run_memoised(n, r, &mut self.keys, budget, &mut self.log, evaluate, assemble)?;
        self.keys.interner.publish_obs();
        Ok(Budgeted { value: out, truncation })
    }

    /// Edge outputs are indexed by the node's neighbours in increasing
    /// label order; an edge is selected when either endpoint selects it.
    fn run_edge(
        &mut self,
        r: usize,
        budget: &RunBudget,
        evaluate: impl FnMut(&M::Nbhd) -> Vec<bool>,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        check_len(M::LABELS, self.g.node_count(), self.keys.labels.len())?;
        let _span = obs::span(&self.log.run_edge);
        let (g, offsets, nbrs) = (self.g, &self.sorted_offsets, &self.sorted_nbrs);
        let mut out = BTreeSet::new();
        let assemble = |v: NodeId, bits: &Vec<bool>| {
            if bits.len() != g.degree(v) {
                return Err(RunError::OutputLengthMismatch {
                    node: v,
                    expected: g.degree(v),
                    actual: bits.len(),
                }
                .publish());
            }
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for (&u, _) in nbrs[lo..hi].iter().zip(bits).filter(|(_, &b)| b) {
                out.insert(Edge::new(v, u as NodeId));
            }
            Ok(())
        };
        let n = g.node_count();
        let truncation =
            run_memoised(n, r, &mut self.keys, budget, &mut self.log, evaluate, assemble)?;
        self.keys.interner.publish_obs();
        Ok(Budgeted { value: out, truncation })
    }
}

impl OiEngine<'_> {
    /// Runs an OI vertex algorithm, evaluating once per distinct ordered
    /// type. The cache cap bounds the distinct types of this run and the
    /// deadline is checked per vertex; on truncation the value is the
    /// per-vertex prefix computed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] when `rank` does not cover
    /// every node.
    pub fn run_vertex_budgeted<A: OiVertexAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        self.run_vertex(algo.radius(), budget, |t| algo.evaluate(t))
    }

    /// Runs an OI edge algorithm, evaluating once per distinct ordered
    /// type; output bits are indexed by neighbours in increasing rank
    /// order. On truncation the value holds the edges selected by the
    /// vertices processed so far.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] for a short `rank`,
    /// [`RunError::OutputLengthMismatch`] when the algorithm's output
    /// does not match a node's degree.
    pub fn run_edge_budgeted<A: OiEdgeAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        self.run_edge(algo.radius(), budget, |t| algo.evaluate(t))
    }
}

impl IdEngine<'_> {
    /// Runs an ID vertex algorithm, evaluating once per distinct
    /// neighbourhood; budget semantics as for [`OiEngine`].
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] when `ids` does not cover
    /// every node.
    pub fn run_vertex_budgeted<A: IdVertexAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<Vec<bool>>, RunError> {
        self.run_vertex(algo.radius(), budget, |t| algo.evaluate(t))
    }

    /// Runs an ID edge algorithm; output bits are indexed by neighbours
    /// in increasing identifier order.
    ///
    /// # Errors
    ///
    /// [`RunError::InputLengthMismatch`] for short `ids`,
    /// [`RunError::OutputLengthMismatch`] when the algorithm's output
    /// does not match a node's degree.
    pub fn run_edge_budgeted<A: IdEdgeAlgorithm>(
        &mut self,
        algo: &A,
        budget: &RunBudget,
    ) -> Result<Budgeted<BTreeSet<Edge>>, RunError> {
        self.run_edge(algo.radius(), budget, |t| algo.evaluate(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_graph::gen;

    struct LocalMin;
    impl OiVertexAlgorithm for LocalMin {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &OrderedNbhd) -> bool {
            t.root == 0
        }
    }

    struct OutZero;
    impl PoEdgeAlgorithm for OutZero {
        fn radius(&self) -> usize {
            1
        }
        fn evaluate(&self, t: &ViewTree) -> Vec<(Letter, bool)> {
            t.root.children.iter().map(|&(l, _)| (l, l == Letter::pos(0))).collect()
        }
    }

    fn free() -> RunBudget {
        RunBudget::unlimited()
    }

    #[test]
    fn po_engine_broadcasts_on_symmetric_graph() {
        struct JoinAll;
        impl PoVertexAlgorithm for JoinAll {
            fn radius(&self) -> usize {
                2
            }
            fn evaluate(&self, _: &ViewTree) -> bool {
                true
            }
        }
        let d = gen::directed_cycle(50);
        let mut engine = ViewEngine::new(&d);
        let bits = engine.run_vertex_budgeted(&JoinAll, &free()).unwrap();
        assert!(bits.is_complete());
        assert!(bits.value.iter().all(|&b| b));
        let stats = engine.run_stats();
        assert_eq!(stats.vertices, 50);
        assert_eq!(stats.classes, 1, "directed cycle has one view class");
        assert_eq!(stats.evals, 1, "single evaluation broadcast to all 50");
        assert_eq!(stats.hits, 49);
    }

    #[test]
    fn po_edge_engine_matches_naive() {
        let d = gen::directed_cycle(5);
        let mut engine = ViewEngine::new(&d);
        let set = engine.run_edge_budgeted(&OutZero, &free()).unwrap().value;
        assert_eq!(set, crate::oracle::po_edge(&d, &OutZero).unwrap());
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn oi_engine_dedups_interior_types() {
        let g = gen::cycle(100);
        let rank: Vec<usize> = (0..100).collect();
        let mut engine = OiEngine::new(&g, &rank);
        let bits = engine.run_vertex_budgeted(&LocalMin, &free()).unwrap().value;
        assert_eq!(bits, crate::oracle::oi_vertex(&g, &rank, &LocalMin).unwrap());
        let stats = engine.run_stats();
        assert_eq!(stats.classes, 3, "interior + two seam types");
        assert_eq!(stats.evals, 3);
        assert_eq!(stats.hits, 97);
    }

    #[test]
    fn id_engine_matches_naive() {
        struct LocalMaxId;
        impl IdVertexAlgorithm for LocalMaxId {
            fn radius(&self) -> usize {
                1
            }
            fn evaluate(&self, t: &IdNbhd) -> bool {
                t.root as usize == t.ids.len() - 1
            }
        }
        let g = gen::cycle(6);
        let ids = vec![10, 60, 20, 50, 30, 40];
        let mut engine = IdEngine::new(&g, &ids);
        assert_eq!(
            engine.run_vertex_budgeted(&LocalMaxId, &free()).unwrap().value,
            crate::oracle::id_vertex(&g, &ids, &LocalMaxId).unwrap()
        );
        // every ball carries distinct ids: no dedup expected
        assert_eq!(engine.run_stats().classes, 6);
    }
}
