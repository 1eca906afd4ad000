//! Reference runs: the per-vertex, no-sharing paths the engines are
//! checked against.
//!
//! Each function extracts every vertex's neighbourhood with the naive
//! extractor ([`view`], [`ordered_nbhd`], [`id_nbhd`]), evaluates the
//! algorithm on it, and assembles the output with the same conventions
//! and typed errors as the budgeted entries in [`crate::run`]. They take
//! no budget and share no code with [`crate::engine`], which is what
//! makes them oracles: the `engine_differential` suite asserts the two
//! agree bit for bit. No production path calls them.

use std::collections::BTreeSet;

use locap_graph::canon::{id_nbhd, ordered_nbhd};
use locap_graph::{Edge, Graph, LDigraph, NodeId};
use locap_lifts::view;

use crate::error::{check_len, RunError};
use crate::{
    IdEdgeAlgorithm, IdVertexAlgorithm, OiEdgeAlgorithm, OiVertexAlgorithm, PoEdgeAlgorithm,
    PoVertexAlgorithm,
};

/// Reference [`crate::run::id_vertex_budgeted`].
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `ids` does not cover every node.
pub fn id_vertex<A: IdVertexAlgorithm>(
    g: &Graph,
    ids: &[u64],
    algo: &A,
) -> Result<Vec<bool>, RunError> {
    check_len("ids", g.node_count(), ids.len())?;
    Ok(g.nodes().map(|v| algo.evaluate(&id_nbhd(g, ids, v, algo.radius()))).collect())
}

/// Reference [`crate::run::oi_vertex_budgeted`].
///
/// # Errors
///
/// [`RunError::InputLengthMismatch`] when `rank` does not cover every
/// node.
pub fn oi_vertex<A: OiVertexAlgorithm>(
    g: &Graph,
    rank: &[usize],
    algo: &A,
) -> Result<Vec<bool>, RunError> {
    check_len("rank", g.node_count(), rank.len())?;
    Ok(g.nodes()
        .map(|v| algo.evaluate(&ordered_nbhd(g, rank, v, algo.radius())))
        .collect())
}

/// Reference [`crate::run::po_vertex_budgeted`].
///
/// # Errors
///
/// Currently infallible; `Result` for uniformity with the other oracles.
pub fn po_vertex<A: PoVertexAlgorithm>(d: &LDigraph, algo: &A) -> Result<Vec<bool>, RunError> {
    Ok((0..d.node_count()).map(|v| algo.evaluate(&view(d, v, algo.radius()))).collect())
}

/// Reference [`crate::run::id_edge_budgeted`].
///
/// # Errors
///
/// Same conditions as [`crate::run::id_edge_budgeted`].
pub fn id_edge<A: IdEdgeAlgorithm>(
    g: &Graph,
    ids: &[u64],
    algo: &A,
) -> Result<BTreeSet<Edge>, RunError> {
    check_len("ids", g.node_count(), ids.len())?;
    sorted_union(g, |u| ids[u], |v| algo.evaluate(&id_nbhd(g, ids, v, algo.radius())))
}

/// Reference [`crate::run::oi_edge_budgeted`].
///
/// # Errors
///
/// Same conditions as [`crate::run::oi_edge_budgeted`].
pub fn oi_edge<A: OiEdgeAlgorithm>(
    g: &Graph,
    rank: &[usize],
    algo: &A,
) -> Result<BTreeSet<Edge>, RunError> {
    check_len("rank", g.node_count(), rank.len())?;
    sorted_union(g, |u| rank[u] as u64, |v| algo.evaluate(&ordered_nbhd(g, rank, v, algo.radius())))
}

/// The union edge set of per-node outputs indexed by neighbours sorted
/// by `key`.
fn sorted_union(
    g: &Graph,
    key: impl Fn(NodeId) -> u64,
    output: impl Fn(NodeId) -> Vec<bool>,
) -> Result<BTreeSet<Edge>, RunError> {
    let mut out = BTreeSet::new();
    for v in g.nodes() {
        let bits = output(v);
        if bits.len() != g.degree(v) {
            return Err(RunError::OutputLengthMismatch {
                node: v,
                expected: g.degree(v),
                actual: bits.len(),
            }
            .publish());
        }
        let mut nbrs = g.neighbors(v).to_vec();
        nbrs.sort_by_key(|&u| key(u));
        for (i, &u) in nbrs.iter().enumerate() {
            if bits[i] {
                out.insert(Edge::new(v, u));
            }
        }
    }
    Ok(out)
}

/// Reference [`crate::run::po_edge_budgeted`].
///
/// # Errors
///
/// Same conditions as [`crate::run::po_edge_budgeted`].
pub fn po_edge<A: PoEdgeAlgorithm>(d: &LDigraph, algo: &A) -> Result<BTreeSet<Edge>, RunError> {
    let mut out = BTreeSet::new();
    for v in 0..d.node_count() {
        for (letter, selected) in algo.evaluate(&view(d, v, algo.radius())) {
            if !selected {
                continue;
            }
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
    }
    Ok(out)
}
