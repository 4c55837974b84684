//! The oracle gate: the live edge set kept on the host, and the
//! checks every answer goes through, outside the timed region.
//!
//! Answers are compared against `mpc_graph::oracle`:
//!
//! * `ComponentCount`, `Connected` and `ComponentOf` exactly, against
//!   a union-find rebuild of the live edges (component ids are the
//!   smallest vertex of the component, the paper's convention);
//! * `IsBipartite` exactly;
//! * `ForestWeight` within a factor `1 + ε` of the exact
//!   `oracle::msf_weight`, either side;
//! * `MatchingSize` inside the two-sided window of experiment E17
//!   (`16·e ≥ OPT` and `e ≤ 8·max(OPT, 1)`). An exact maximum matching
//!   is too slow at these sizes, so `OPT` is bracketed by a greedy
//!   maximal matching `g ≤ OPT ≤ 2g` and the window is checked on the
//!   conservative side: `16·e ≥ 2g` and `e ≤ 8·max(g, 1)`.

use mpc_graph::ids::{Edge, VertexId, WeightedEdge};
use mpc_graph::oracle;
use mpc_graph::update::{Batch, Update, WeightedBatch, WeightedUpdate};
use std::collections::BTreeMap;

/// The live edge set with weights (unit weight for unweighted
/// streams), mirrored from every submitted batch.
#[derive(Debug, Clone, Default)]
pub struct LiveGraph {
    n: usize,
    edges: BTreeMap<Edge, u64>,
}

impl LiveGraph {
    /// An empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        LiveGraph {
            n,
            edges: BTreeMap::new(),
        }
    }

    /// Number of live edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edge is live.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The live edges, in edge order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.keys().copied()
    }

    /// Applies an unweighted batch.
    pub fn apply(&mut self, batch: &Batch) {
        for u in batch.iter() {
            match u {
                Update::Insert(e) => {
                    self.edges.insert(e, 1);
                }
                Update::Delete(e) => {
                    self.edges.remove(&e);
                }
            }
        }
    }

    /// Applies a weighted batch.
    pub fn apply_weighted(&mut self, batch: &WeightedBatch) {
        for u in batch.iter() {
            match u {
                WeightedUpdate::Insert(we) => {
                    self.edges.insert(we.edge, we.weight);
                }
                WeightedUpdate::Delete(we) => {
                    self.edges.remove(&we.edge);
                }
            }
        }
    }

    /// The oracle's view of the current graph.
    pub fn truth(&self) -> Truth {
        let labels = oracle::components(self.n, self.edges());
        let components = count_labels(&labels);
        Truth { labels, components }
    }

    /// Exact minimum spanning forest weight.
    pub fn msf_weight(&self) -> u64 {
        oracle::msf_weight(
            self.n,
            self.edges
                .iter()
                .map(|(&edge, &weight)| WeightedEdge { edge, weight }),
        )
    }

    /// Exact bipartiteness.
    pub fn is_bipartite(&self) -> bool {
        let edges: Vec<Edge> = self.edges().collect();
        oracle::is_bipartite(self.n, &edges)
    }

    /// Size of a greedy maximal matching in edge order.
    pub fn greedy_matching(&self) -> u64 {
        oracle::greedy_maximal_matching(self.n, self.edges()).len() as u64
    }
}

/// Component labels and count of the live graph.
#[derive(Debug, Clone)]
pub struct Truth {
    /// `labels[v]` is the smallest vertex of `v`'s component.
    pub labels: Vec<VertexId>,
    /// Number of components.
    pub components: u64,
}

fn count_labels(labels: &[VertexId]) -> u64 {
    labels
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v as u32 == l)
        .count() as u64
}

/// Whether a `ForestWeight` answer is within `1 + eps` of the exact
/// weight, either side.
pub fn forest_weight_ok(answer: f64, exact: u64, eps: f64) -> bool {
    let exact = exact as f64;
    let slack = 1e-9 * exact.max(1.0);
    answer * (1.0 + eps) + slack >= exact && answer <= exact * (1.0 + eps) + slack
}

/// Whether a `MatchingSize` answer is inside E17's window, given a
/// greedy maximal matching of size `greedy` (see the module docs).
pub fn matching_size_ok(answer: u64, greedy: u64) -> bool {
    16 * answer >= 2 * greedy && answer <= 8 * greedy.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_follows_updates() {
        let mut g = LiveGraph::new(5);
        g.apply(&Batch::inserting([Edge::new(0, 1), Edge::new(3, 4)]));
        let t = g.truth();
        assert_eq!(t.components, 3);
        assert_eq!(t.labels, vec![0, 0, 2, 3, 3]);
        g.apply(&Batch::deleting([Edge::new(0, 1)]));
        assert_eq!(g.truth().components, 4);
        assert_eq!(g.len(), 1);
        assert!(g.is_bipartite());
        assert_eq!(g.greedy_matching(), 1);
    }

    #[test]
    fn weighted_checks() {
        let mut g = LiveGraph::new(3);
        g.apply_weighted(&WeightedBatch::inserting([
            WeightedEdge::new(0, 1, 4),
            WeightedEdge::new(1, 2, 2),
            WeightedEdge::new(0, 2, 9),
        ]));
        assert_eq!(g.msf_weight(), 6);
        assert!(!g.is_bipartite());
        assert!(forest_weight_ok(6.0, 6, 1.0));
        assert!(forest_weight_ok(12.0, 6, 1.0));
        assert!(forest_weight_ok(3.0, 6, 1.0));
        assert!(!forest_weight_ok(12.5, 6, 1.0));
        assert!(!forest_weight_ok(2.9, 6, 1.0));
        assert!(matching_size_ok(1, 1));
        assert!(!matching_size_ok(0, 1));
        assert!(!matching_size_ok(9, 1));
        assert!(matching_size_ok(0, 0));
    }
}
