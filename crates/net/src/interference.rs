//! The interference graph of Definition 1, and the combinatorics the
//! greedy bound (Theorem 2) and the exhaustive allocator need.
//!
//! "An interference graph `G_I = (V_I, E_I)` is an undirected graph
//! where each vertex represents an FBS and each edge indicates
//! interference between the two end FBSs." FBSs joined by an edge
//! cannot use the same licensed channel in the same slot (Lemma 4).

use crate::node::FbsId;
use std::fmt;

/// An undirected interference graph over `N` FBSs.
///
/// # Examples
///
/// The paper's Fig. 2 (derived from Fig. 1): FBSs 1 and 2 isolated,
/// an edge between FBSs 3 and 4 (0-indexed here):
///
/// ```
/// use fcr_net::interference::InterferenceGraph;
/// use fcr_net::node::FbsId;
///
/// let g = InterferenceGraph::new(4, &[(FbsId(2), FbsId(3))]);
/// assert_eq!(g.max_degree(), 1);
/// assert!(g.are_adjacent(FbsId(2), FbsId(3)));
/// assert!(!g.are_adjacent(FbsId(0), FbsId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceGraph {
    n: usize,
    adjacency: Vec<Vec<bool>>,
}

impl InterferenceGraph {
    /// Builds a graph on `n` vertices with the given undirected edges.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop is
    /// given (an FBS cannot interfere with itself).
    pub fn new(n: usize, edges: &[(FbsId, FbsId)]) -> Self {
        let mut adjacency = vec![vec![false; n]; n];
        for &(a, b) in edges {
            assert!(a.0 < n && b.0 < n, "edge ({a}, {b}) out of range for n={n}");
            assert_ne!(a, b, "self-loop at {a}");
            adjacency[a.0][b.0] = true;
            adjacency[b.0][a.0] = true;
        }
        Self { n, adjacency }
    }

    /// A graph with no edges (the non-interfering case of Section IV-B,
    /// where `D_max = 0` and the distributed algorithm is optimal).
    pub fn edgeless(n: usize) -> Self {
        Self::new(n, &[])
    }

    /// Number of vertices (FBSs).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Returns `true` if `a` and `b` interfere.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn are_adjacent(&self, a: FbsId, b: FbsId) -> bool {
        self.adjacency[a.0][b.0]
    }

    /// The interference neighborhood `R(i)` of Lemma 4.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: FbsId) -> Vec<FbsId> {
        self.adjacency[i.0]
            .iter()
            .enumerate()
            .filter(|(_, &adj)| adj)
            .map(|(j, _)| FbsId(j))
            .collect()
    }

    /// Degree of vertex `i`: the `D(l)` of Lemma 8.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn degree(&self, i: FbsId) -> usize {
        self.adjacency[i.0].iter().filter(|&&adj| adj).count()
    }

    /// `D_max`, the maximum vertex degree — the constant in Theorem 2's
    /// bound `Q(greedy) ≥ Q(opt)/(1 + D_max)`.
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .map(|i| self.degree(FbsId(i)))
            .max()
            .unwrap_or(0)
    }

    /// All undirected edges, each reported once with the smaller id
    /// first, in lexicographic order. Scans the whole adjacency matrix:
    /// `O(N²)` however few edges there are.
    pub fn edges(&self) -> Vec<(FbsId, FbsId)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.adjacency[i][j] {
                    out.push((FbsId(i), FbsId(j)));
                }
            }
        }
        out
    }

    /// Checks Lemma 4 over a per-channel assignment: `holders[m]` lists
    /// the FBSs using channel `m`. Returns `true` iff no two adjacent
    /// FBSs share a channel.
    pub fn is_conflict_free(&self, holders: &[Vec<FbsId>]) -> bool {
        holders.iter().all(|fbss| {
            for (idx, &a) in fbss.iter().enumerate() {
                for &b in &fbss[idx + 1..] {
                    if self.are_adjacent(a, b) {
                        return false;
                    }
                }
            }
            true
        })
    }

    /// Returns `true` if `set` is an independent set.
    pub fn is_independent(&self, set: &[FbsId]) -> bool {
        for (idx, &a) in set.iter().enumerate() {
            for &b in &set[idx + 1..] {
                if self.are_adjacent(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Greedy vertex coloring in id order: assigns each FBS the
    /// smallest color not used by an already-colored neighbor.
    ///
    /// Color classes are independent sets, so a coloring is a legal
    /// way to pre-partition channels among FBSs (all FBSs of one color
    /// may share a channel). Uses at most `D_max + 1` colors — the same
    /// quantity that appears in Theorem 2's bound.
    pub fn greedy_coloring(&self) -> Vec<usize> {
        let mut colors = vec![usize::MAX; self.n];
        for v in 0..self.n {
            let mut used = vec![false; self.n + 1];
            for u in 0..v {
                if self.adjacency[v][u] {
                    used[colors[u]] = true;
                }
            }
            colors[v] = (0..).find(|c| !used[*c]).expect("some color free");
        }
        colors
    }

    /// Number of colors a greedy coloring uses (an upper bound on the
    /// chromatic number, itself at most `D_max + 1`).
    pub fn greedy_chromatic_number(&self) -> usize {
        self.greedy_coloring()
            .iter()
            .map(|c| c + 1)
            .max()
            .unwrap_or(0)
    }

    /// Enumerates all **maximal** independent sets.
    ///
    /// Because awarding a channel to more FBSs never hurts the
    /// allocation objective (channel counts only enter through
    /// `G_i = Σ c_{i,m} P^A_m ≥ 0`), the exhaustive optimal channel
    /// allocator only needs to consider assigning each channel to a
    /// maximal independent set. Exponential in `N`; intended for the
    /// small validation instances (`N ≤ 16`).
    ///
    /// # Panics
    ///
    /// Panics if `N > 24` to guard against accidental blow-up.
    pub fn maximal_independent_sets(&self) -> Vec<Vec<FbsId>> {
        assert!(
            self.n <= 24,
            "maximal IS enumeration is exponential; n={} too large",
            self.n
        );
        let mut result = Vec::new();
        for mask in 0u32..(1u32 << self.n) {
            let set: Vec<FbsId> = (0..self.n)
                .filter(|i| mask & (1 << i) != 0)
                .map(FbsId)
                .collect();
            if set.is_empty() || !self.is_independent(&set) {
                continue;
            }
            // Maximal: no vertex outside the set can be added.
            let maximal = (0..self.n)
                .all(|v| mask & (1 << v) != 0 || set.iter().any(|&u| self.adjacency[u.0][v]));
            if maximal {
                result.push(set);
            }
        }
        result
    }
}

impl fmt::Display for InterferenceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InterferenceGraph(n={}, edges={:?})",
            self.n,
            self.edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Fig. 5 simulation graph: FBS1—FBS2—FBS3 (a path).
    fn fig5() -> InterferenceGraph {
        InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))])
    }

    #[test]
    fn fig2_graph_properties() {
        let g = InterferenceGraph::new(4, &[(FbsId(2), FbsId(3))]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.max_degree(), 1);
        assert_eq!(g.degree(FbsId(0)), 0);
        assert_eq!(g.degree(FbsId(3)), 1);
        assert_eq!(g.neighbors(FbsId(2)), vec![FbsId(3)]);
        assert_eq!(g.edges(), vec![(FbsId(2), FbsId(3))]);
    }

    #[test]
    fn fig5_graph_properties() {
        let g = fig5();
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree(FbsId(1)), 2);
        assert!(g.are_adjacent(FbsId(0), FbsId(1)));
        assert!(!g.are_adjacent(FbsId(0), FbsId(2)));
    }

    #[test]
    fn edgeless_graph_has_dmax_zero() {
        let g = InterferenceGraph::edgeless(5);
        assert_eq!(g.max_degree(), 0);
        assert!(g.edges().is_empty());
        // All 5 FBSs can share every channel (Section IV-B).
        let all: Vec<FbsId> = (0..5).map(FbsId).collect();
        assert!(g.is_independent(&all));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = InterferenceGraph::new(2, &[(FbsId(0), FbsId(5))]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = InterferenceGraph::new(2, &[(FbsId(1), FbsId(1))]);
    }

    #[test]
    fn conflict_checking_lemma4() {
        let g = fig5();
        // Channel 0 to FBS 0 and 2 (non-adjacent): fine.
        assert!(g.is_conflict_free(&[vec![FbsId(0), FbsId(2)]]));
        // Channel 0 to FBS 0 and 1 (adjacent): conflict.
        assert!(!g.is_conflict_free(&[vec![FbsId(0), FbsId(1)]]));
        // Different channels can repeat FBSs freely.
        assert!(g.is_conflict_free(&[vec![FbsId(0)], vec![FbsId(1)], vec![FbsId(0), FbsId(2)]]));
        assert!(g.is_conflict_free(&[]));
    }

    #[test]
    fn maximal_independent_sets_of_path3() {
        let g = fig5();
        let mut sets = g.maximal_independent_sets();
        for s in &mut sets {
            s.sort_unstable();
        }
        sets.sort();
        // Path 0—1—2: maximal ISs are {1} and {0, 2}.
        assert_eq!(sets, vec![vec![FbsId(0), FbsId(2)], vec![FbsId(1)]]);
    }

    #[test]
    fn maximal_independent_sets_of_edgeless() {
        let g = InterferenceGraph::edgeless(3);
        let sets = g.maximal_independent_sets();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 3, "only the full set is maximal");
    }

    #[test]
    fn maximal_independent_sets_of_triangle() {
        let g = InterferenceGraph::new(
            3,
            &[
                (FbsId(0), FbsId(1)),
                (FbsId(1), FbsId(2)),
                (FbsId(0), FbsId(2)),
            ],
        );
        let sets = g.maximal_independent_sets();
        assert_eq!(sets.len(), 3, "each singleton is maximal in a triangle");
        assert!(sets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn display_mentions_edges() {
        let g = fig5();
        assert!(format!("{g}").contains("n=3"));
    }

    #[test]
    fn coloring_of_known_graphs() {
        // Path 0—1—2: 2 colors (0, 1, 0).
        assert_eq!(fig5().greedy_coloring(), vec![0, 1, 0]);
        assert_eq!(fig5().greedy_chromatic_number(), 2);
        // Edgeless: everyone color 0.
        let e = InterferenceGraph::edgeless(4);
        assert_eq!(e.greedy_coloring(), vec![0; 4]);
        assert_eq!(e.greedy_chromatic_number(), 1);
        // Triangle: 3 colors.
        let t = InterferenceGraph::new(
            3,
            &[
                (FbsId(0), FbsId(1)),
                (FbsId(1), FbsId(2)),
                (FbsId(0), FbsId(2)),
            ],
        );
        assert_eq!(t.greedy_chromatic_number(), 3);
        // Empty graph edge case.
        assert_eq!(InterferenceGraph::edgeless(0).greedy_chromatic_number(), 0);
    }

    proptest! {
        #[test]
        fn random_graphs_have_consistent_degrees(
            n in 1usize..8,
            edge_bits in proptest::collection::vec(proptest::bool::ANY, 28),
        ) {
            let mut edges = Vec::new();
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if edge_bits[k % edge_bits.len()] {
                        edges.push((FbsId(i), FbsId(j)));
                    }
                    k += 1;
                }
            }
            let g = InterferenceGraph::new(n, &edges);
            // Handshake lemma.
            let degree_sum: usize = (0..n).map(|i| g.degree(FbsId(i))).sum();
            prop_assert_eq!(degree_sum, 2 * g.edges().len());
            prop_assert!(g.max_degree() <= n.saturating_sub(1));

            // Greedy coloring is proper and within the Brooks-style
            // bound D_max + 1.
            let colors = g.greedy_coloring();
            for (a, b) in g.edges() {
                prop_assert_ne!(colors[a.0], colors[b.0], "improper coloring");
            }
            prop_assert!(g.greedy_chromatic_number() <= g.max_degree() + 1);

            // Every maximal IS is independent and maximal.
            for set in g.maximal_independent_sets() {
                prop_assert!(g.is_independent(&set));
                for v in 0..n {
                    if !set.contains(&FbsId(v)) {
                        let mut extended = set.clone();
                        extended.push(FbsId(v));
                        prop_assert!(!g.is_independent(&extended),
                            "set {:?} not maximal: can add {v}", set);
                    }
                }
            }
        }
    }
}
