//! Query-oriented reachability over dependence DAGs.
//!
//! Pinter's construction needs the transitive closure of the schedule graph
//! `Gs` three ways: point queries (`does i reach j?`), row enumeration (all
//! `j` reachable from `i`, in either direction), and the *unordered* set
//! (all `j` with no path either way — the candidates for a false-dependence
//! edge). [`Reachability`] answers all three from a pair of [`BitMatrix`]
//! closures, forward rows and reverse rows, so every query in either
//! direction is a row read and row operations run a word at a time. Memory
//! is `2·n²` bits.
//!
//! The relation is always built from scratch by [`Reachability::build`];
//! callers that rewrite a block (spill rounds) simply build again. Cyclic
//! graphs (possible for hand-made graphs, never for block dependence DAGs)
//! use the fixpoint of [`DiGraph::reachability_until`].
//!
//! The build follows the cooperative wall-clock deadline protocol of
//! [`DiGraph::reachability_until`]: work is charged per row and the clock is
//! polled every [`DEADLINE_STRIDE`] units, so a deadline trips within a
//! bounded slice of work.

use crate::bitmatrix::BitMatrix;
use crate::bitset::BitSet;
use crate::digraph::{DiGraph, DEADLINE_STRIDE};
use crate::NodeId;
use std::time::Instant;

/// Charges units of closure work and polls the wall clock every
/// [`DEADLINE_STRIDE`] units, mirroring [`DiGraph::reachability_until`].
struct DeadlinePoll {
    deadline: Option<Instant>,
    pending: usize,
}

impl DeadlinePoll {
    fn new(deadline: Option<Instant>) -> DeadlinePoll {
        DeadlinePoll {
            deadline,
            pending: 0,
        }
    }

    /// Charges `units` of work; returns `true` when the deadline has passed.
    fn charge(&mut self, units: usize) -> bool {
        let Some(d) = self.deadline else {
            return false;
        };
        self.pending += units;
        if self.pending >= DEADLINE_STRIDE {
            self.pending = 0;
            return Instant::now() >= d;
        }
        false
    }
}

/// Reachability relation of a directed graph behind a query interface.
///
/// Built by [`Reachability::build`]; see the [module docs](self). All
/// queries treat reachability as *non-empty* paths: for a DAG
/// `reaches(i, i)` is always `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachability {
    /// `fwd[i]` = nodes reachable from `i` by a non-empty path.
    fwd: BitMatrix,
    /// `bwd[i]` = nodes that reach `i` by a non-empty path.
    bwd: BitMatrix,
}

impl Default for Reachability {
    fn default() -> Self {
        Reachability::new()
    }
}

impl Reachability {
    /// An empty relation over zero nodes (the state of a fresh session).
    pub fn new() -> Reachability {
        Reachability {
            fwd: BitMatrix::new(0),
            bwd: BitMatrix::new(0),
        }
    }

    /// Computes the reachability relation of `g`. Returns `None` when
    /// `deadline` passes mid-build.
    pub fn build(g: &DiGraph, deadline: Option<Instant>) -> Option<Reachability> {
        let Ok(order) = g.topological_sort() else {
            let fwd = g.reachability_until(deadline)?;
            let bwd = fwd.transposed();
            return Some(Reachability { fwd, bwd });
        };
        let n = g.node_count();
        let mut poll = DeadlinePoll::new(deadline);
        let mut fwd = BitMatrix::new(n);
        let mut bwd = BitMatrix::new(n);
        for (u, v) in g.edges() {
            fwd.set(u, v);
            bwd.set(v, u);
        }
        for &u in order.iter().rev() {
            if poll.charge(1) {
                return None;
            }
            for &s in g.succs(u) {
                if s != u {
                    fwd.union_rows(u, s);
                }
            }
        }
        for &u in &order {
            if poll.charge(1) {
                return None;
            }
            for &p in g.preds(u) {
                if p != u {
                    bwd.union_rows(u, p);
                }
            }
        }
        Some(Reachability { fwd, bwd })
    }

    /// Number of nodes in the relation.
    pub fn len(&self) -> usize {
        self.fwd.size()
    }

    /// Whether the relation is over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether there is a non-empty directed path from `i` to `j`.
    pub fn reaches(&self, i: NodeId, j: NodeId) -> bool {
        self.fwd.get(i, j)
    }

    /// Iterates, in ascending order, over every node reachable from `i`
    /// (excluding `i` on DAGs).
    pub fn row_iter(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.fwd.row(i).iter()
    }

    /// Iterates, in ascending order, over every node that reaches `i` (the
    /// reverse row).
    pub fn rrow_iter(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.bwd.row(i).iter()
    }

    /// Calls `f`, in ascending order, for every node `j ≠ i` with no path
    /// between `i` and `j` in either direction — the pairs Pinter's Ef graph
    /// connects.
    pub fn for_each_unreachable(&self, i: NodeId, mut f: impl FnMut(NodeId)) {
        for j in 0..self.len() {
            if j != i && !self.fwd.get(i, j) && !self.bwd.get(i, j) {
                f(j);
            }
        }
    }

    /// Word-level variant of [`Reachability::for_each_unreachable`]: sets
    /// `out` to `universe ∩ {j : unordered with i, j ≠ i}`.
    ///
    /// # Panics
    /// Panics if `universe` or `out` does not have capacity `len()`.
    pub fn unordered_into(&self, i: NodeId, universe: &BitSet, out: &mut BitSet) {
        out.clone_from(universe);
        out.difference_with(self.fwd.row(i));
        out.difference_with(self.bwd.row(i));
        out.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(g: &DiGraph) -> Reachability {
        match Reachability::build(g, None) {
            Some(r) => r,
            None => unreachable!("no deadline"),
        }
    }

    fn unordered(r: &Reachability, i: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        r.for_each_unreachable(i, |j| out.push(j));
        out
    }

    #[test]
    fn diamond_backends_agree() {
        // 0 -> {1, 2} -> 3: the topological-order build and the fixpoint
        // closure of `DiGraph::reachability` agree, forward and reverse.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let r = build(&g);
        let fixpoint = g.reachability();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(r.reaches(i, j), fixpoint.get(i, j), "({i}, {j})");
            }
            let rrow: Vec<NodeId> = (0..4).filter(|&j| fixpoint.get(j, i)).collect();
            assert_eq!(r.rrow_iter(i).collect::<Vec<_>>(), rrow, "rrow {i}");
        }
        assert_eq!(unordered(&r, 1), vec![2]);
        assert_eq!(unordered(&r, 0), Vec::<NodeId>::new());
    }

    #[test]
    fn expired_deadline_trips_both_backends() {
        // Past one deadline stride, an expired deadline trips both the
        // topological-order build (a chain) and the fixpoint fallback (the
        // same chain closed into a cycle).
        let mut g = DiGraph::new(1500);
        for i in 1..1500 {
            g.add_edge(i - 1, i);
        }
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert!(Reachability::build(&g, Some(past)).is_none(), "chain");
        g.add_edge(1499, 0);
        assert!(Reachability::build(&g, Some(past)).is_none(), "cycle");
    }

    #[test]
    fn width_one_chain() {
        // A pure chain orders every pair.
        let mut g = DiGraph::new(6);
        for i in 1..6 {
            g.add_edge(i - 1, i);
        }
        let r = build(&g);
        for i in 0..6 {
            assert!(unordered(&r, i).is_empty(), "node {i} is totally ordered");
            assert_eq!(
                r.row_iter(i).collect::<Vec<_>>(),
                (i + 1..6).collect::<Vec<_>>()
            );
            assert_eq!(
                r.rrow_iter(i).collect::<Vec<_>>(),
                (0..i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn width_n_antichain() {
        // No edges: every pair is unordered.
        let r = build(&DiGraph::new(5));
        for i in 0..5 {
            assert_eq!(r.row_iter(i).count(), 0);
            assert_eq!(r.rrow_iter(i).count(), 0);
            assert_eq!(unordered(&r, i).len(), 4);
        }
    }

    #[test]
    fn unordered_into_matches_for_each() {
        // 0 -> {1, 2} -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let r = build(&g);
        let mut universe = BitSet::new(4);
        universe.fill();
        let mut out = BitSet::new(4);
        r.unordered_into(1, &universe, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), unordered(&r, 1));
        assert_eq!(unordered(&r, 1), vec![2]);
        // A restricted universe filters the result.
        let mut small = BitSet::new(4);
        small.insert(3);
        r.unordered_into(1, &small, &mut out);
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn cyclic_falls_back_to_dense() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let r = build(&g);
        for i in 0..3 {
            for j in 0..3 {
                assert!(r.reaches(i, j));
            }
        }
    }
}
