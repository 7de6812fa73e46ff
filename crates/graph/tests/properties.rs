//! Property-style tests for the graph substrate, driven by a seeded local
//! PRNG so the suite needs no external crates and stays deterministic.

use parsched_graph::coloring::{
    chaitin_order, dsatur_coloring, exact_coloring, greedy_coloring, max_clique_lower_bound,
    ExactLimits,
};
use parsched_graph::{strongly_connected_components, BitSet, DiGraph, Reachability, UnGraph};
use std::time::{Duration, Instant};

/// SplitMix64 — enough randomness for structural graph tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Random undirected graph with 2..max_n nodes and up to 2n edge draws.
fn random_ungraph(rng: &mut Rng, max_n: usize) -> UnGraph {
    let n = 2 + rng.below(max_n - 2);
    let mut g = UnGraph::new(n);
    for _ in 0..rng.below(n * 2 + 1) {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b {
            g.add_edge(a, b);
        }
    }
    g
}

/// Random DAG: edges only from lower to higher index.
fn random_dag(rng: &mut Rng, max_n: usize) -> DiGraph {
    let n = 2 + rng.below(max_n - 2);
    let mut g = DiGraph::new(n);
    for _ in 0..rng.below(n * 2 + 1) {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b {
            g.add_edge(a.min(b), a.max(b));
        }
    }
    g
}

const CASES: u64 = 128;

#[test]
fn dsatur_is_always_proper() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 24);
        let c = dsatur_coloring(&g);
        assert!(g.is_proper_coloring(c.as_slice()));
    }
}

#[test]
fn greedy_with_chaitin_order_is_proper() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 24);
        let (order, _) = chaitin_order(&g, usize::MAX);
        let c = greedy_coloring(&g, &order);
        assert!(g.is_proper_coloring(c.as_slice()));
    }
}

#[test]
fn exact_is_at_most_dsatur_and_at_least_clique() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 16);
        let limits = ExactLimits {
            max_nodes: 16,
            max_steps: 1_000_000,
        };
        if let Ok(exact) = exact_coloring(&g, &limits) {
            let dsatur = dsatur_coloring(&g);
            let clique = max_clique_lower_bound(&g);
            assert!(g.is_proper_coloring(exact.as_slice()));
            assert!(exact.num_colors() <= dsatur.num_colors());
            assert!(exact.num_colors() as usize >= clique.len());
        }
    }
}

#[test]
fn complement_is_involutive() {
    let mut rng = Rng::new(4);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 20);
        let cc = g.complement().complement();
        assert_eq!(cc.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(cc.has_edge(u, v));
        }
    }
}

#[test]
fn complement_partitions_pairs() {
    let mut rng = Rng::new(5);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 20);
        let comp = g.complement();
        let n = g.node_count();
        assert_eq!(
            g.edge_count() + comp.edge_count(),
            n * (n - 1) / 2,
            "every pair is in exactly one of g, complement"
        );
    }
}

#[test]
fn closure_is_idempotent() {
    let mut rng = Rng::new(6);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 16);
        let c1 = g.transitive_closure();
        let c2 = c1.transitive_closure();
        assert_eq!(c1.edge_count(), c2.edge_count());
        for (u, v) in c1.edges() {
            assert!(c2.has_edge(u, v));
        }
    }
}

#[test]
fn closure_is_transitive() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 14);
        let c = g.transitive_closure();
        let n = c.node_count();
        for a in 0..n {
            for b in 0..n {
                for d in 0..n {
                    if c.has_edge(a, b) && c.has_edge(b, d) {
                        assert!(c.has_edge(a, d), "({a},{b},{d})");
                    }
                }
            }
        }
    }
}

#[test]
fn topological_sort_respects_edges() {
    let mut rng = Rng::new(8);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 20);
        let order = g.topological_sort().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u] < pos[v]);
        }
    }
}

#[test]
fn scc_of_dag_is_all_singletons() {
    let mut rng = Rng::new(9);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 20);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), g.node_count());
        assert!(sccs.iter().all(|c| c.len() == 1));
    }
}

#[test]
fn clique_is_actually_a_clique() {
    let mut rng = Rng::new(10);
    for _ in 0..CASES {
        let g = random_ungraph(&mut rng, 24);
        let clique = max_clique_lower_bound(&g);
        for (i, &a) in clique.iter().enumerate() {
            for &b in &clique[i + 1..] {
                assert!(g.has_edge(a, b));
            }
        }
    }
}

/// Asserts `reach` answers all five queries exactly as the
/// [`DiGraph::reachability`] oracle of `g` says it should, rows in
/// ascending order.
fn assert_matches_oracle(g: &DiGraph, reach: &Reachability) {
    let n = g.node_count();
    let oracle = g.reachability();
    assert_eq!(reach.len(), n);
    let mut universe = BitSet::new(n);
    universe.fill();
    let mut out = BitSet::new(n);
    for i in 0..n {
        for j in 0..n {
            assert_eq!(reach.reaches(i, j), oracle.get(i, j), "reaches({i}, {j})");
        }
        let row: Vec<usize> = (0..n).filter(|&j| oracle.get(i, j)).collect();
        let rrow: Vec<usize> = (0..n).filter(|&j| oracle.get(j, i)).collect();
        let unordered: Vec<usize> = (0..n)
            .filter(|&j| j != i && !oracle.get(i, j) && !oracle.get(j, i))
            .collect();
        assert_eq!(reach.row_iter(i).collect::<Vec<_>>(), row, "row_iter({i})");
        assert_eq!(
            reach.rrow_iter(i).collect::<Vec<_>>(),
            rrow,
            "rrow_iter({i})"
        );
        let mut each = Vec::new();
        reach.for_each_unreachable(i, |j| each.push(j));
        assert_eq!(each, unordered, "for_each_unreachable({i})");
        reach.unordered_into(i, &universe, &mut out);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            unordered,
            "unordered_into({i})"
        );
    }
}

/// Relabels `g`'s nodes by a random permutation, so edges no longer run
/// from lower to higher index.
fn shuffled(rng: &mut Rng, g: &DiGraph) -> DiGraph {
    let n = g.node_count();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut out = DiGraph::new(n);
    for (u, v) in g.edges() {
        out.add_edge(perm[u], perm[v]);
    }
    out
}

/// The word-parallel closure `Reachability` builds in topological order
/// equals the dense fixpoint closure on random shuffled DAGs, for all five
/// queries. (The name predates the removal of the sparse chain-cover
/// backend; the property now pins the one engine to the dense oracle.)
#[test]
fn sparse_closure_equals_dense_on_random_dags() {
    let mut rng = Rng::new(11);
    for _ in 0..CASES {
        let dag = random_dag(&mut rng, 24);
        let dag = shuffled(&mut rng, &dag);
        assert_matches_oracle(&dag, &Reachability::build(&dag, None).unwrap());
    }
}

#[test]
fn reachability_matches_oracle() {
    let mut rng = Rng::new(12);
    let past = Instant::now() - Duration::from_millis(1);
    for _ in 0..CASES {
        let dag = random_dag(&mut rng, 24);
        let dag = shuffled(&mut rng, &dag);
        // An expired deadline may trip the build, but never corrupts it.
        if let Some(r) = Reachability::build(&dag, Some(past)) {
            assert_matches_oracle(&dag, &r);
        }
    }
    // A cycle takes the fixpoint fallback.
    let mut cyclic = random_dag(&mut rng, 24);
    let n = cyclic.node_count();
    cyclic.add_edge(n - 1, 0);
    cyclic.add_edge(0, n - 1);
    assert_matches_oracle(&cyclic, &Reachability::build(&cyclic, None).unwrap());
}
