//! The block-level allocation problem: vertices and interference graph.

use parsched_graph::{BitSet, UnGraph};
use parsched_ir::liveness::Liveness;
use parsched_ir::{BlockId, Function, Reg};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// The register-allocation problem for one basic block.
///
/// Vertices follow the paper's Claim 1: every allocation vertex is either a
/// *definition* in the block body (so it corresponds to an instruction of
/// the schedule graph, `Vr ⊆ Vs`) or a value *live into* the block (defined
/// upstream — such vertices take part in coloring but carry no
/// false-dependence edges, since their defining instruction is elsewhere).
///
/// Interference follows the paper's definition with the classic last-use
/// refinement: a definition interferes with every value live *immediately
/// after* the defining instruction — "the end point of the live interval …
/// is not considered part of the interval; this enables the reuse of the
/// register in the same statement that last uses it".
#[derive(Debug, Clone)]
pub struct BlockAllocProblem {
    block: BlockId,
    nodes: Vec<Reg>,
    /// Every register of the block, sorted; `node_of_id` is parallel.
    regs: Vec<Reg>,
    node_of_id: Vec<u32>,
    def_site: Vec<Option<usize>>,
    uses_count: Vec<u32>,
    interference: UnGraph,
}

/// Errors constructing a [`BlockAllocProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A symbolic register is defined more than once in the block; the
    /// paper's framework assumes one symbolic register per value. Run the
    /// webs/"right number of names" renaming first.
    MultipleDefs {
        /// The offending register.
        reg: Reg,
    },
    /// A register is defined in the block but the block also sees it
    /// live-in (a block-local analysis cannot name both values).
    DefShadowsLiveIn {
        /// The offending register.
        reg: Reg,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::MultipleDefs { reg } => {
                write!(f, "register {reg} defined more than once in the block")
            }
            ProblemError::DefShadowsLiveIn { reg } => {
                write!(f, "register {reg} is both live-in and defined in the block")
            }
        }
    }
}

impl Error for ProblemError {}

impl BlockAllocProblem {
    /// Builds the problem for `block_id` of `func` using `liveness`.
    ///
    /// # Errors
    /// Returns [`ProblemError`] if the block violates the single-definition
    /// discipline for symbolic registers.
    pub fn build(
        func: &Function,
        block_id: BlockId,
        liveness: &Liveness,
    ) -> Result<BlockAllocProblem, ProblemError> {
        Self::build_live_out(func, block_id, liveness.live_out(block_id))
    }

    /// [`BlockAllocProblem::build`] from the block's live-out set alone:
    /// liveness inside the block is one backward scan over bit sets indexed
    /// by register, so no whole-function analysis is needed. A single-block
    /// function has nothing live out.
    ///
    /// # Errors
    /// Returns [`ProblemError`] if the block violates the single-definition
    /// discipline for symbolic registers.
    pub fn build_live_out(
        func: &Function,
        block_id: BlockId,
        live_out: &BTreeSet<Reg>,
    ) -> Result<BlockAllocProblem, ProblemError> {
        const NONE: u32 = u32::MAX;
        let block = func.block(block_id);
        let insts = block.insts();
        let body_len = block.body().len();

        // Dense register ids in `Reg` order, so bit-set iteration visits
        // registers in the order of a `BTreeSet<Reg>`.
        let mut regs: Vec<Reg> = live_out.iter().copied().collect();
        let mut defs_arena: Vec<Reg> = Vec::new();
        let mut uses_arena: Vec<Reg> = Vec::new();
        let mut defs_idx: Vec<usize> = Vec::with_capacity(insts.len() + 1);
        let mut uses_idx: Vec<usize> = Vec::with_capacity(insts.len() + 1);
        defs_idx.push(0);
        uses_idx.push(0);
        for inst in insts {
            inst.defs_into(&mut defs_arena);
            inst.uses_into(&mut uses_arena);
            defs_idx.push(defs_arena.len());
            uses_idx.push(uses_arena.len());
        }
        regs.extend_from_slice(&defs_arena);
        regs.extend_from_slice(&uses_arena);
        regs.sort_unstable();
        regs.dedup();
        let id = |r: &Reg| match regs.binary_search(r) {
            Ok(k) => k,
            Err(_) => unreachable!("every operand was interned"),
        };
        let defs_ids: Vec<usize> = defs_arena.iter().map(id).collect();
        let uses_ids: Vec<usize> = uses_arena.iter().map(id).collect();
        let defs = |i: usize| &defs_ids[defs_idx[i]..defs_idx[i + 1]];
        let uses = |i: usize| &uses_ids[uses_idx[i]..uses_idx[i + 1]];

        // Backward scan, terminator included: `live` holds the registers
        // live right after instruction `i`. Each body definition's
        // (def, live-after) pairs are recorded in `pairs[segment[i]..]` and
        // replayed in program order below, the order the graph's neighbor
        // lists depend on.
        let mut live = BitSet::new(regs.len());
        for r in live_out {
            live.insert(id(r));
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut segment = vec![(0, 0); body_len];
        for i in (0..insts.len()).rev() {
            if i < body_len {
                let start = pairs.len();
                for &d in defs(i) {
                    pairs.extend(live.iter().filter(|&o| o != d).map(|o| (d, o)));
                }
                segment[i] = (start, pairs.len());
            }
            for &d in defs(i) {
                live.remove(d);
            }
            for &u in uses(i) {
                live.insert(u);
            }
        }

        // Enumerate nodes: live-in values first (register order), then body
        // definitions in program order.
        let mut nodes: Vec<Reg> = Vec::new();
        let mut node_of_id: Vec<u32> = vec![NONE; regs.len()];
        let mut def_site: Vec<Option<usize>> = Vec::new();
        for r in live.iter() {
            node_of_id[r] = nodes.len() as u32;
            nodes.push(regs[r]);
            def_site.push(None);
        }
        let live_in_count = nodes.len();
        for i in 0..body_len {
            for &d in defs(i) {
                let existing = node_of_id[d];
                if existing != NONE {
                    let reg = regs[d];
                    return Err(if def_site[existing as usize].is_none() {
                        ProblemError::DefShadowsLiveIn { reg }
                    } else {
                        ProblemError::MultipleDefs { reg }
                    });
                }
                node_of_id[d] = nodes.len() as u32;
                nodes.push(regs[d]);
                def_site.push(Some(i));
            }
        }

        // Count uses for spill costs (terminator uses count too).
        let mut uses_count = vec![0u32; nodes.len()];
        for &u in &uses_ids {
            if node_of_id[u] != NONE {
                uses_count[node_of_id[u] as usize] += 1;
            }
        }

        // Interference: live-in values are all simultaneously live at
        // entry; each definition interferes with the values live right
        // after its instruction.
        let mut interference = UnGraph::new(nodes.len());
        for u in 0..live_in_count {
            for v in u + 1..live_in_count {
                interference.add_edge(u, v);
            }
        }
        for &(start, end) in &segment {
            for &(d, o) in &pairs[start..end] {
                let (n, m) = (node_of_id[d], node_of_id[o]);
                if m != NONE {
                    interference.add_edge(n as usize, m as usize);
                }
            }
        }

        Ok(BlockAllocProblem {
            block: block_id,
            nodes,
            regs,
            node_of_id,
            def_site,
            uses_count,
            interference,
        })
    }

    /// The block this problem describes.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Allocation vertices: the register each node names.
    pub fn nodes(&self) -> &[Reg] {
        &self.nodes
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the problem has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for register `r`, if `r` is live-in or defined here.
    pub fn node_of(&self, r: Reg) -> Option<usize> {
        let k = self.regs.binary_search(&r).ok()?;
        let n = self.node_of_id[k];
        (n != u32::MAX).then_some(n as usize)
    }

    /// The body-instruction index defining node `n`, or `None` for live-in
    /// values.
    pub fn def_site(&self, n: usize) -> Option<usize> {
        self.def_site[n]
    }

    /// The node defined by body instruction `i`, if any.
    pub fn node_defined_at(&self, i: usize) -> Option<usize> {
        // def_site is monotone over the trailing section; linear scan is
        // fine at block scale.
        (0..self.nodes.len()).find(|&n| self.def_site[n] == Some(i))
    }

    /// Number of uses of node `n` within the block (terminator included).
    pub fn uses_count(&self, n: usize) -> u32 {
        self.uses_count[n]
    }

    /// The paper's spill-cost numerator: a value that is defined and used
    /// often is expensive to keep in memory. Block-level: `1 + uses`.
    pub fn spill_cost(&self, n: usize) -> f64 {
        1.0 + f64::from(self.uses_count[n])
    }

    /// The interference graph `Gr` over the vertices.
    pub fn interference(&self) -> &UnGraph {
        &self.interference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;

    /// The problem as the original builder derived it, kept as the oracle
    /// for the dense one: whole-function liveness, one cloned
    /// `BTreeSet<Reg>` per instruction, and a hash map from register to
    /// node. Returns the nodes, def sites, use counts and neighbor lists.
    type Reference = (Vec<Reg>, Vec<Option<usize>>, Vec<u32>, Vec<Vec<usize>>);

    fn reference_build(
        func: &Function,
        block_id: BlockId,
        liveness: &Liveness,
    ) -> Result<Reference, ProblemError> {
        use std::collections::HashMap;
        let block = func.block(block_id);
        let body = block.body();
        let live_in = liveness.live_in(block_id);
        let mut nodes: Vec<Reg> = Vec::new();
        let mut node_of_reg: HashMap<Reg, usize> = HashMap::new();
        let mut def_site: Vec<Option<usize>> = Vec::new();
        for &r in live_in {
            node_of_reg.insert(r, nodes.len());
            nodes.push(r);
            def_site.push(None);
        }
        for (i, inst) in body.iter().enumerate() {
            for d in inst.defs() {
                if let Some(&existing) = node_of_reg.get(&d) {
                    return Err(if def_site[existing].is_none() {
                        ProblemError::DefShadowsLiveIn { reg: d }
                    } else {
                        ProblemError::MultipleDefs { reg: d }
                    });
                }
                node_of_reg.insert(d, nodes.len());
                nodes.push(d);
                def_site.push(Some(i));
            }
        }
        let mut uses_count = vec![0u32; nodes.len()];
        for inst in block.insts() {
            for u in inst.uses() {
                if let Some(&n) = node_of_reg.get(&u) {
                    uses_count[n] += 1;
                }
            }
        }
        let mut g = UnGraph::new(nodes.len());
        let per_inst = liveness.per_inst_live_out(func, block_id);
        let live_in_nodes: Vec<usize> = live_in.iter().map(|r| node_of_reg[r]).collect();
        for (a, &u) in live_in_nodes.iter().enumerate() {
            for &v in &live_in_nodes[a + 1..] {
                g.add_edge(u, v);
            }
        }
        for (i, inst) in body.iter().enumerate() {
            for d in inst.defs() {
                let n = node_of_reg[&d];
                for other in &per_inst[i] {
                    if let Some(&o) = node_of_reg.get(other) {
                        if o != n {
                            g.add_edge(n, o);
                        }
                    }
                }
            }
        }
        let neighbors = (0..nodes.len()).map(|u| g.neighbors(u).to_vec()).collect();
        Ok((nodes, def_site, uses_count, neighbors))
    }

    /// Asserts that the dense builder reproduces the reference on every
    /// block of `func`: nodes, def sites, use counts, neighbor-list order,
    /// `node_of`, and the error on blocks outside the single-def discipline.
    /// Returns how many blocks with values live out were compared.
    fn assert_matches_reference(func: &Function, what: &str) -> usize {
        let liveness = Liveness::compute(func, &[]);
        let mut live_out_blocks = 0;
        for b in 0..func.block_count() {
            let id = BlockId(b);
            let got = BlockAllocProblem::build(func, id, &liveness);
            let want = reference_build(func, id, &liveness);
            assert_eq!(got.as_ref().err(), want.as_ref().err(), "{what} block {b}");
            let (Ok(p), Ok((nodes, def_site, uses_count, neighbors))) = (got, want) else {
                continue;
            };
            assert_eq!(p.nodes(), &nodes[..], "{what} block {b}: nodes");
            for (n, &r) in nodes.iter().enumerate() {
                assert_eq!(p.node_of(r), Some(n), "{what} block {b}: node_of");
                assert_eq!(p.def_site(n), def_site[n], "{what} block {b}: def_site");
                assert_eq!(p.uses_count(n), uses_count[n], "{what} block {b}: uses");
                let got = p.interference().neighbors(n);
                assert_eq!(got, &neighbors[n][..], "{what} block {b}: neighbors({n})");
            }
            assert_eq!(p.node_of(Reg::sym(u32::MAX)), None);
            if !liveness.live_out(id).is_empty() {
                live_out_blocks += 1;
            }
        }
        live_out_blocks
    }

    mod differential {
        use super::assert_matches_reference;
        use crate::spill::insert_spill_code;
        use parsched_ir::{parse_module, BlockId, Function, Reg};
        use parsched_telemetry::NullTelemetry;
        use parsched_workload::{random_cfg_function, random_dag_function, CfgParams, DagParams};

        #[test]
        fn random_dags_across_spill_rounds() {
            for seed in 0..16u64 {
                let params = DagParams {
                    size: 12 + (seed as usize % 4) * 12,
                    window: 2 + (seed as usize % 5) * 5,
                    ..DagParams::default()
                };
                let mut f = random_dag_function(seed, &params);
                let mut next_slot = 0;
                // Spill every third defined register per round, as the
                // allocator's rounds would, so reload temporaries and
                // store-fed point ranges appear.
                for round in 0..4 {
                    assert_matches_reference(&f, &format!("dag {seed} round {round}"));
                    let mut defs: Vec<Reg> = f
                        .block(BlockId(0))
                        .insts()
                        .iter()
                        .flat_map(|i| i.defs())
                        .collect();
                    defs.retain(|r| r.as_sym().is_some_and(|s| s.0 % 3 == round % 3));
                    f = insert_spill_code(&f, BlockId(0), &defs, &mut next_slot, &NullTelemetry).0;
                }
            }
        }

        #[test]
        fn multi_block_functions_with_live_out_values() {
            let mut live_out_blocks = 0;
            for seed in 0..16u64 {
                let params = CfgParams {
                    segments: 2 + seed as usize % 4,
                    ops_per_block: 3 + seed as usize % 3,
                };
                let f = random_cfg_function(seed, &params);
                live_out_blocks += assert_matches_reference(&f, &format!("cfg {seed}"));
            }
            assert!(
                live_out_blocks > 0,
                "no block with live-out values compared"
            );
        }

        #[test]
        fn fuzz_corpus_and_examples() -> Result<(), Box<dyn std::error::Error>> {
            let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
            let mut cases = 0;
            for dir in ["ci/fuzz-corpus", "examples"] {
                for entry in std::fs::read_dir(format!("{root}/{dir}"))? {
                    let path = entry?.path();
                    if path.extension().is_some_and(|e| e == "psc") {
                        let funcs: Vec<Function> = parse_module(&std::fs::read_to_string(&path)?)?;
                        for f in &funcs {
                            assert_matches_reference(f, &path.display().to_string());
                        }
                        cases += 1;
                    }
                }
            }
            assert!(cases > 0, "no .psc cases found under {root}");
            Ok(())
        }
    }

    fn problem(src: &str) -> BlockAllocProblem {
        let f = parse_function(src).unwrap();
        let lv = Liveness::compute(&f, &[]);
        BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap()
    }

    #[test]
    fn example1_interference_matches_figure2c() {
        // Example 1(b); Figure 2(c) shows Gr with edges s1-s2, s1-s3, s1-s4.
        let p = problem(
            r#"
            func @ex1(s9) {
            entry:
                s1 = load [@z + 0]
                s2 = fadd s9, 0
                s3 = load [s2 + 0]
                s4 = add s1, s1
                s5 = mul s3, s1
                ret s5
            }
            "#,
        );
        let g = p.interference();
        let n = |r: u32| p.node_of(Reg::sym(r)).unwrap();
        // s1 is live across s2, s3, s4 definitions.
        assert!(g.has_edge(n(1), n(2)));
        assert!(g.has_edge(n(1), n(3)));
        assert!(g.has_edge(n(1), n(4)));
        // s2 dies at s3's def (last use not in interval): no s2-s3 edge.
        assert!(!g.has_edge(n(2), n(3)));
        // s3 dies at s5's def; s4 and s3 overlap (s3 live after s4's def).
        assert!(g.has_edge(n(3), n(4)));
        assert!(!g.has_edge(n(3), n(5)));
        // s5 defined after everything died except nothing: isolated.
        assert_eq!(g.degree(n(5)), 0);
    }

    #[test]
    fn live_in_values_form_clique() {
        let p = problem(
            r#"
            func @li(s0, s1, s2) {
            entry:
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
            "#,
        );
        let g = p.interference();
        let n = |r: u32| p.node_of(Reg::sym(r)).unwrap();
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(0), n(2)));
        assert!(g.has_edge(n(1), n(2)));
        // s3 defined while s2 still live.
        assert!(g.has_edge(n(3), n(2)));
        assert!(!g.has_edge(n(3), n(0)), "s0 dead after s3's def");
    }

    #[test]
    fn def_sites_and_costs() {
        let p = problem(
            r#"
            func @c(s0) {
            entry:
                s1 = add s0, s0
                s2 = add s1, s1
                ret s2
            }
            "#,
        );
        let s0 = p.node_of(Reg::sym(0)).unwrap();
        let s1 = p.node_of(Reg::sym(1)).unwrap();
        assert_eq!(p.def_site(s0), None);
        assert_eq!(p.def_site(s1), Some(0));
        assert_eq!(p.node_defined_at(0), Some(s1));
        assert_eq!(p.uses_count(s0), 2);
        assert_eq!(p.uses_count(s1), 2);
        assert!(p.spill_cost(s0) > 2.9);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn rejects_double_definition() {
        let f = parse_function(
            r#"
            func @dd() {
            entry:
                s0 = li 1
                s0 = li 2
                ret s0
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let err = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap_err();
        assert_eq!(err, ProblemError::MultipleDefs { reg: Reg::sym(0) });
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn rejects_def_shadowing_live_in() {
        let f = parse_function(
            r#"
            func @sh(s0) {
            entry:
                s1 = add s0, 1
                s0 = li 2
                s2 = add s0, s1
                ret s2
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let err = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap_err();
        assert_eq!(err, ProblemError::DefShadowsLiveIn { reg: Reg::sym(0) });
    }
}
