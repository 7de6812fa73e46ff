//! The sets `Et` and `Ef` of Pinter's construction, and detection of false
//! dependences introduced by register allocation.
//!
//! For a basic block with schedule graph `Gs` (symbolic registers, so no
//! register anti/output dependences exist):
//!
//! * `Et` = the edges of the transitive closure of `Gs` with directions
//!   removed, **plus** all non-precedence machine constraints (pairs that
//!   can never issue in the same cycle, e.g. two ops on a single shared
//!   unit);
//! * `Ef` = the complement of `Et`: exactly the pairs that *can* be
//!   scheduled together (**Lemma 1** — an edge `(u,v)` of a post-allocation
//!   scheduling graph is a false dependence iff `{u,v} ∈ Ef`).

use crate::deps::{DepEdge, DepGraph, DepKind};
use parsched_graph::{FastMap, Reachability, UnGraph, DEADLINE_STRIDE};
use parsched_ir::{Block, Inst, Reg};
use parsched_machine::MachineDesc;
use std::time::Instant;

/// Builds `Et` for a block body: undirected transitive closure of the
/// dependence graph plus pairwise machine constraints, reporting its edge
/// count to `telemetry`.
///
/// `deps` should be built from *symbolic* code (the paper's `Gs`); building
/// it from allocated code would bake the allocation's false dependences
/// into `Et` and defeat the analysis.
pub fn et_graph(
    deps: &DepGraph,
    machine: &MachineDesc,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> UnGraph {
    let _span = parsched_telemetry::span(telemetry, "ef.et_build");
    let Some(et) = et_graph_until(deps, machine, None) else {
        unreachable!("et_graph_until without a deadline cannot trip")
    };
    if telemetry.enabled() {
        telemetry.counter("ef.et_edges", et.edge_count() as u64);
    }
    et
}

/// [`et_graph`] with a cooperative deadline: both the transitive closure
/// and the O(n²) row loops poll `deadline` and return `None` once it
/// passes, bounding overshoot to a row of work rather than the whole
/// quadratic build.
pub fn et_graph_until(
    deps: &DepGraph,
    machine: &MachineDesc,
    deadline: Option<Instant>,
) -> Option<UnGraph> {
    let reach = Reachability::build(deps.graph(), deadline)?;
    let n = deps.len();
    let mut et = UnGraph::new(n);
    for u in 0..n {
        // Unlike the closure's cheap row propagation (polled every
        // DEADLINE_STRIDE units of work), each row here enumerates the
        // closure row and makes O(n) pairwise_conflict calls, so one
        // clock read per row is already invisible.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        for v in reach.row_iter(u) {
            if v != u && !et.has_edge(u, v) {
                et.add_edge(u.min(v), u.max(v));
            }
        }
        for v in (u + 1)..n {
            if machine.pairwise_conflict(deps.class(u), deps.class(v)) {
                et.add_edge(u, v);
            }
        }
    }
    Some(et)
}

/// Builds the false-dependence graph `Ef`: the complement of [`et_graph`].
/// Its edges are exactly the instruction pairs that can issue in the same
/// cycle given the symbolic code and the machine.
///
/// # Examples
///
/// ```
/// use parsched_ir::{parse_function, BlockId};
/// use parsched_machine::presets;
/// use parsched_sched::{falsedep, DepGraph};
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = fadd s0, 2\n    ret s2\n}",
/// )?;
/// let deps = DepGraph::build(f.block(BlockId(0)), &parsched_telemetry::NullTelemetry);
/// let ef = falsedep::false_dependence_graph(
///     &deps,
///     &presets::paper_machine(8),
///     &parsched_telemetry::NullTelemetry,
/// );
/// assert!(ef.has_edge(0, 1), "int and float ops may co-issue");
/// # Ok::<(), parsched_ir::ParseError>(())
/// ```
pub fn false_dependence_graph(
    deps: &DepGraph,
    machine: &MachineDesc,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> UnGraph {
    let _span = parsched_telemetry::span(telemetry, "ef.build");
    let ef = et_graph(deps, machine, telemetry).complement();
    if telemetry.enabled() {
        telemetry.counter("ef.edges", ef.edge_count() as u64);
    }
    ef
}

/// Returns the register output dependences of `alloc_deps` (the
/// dependence graph of the *allocated* block) that are **false**: their
/// endpoints could have issued together according to `ef` (built from the
/// symbolic block via [`false_dependence_graph`]). The output dependences
/// are those of the paper's full relation ([`DepGraph::output_pairs`]),
/// sorted by `(from, to)`. Anti dependences are excluded by the paper's
/// footnote semantics — a last use and the reuse of its register may share
/// a cycle, so they cost no parallelism.
///
/// Both blocks must have identical instruction order (allocation renames
/// registers in place), so body indices correspond.
pub fn introduced_false_deps(ef: &UnGraph, alloc_deps: &DepGraph) -> Vec<DepEdge> {
    let mut out: Vec<DepEdge> = alloc_deps
        .output_pairs()
        .filter(|&(from, to)| ef.has_edge(from, to))
        .map(|(from, to)| DepEdge {
            from,
            to,
            kind: DepKind::Output,
        })
        .collect();
    out.sort_unstable_by_key(|e| (e.from, e.to));
    out
}

/// Renames the registers of `block` *apart*: every definition gets a fresh
/// symbolic register and every use reads the most recent definition of its
/// register (values live into the block get fresh names at entry). The
/// result is the block's single-definition symbolic form — the code "as if
/// an unbounded number of symbolic registers" were available — whose
/// schedule graph has no register anti/output dependences.
pub fn rename_apart(block: &Block) -> Block {
    let mut out = Block::new(block.label());
    let mut fresh: u32 = 0;
    let mut current: FastMap<Reg, Reg> = FastMap::default();
    // Per-instruction renamings are a handful of operands, so small
    // association lists beat hashing.
    let mut regs: Vec<Reg> = Vec::new();
    let mut use_map: Vec<(Reg, Reg)> = Vec::new();
    let mut def_map: Vec<(Reg, Reg)> = Vec::new();
    for inst in block.insts() {
        // Uses first (they read the incoming names) …
        use_map.clear();
        inst.uses_into(&mut regs);
        for u in regs.drain(..) {
            let name = *current.entry(u).or_insert_with(|| {
                let r = Reg::sym(fresh);
                fresh += 1;
                r
            });
            use_map.push((u, name));
        }
        // … then defs (they bind new names); the rewrite below is
        // role-aware because a register may be both read and written by
        // one instruction (e.g. `r1 = add r1, 1`).
        def_map.clear();
        inst.defs_into(&mut regs);
        for d in regs.drain(..) {
            let r = Reg::sym(fresh);
            fresh += 1;
            match def_map.iter_mut().find(|(k, _)| *k == d) {
                Some(entry) => entry.1 = r,
                None => def_map.push((d, r)),
            }
        }
        let mut renamed = inst.clone();
        rewrite_roles(&mut renamed, &def_map, &use_map);
        for &(d, r) in &def_map {
            current.insert(d, r);
        }
        out.push(renamed);
    }
    out
}

/// The name `r` maps to in the association list `map` (itself if absent).
fn renamed(map: &[(Reg, Reg)], r: Reg) -> Reg {
    map.iter().find(|(k, _)| *k == r).map_or(r, |&(_, to)| to)
}

fn rewrite_roles(inst: &mut Inst, def_map: &[(Reg, Reg)], use_map: &[(Reg, Reg)]) {
    use parsched_ir::{AddrBase, InstKind, Operand};
    let u = |r: Reg| renamed(use_map, r);
    let d = |r: &mut Reg| *r = renamed(def_map, *r);
    match inst.kind_mut() {
        InstKind::LoadImm { dst, .. } => d(dst),
        InstKind::Binary { dst, lhs, rhs, .. } => {
            if let Operand::Reg(r) = lhs {
                *r = u(*r);
            }
            if let Operand::Reg(r) = rhs {
                *r = u(*r);
            }
            d(dst);
        }
        InstKind::Unary { dst, src, .. } | InstKind::Copy { dst, src } => {
            *src = u(*src);
            d(dst);
        }
        InstKind::Load { dst, addr, .. } => {
            if let AddrBase::Reg(r) = &mut addr.base {
                *r = u(*r);
            }
            d(dst);
        }
        InstKind::Store { src, addr, .. } => {
            *src = u(*src);
            if let AddrBase::Reg(r) = &mut addr.base {
                *r = u(*r);
            }
        }
        InstKind::Branch { lhs, rhs, .. } => {
            *lhs = u(*lhs);
            if let Operand::Reg(r) = rhs {
                *r = u(*r);
            }
        }
        InstKind::Call { dsts, args, .. } => {
            for a in args.iter_mut() {
                *a = u(*a);
            }
            dsts.iter_mut().for_each(d);
        }
        InstKind::Ret { value } => {
            if let Some(v) = value {
                *v = u(*v);
            }
        }
        InstKind::Jump { .. } | InstKind::Nop => {}
    }
}

/// Counts the false dependences of `block` intrinsically: the block is
/// renamed apart to recover its symbolic form, `Ef` is built from that
/// form, and the block's own register output dependences are tested
/// against it. Zero for any code produced by PIG coloring with enough
/// registers (Theorem 1).
pub fn count_false_deps(block: &Block, machine: &MachineDesc) -> usize {
    let quiet = parsched_telemetry::NullTelemetry;
    let own_deps = DepGraph::build(block, &quiet);
    match count_false_deps_in(block, &own_deps, machine, None, &quiet) {
        Some(n) => n,
        None => unreachable!("count_false_deps_in without a deadline cannot trip"),
    }
}

/// [`count_false_deps`] over `own_deps`, the caller's dependence graph of
/// `block` itself (a pipeline builds it once and schedules from it too),
/// with a cooperative deadline: the symbolic dependence graph and its
/// closure poll `deadline` and the count returns `None` once it passes, so
/// a caller inside a budgeted pipeline phase overshoots by at most one
/// stride of work rather than the whole analysis. Each step reports to
/// `telemetry` as a span: `falsedep.rename`, the symbolic `deps.build`,
/// its `closure.build`, and `falsedep.test_edges`.
///
/// Unlike [`et_graph`], this never materializes `Et`/`Ef`: each candidate
/// dependence edge is tested directly against the reachability relation
/// and the machine's pairwise constraints (`{u,v} ∈ Ef ⇔ u ≁ v in the
/// closure and `u`,`v` have no issue conflict`), turning the former two
/// O(n²) graph builds into O(deps) point queries.
pub fn count_false_deps_in(
    block: &Block,
    own_deps: &DepGraph,
    machine: &MachineDesc,
    deadline: Option<Instant>,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Option<usize> {
    let renamed = {
        let _span = parsched_telemetry::span(telemetry, "falsedep.rename");
        rename_apart(block)
    };
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return None;
    }
    let sym_deps = DepGraph::build_until(&renamed, telemetry, deadline)?;
    let reach = {
        let _span = parsched_telemetry::span(telemetry, "closure.build");
        Reachability::build(sym_deps.graph(), deadline)?
    };
    count_false_edges(own_deps, &reach, machine, deadline, telemetry)
}

/// The test at the heart of [`count_false_deps_in`]: counts the register
/// output dependences of `own_deps` — [`DepGraph::output_pairs`], found by
/// walking each register's def chain — whose endpoints `symbolic` (the
/// closure of the dependence graph of the block's symbolic form) leaves
/// unordered and the machine lets issue together. Polls `deadline` every
/// [`DEADLINE_STRIDE`] pairs and returns `None` once it passes.
pub fn count_false_edges(
    own_deps: &DepGraph,
    symbolic: &Reachability,
    machine: &MachineDesc,
    deadline: Option<Instant>,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Option<usize> {
    let _span = parsched_telemetry::span(telemetry, "falsedep.test_edges");
    let tripped = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    let mut count = 0;
    for (i, (u, v)) in own_deps.output_pairs().enumerate() {
        if i % DEADLINE_STRIDE == DEADLINE_STRIDE - 1 && tripped(deadline) {
            return None;
        }
        if !symbolic.reaches(u, v)
            && !symbolic.reaches(v, u)
            && !machine.pairwise_conflict(own_deps.class(u), own_deps.class(v))
        {
            count += 1;
        }
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    const Q: parsched_telemetry::NullTelemetry = parsched_telemetry::NullTelemetry;

    fn block(src: &str) -> parsched_ir::Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    /// The paper's Example 1(b): symbolic code. `s2 := i` is modeled as a
    /// float-unit copy (`fadd s9, 0`) so that — as in the paper's
    /// walk-through — it contends with neither the fetch unit (it may pair
    /// with `load z`) nor the fixed-point unit (it may pair with the add).
    fn example1_sym() -> parsched_ir::Block {
        block(
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
        )
    }

    /// Example 1(c): the paper's allocation that reuses r1, r2 and creates
    /// a false dependence between instructions 1 and 3 (s2/s4 → r2).
    fn example1_bad_alloc() -> parsched_ir::Block {
        block(
            r#"
            func @ex1c(r9) {
            entry:
                r1 = load [@z + 0]
                r2 = fadd r9, 0
                r3 = load [r2 + 0]
                r2 = add r1, r1
                r1 = mul r3, r1
                ret r1
            }
            "#,
        )
    }

    /// A machine like the paper's walk-through for Example 1: loads share
    /// one fetch unit, fixed ops share one fixed unit.
    fn machine() -> parsched_machine::MachineDesc {
        presets::paper_machine(8)
    }

    #[test]
    fn ef_contains_parallel_pairs_of_example1() {
        let deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&deps, &machine(), &Q);
        // The paper (Figure 2): false-dependence (parallelizable) pairs
        // include {s1,s2} (0,1), {s2,s4} (1,3), {s3,s4} (2,3).
        assert!(ef.has_edge(0, 1), "load z ∥ li");
        assert!(ef.has_edge(1, 3), "li ∥ add");
        assert!(ef.has_edge(2, 3), "load a[i] ∥ add");
        // Dependent or machine-conflicting pairs are not in Ef:
        assert!(!ef.has_edge(1, 2), "flow dependence s2→s3");
        assert!(!ef.has_edge(0, 2), "two loads share the fetch unit");
        assert!(!ef.has_edge(2, 4), "flow dependence s3→s5");
    }

    #[test]
    fn et_includes_machine_constraints() {
        let deps = DepGraph::build(&example1_sym(), &Q);
        let et = et_graph(&deps, &machine(), &Q);
        // {s1, s3}: both loads — machine constraint even though the paper's
        // figure also lists it among machine-dependent edges.
        assert!(et.has_edge(0, 2));
        // {s4, s5}: both fixed-point ops — the paper's other machine edge.
        assert!(et.has_edge(3, 4));
        // Transitive: s2 → s3 → s5 gives {s2, s5}.
        assert!(et.has_edge(1, 4));
    }

    #[test]
    fn paper_allocation_introduces_false_dep() {
        let sym_deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&sym_deps, &machine(), &Q);
        let alloc_deps = DepGraph::build(&example1_bad_alloc(), &Q);
        let false_deps = introduced_false_deps(&ef, &alloc_deps);
        // The paper: reuse of r2 forbids parallel execution of the second
        // and fourth instructions (indices 1 and 3).
        assert!(
            false_deps.iter().any(|e| e.from == 1 && e.to == 3),
            "expected the paper's false dependence 1→3, got {false_deps:?}"
        );
    }

    #[test]
    fn good_allocation_introduces_none() {
        // The paper's fix (Figure 3): the mapping s1-r1, s2-r2, s3-r2,
        // s4-r3, s5-r2 uses three registers and creates no false
        // dependence (s2 dies at s3's definition, so reusing r2 there is a
        // real flow, not a false anti).
        let alloc = block(
            r#"
            func @ex1good(r9) {
            entry:
                r1 = load [@z + 0]
                r2 = fadd r9, 0
                r2 = load [r2 + 0]
                r3 = add r1, r1
                r2 = mul r2, r1
                ret r2
            }
            "#,
        );
        let sym_deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&sym_deps, &machine(), &Q);
        let alloc_deps = DepGraph::build(&alloc, &Q);
        let false_deps = introduced_false_deps(&ef, &alloc_deps);
        assert!(
            false_deps.is_empty(),
            "paper's 3-register allocation is false-dependence-free, got {false_deps:?}"
        );
    }

    #[test]
    fn rename_apart_removes_reuse() {
        let b = example1_bad_alloc();
        let renamed = rename_apart(&b);
        let deps = DepGraph::build(&renamed, &Q);
        assert!(
            deps.edges().all(|e| !matches!(
                e.kind,
                crate::deps::DepKind::Anti | crate::deps::DepKind::Output
            )),
            "renamed block has no register anti/output deps"
        );
    }

    #[test]
    fn intrinsic_count_matches_reference_count() {
        let m = machine();
        assert_eq!(count_false_deps(&example1_bad_alloc(), &m), 1);
        let good = block(
            r#"
            func @ex1good(r9) {
            entry:
                r1 = load [@z + 0]
                r2 = fadd r9, 0
                r2 = load [r2 + 0]
                r3 = add r1, r1
                r2 = mul r2, r1
                ret r2
            }
            "#,
        );
        assert_eq!(count_false_deps(&good, &m), 0);
        // Symbolic code has none by construction.
        assert_eq!(count_false_deps(&example1_sym(), &m), 0);
    }

    #[test]
    fn single_issue_machine_has_empty_ef() {
        // On a single-issue machine nothing is parallelizable, so Ef = ∅ and
        // *no* allocation can introduce a false dependence.
        let deps = DepGraph::build(&example1_sym(), &Q);
        let ef = false_dependence_graph(&deps, &presets::single_issue(8), &Q);
        assert_eq!(ef.edge_count(), 0);
    }
}
