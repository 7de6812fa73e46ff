//! Dependence-graph construction for one basic block.

use parsched_graph::DiGraph;
use parsched_graph::{FastMap, FastSet};
use parsched_ir::{AddrBase, Block, Inst, InstKind, MemAddr, Reg};
use parsched_machine::{MachineDesc, OpClass};
use std::time::Instant;

/// The kind of a dependence edge, in the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Data flow dependence: "the register defined in u is used in v".
    Flow,
    /// Data anti-dependence: "a register used in u is later redefined in v".
    Anti,
    /// Data output dependence: "the register defined in u is redefined in v".
    Output,
    /// Memory flow (store → aliasing load).
    MemFlow,
    /// Memory anti (load → aliasing store).
    MemAnti,
    /// Memory output (store → aliasing store).
    MemOutput,
    /// Control / ordering constraint (calls act as barriers; the block
    /// terminator follows its body).
    Control,
}

impl DepKind {
    /// Whether this dependence can be a *false* dependence that actually
    /// restricts the scheduler.
    ///
    /// Register **output** dependences qualify: two definitions sharing a
    /// register can never issue in the same cycle. Register **anti**
    /// dependences do not: under the paper's footnote semantics (a live
    /// interval excludes its last use, reads precede writes within a
    /// cycle) a reader and the subsequent redefinition may share a cycle —
    /// this is exactly why the paper's Theorem 1 proof only has to argue
    /// about output dependences and dismisses anti dependences. Our
    /// scheduler gives anti edges zero latency, matching that semantics.
    pub fn is_register_false_candidate(self) -> bool {
        matches!(self, DepKind::Output)
    }
}

/// One dependence edge between body instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source body-instruction index.
    pub from: usize,
    /// Destination body-instruction index (always `> from`).
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
}

/// Maps an instruction to the machine operation class it occupies.
pub fn op_class(inst: &Inst) -> OpClass {
    match inst.kind() {
        InstKind::LoadImm { .. } | InstKind::Copy { .. } => OpClass::IntAlu,
        InstKind::Binary { op, .. } => {
            if op.is_float() {
                OpClass::FloatAlu
            } else {
                OpClass::IntAlu
            }
        }
        InstKind::Unary { op, .. } => {
            if op.is_float() {
                OpClass::FloatAlu
            } else {
                OpClass::IntAlu
            }
        }
        InstKind::Load { .. } => OpClass::MemLoad,
        InstKind::Store { .. } => OpClass::MemStore,
        InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. } => OpClass::Branch,
        InstKind::Call { .. } => OpClass::Call,
        InstKind::Nop => OpClass::Nop,
    }
}

/// The dependence graph of one basic-block *body* (the terminator is
/// excluded; it is pinned last by every scheduler in this workspace).
///
/// # Examples
///
/// ```
/// use parsched_ir::parse_function;
/// use parsched_sched::{DepGraph, DepKind};
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s1, s1\n    ret s2\n}",
/// )?;
/// let deps = DepGraph::build(
///     f.block(parsched_ir::BlockId(0)),
///     &parsched_telemetry::NullTelemetry,
/// );
/// assert_eq!(deps.kind(0, 1), Some(DepKind::Flow));
/// # Ok::<(), parsched_ir::ParseError>(())
/// ```
///
/// Built from program order, so every edge runs from an earlier body
/// index to a later one and index order is a topological order. Flow
/// edges are *killing*: a use depends on its register's latest earlier
/// def. Register output and anti edges are *reduced*: a def of `r` gets an
/// output edge only from `r`'s latest earlier def and anti edges only from
/// the uses of `r` since that def. The paper's literal relation also
/// orders a def after every older def and use of its register, but each
/// such pair is joined by a path through the intervening defs whose
/// latency is at least the dropped edge's own (an output hop costs 1, an
/// anti edge 0), so the transitive closure, every longest-path latency and
/// every list schedule are the same over both, while the reduced graph
/// stays linear in the block. Memory and control edges are kept in full.
/// When several kinds relate the same pair the strongest is kept, in the
/// order flow > control > memory flow > output > memory output > anti >
/// memory anti.
///
/// [`DepGraph::output_pairs`] recovers the pairs the full relation labels
/// [`DepKind::Output`] (every pair of defs of one register with no
/// stronger edge between them), which is what the false-dependence count
/// tests.
///
/// Edge kinds are stored flat, parallel to the adjacency lists:
/// [`DepGraph::succ_kinds`]`(u)[k]` is the kind of the edge
/// `u → graph().succs(u)[k]`. Edges are inserted in a fixed order — every
/// flow edge first (by consumer, then operand order), then every other
/// edge by `(to, from)` ascending — so `succs`/`preds` order, and with it
/// every scheduler tie-break, is a function of the block alone.
#[derive(Debug, Clone)]
pub struct DepGraph {
    graph: DiGraph,
    kind_start: Vec<usize>,
    kinds: Vec<DepKind>,
    classes: Vec<OpClass>,
    /// Each register's defining instructions, ascending, one register's
    /// chain after another.
    chains: Vec<u32>,
    /// `chain_end[s]`: the end (exclusive) of the chain holding slot `s`.
    chain_end: Vec<u32>,
    /// Whether an instruction defines two or more distinct registers (its
    /// def pairs can then repeat across chains).
    multi_def: Vec<bool>,
}

impl DepGraph {
    /// Builds the dependence graph of `block`'s body, reporting node/edge
    /// counts to `telemetry` (pass
    /// [`parsched_telemetry::NullTelemetry`] when observability is not
    /// needed).
    ///
    /// Register dependences (flow/anti/output) are found per the paper's
    /// definitions; memory dependences use [`parsched_ir::MemAddr::may_alias`]
    /// (same base + different offset proves independence); `call`s are
    /// barriers against all memory operations and each other.
    pub fn build(block: &Block, telemetry: &dyn parsched_telemetry::Telemetry) -> DepGraph {
        match Self::build_until(block, telemetry, None) {
            Some(deps) => deps,
            None => unreachable!("build_until without a deadline cannot trip"),
        }
    }

    /// [`DepGraph::build`] with a cooperative wall-clock deadline: the
    /// build polls the clock once per instruction and returns `None` as
    /// soon as `deadline` is in the past. Meant for statistics-only callers
    /// that would rather skip the graph than blow a compile budget on it.
    pub fn build_until(
        block: &Block,
        telemetry: &dyn parsched_telemetry::Telemetry,
        deadline: Option<Instant>,
    ) -> Option<DepGraph> {
        let _span = parsched_telemetry::span(telemetry, "deps.build");
        let deps = Self::build_impl(block, deadline)?;
        if telemetry.enabled() {
            telemetry.counter("deps.insts", deps.len() as u64);
            telemetry.counter("deps.edges", deps.graph.edge_count() as u64);
        }
        Some(deps)
    }

    fn build_impl(block: &Block, deadline: Option<Instant>) -> Option<DepGraph> {
        const NONE: u32 = u32::MAX;
        let body = block.body();
        let n = body.len();

        // Register operands as dense per-block ids, in two flat arenas
        // indexed by instruction (`defs(j)`, `uses(j)`).
        let mut reg_ids: FastMap<Reg, u32> = FastMap::default();
        let mut scratch: Vec<Reg> = Vec::new();
        let mut defs_arena: Vec<u32> = Vec::new();
        let mut uses_arena: Vec<u32> = Vec::new();
        let mut defs_idx: Vec<usize> = Vec::with_capacity(n + 1);
        let mut uses_idx: Vec<usize> = Vec::with_capacity(n + 1);
        defs_idx.push(0);
        uses_idx.push(0);
        let mut intern = |arena: &mut Vec<u32>, scratch: &mut Vec<Reg>| {
            for r in scratch.drain(..) {
                let next = reg_ids.len() as u32;
                arena.push(*reg_ids.entry(r).or_insert(next));
            }
        };
        for inst in body {
            inst.defs_into(&mut scratch);
            intern(&mut defs_arena, &mut scratch);
            inst.uses_into(&mut scratch);
            intern(&mut uses_arena, &mut scratch);
            defs_idx.push(defs_arena.len());
            uses_idx.push(uses_arena.len());
        }
        let defs = |i: usize| &defs_arena[defs_idx[i]..defs_idx[i + 1]];
        let uses = |i: usize| &uses_arena[uses_idx[i]..uses_idx[i + 1]];
        let mem_r: Vec<Option<&MemAddr>> = body.iter().map(Inst::mem_read).collect();
        let mem_w: Vec<Option<&MemAddr>> = body.iter().map(Inst::mem_write).collect();
        let is_call: Vec<bool> = body
            .iter()
            .map(|b| matches!(b.kind(), InstKind::Call { .. }))
            .collect();

        // `last_def[r]`: r's latest def among the instructions seen so far.
        // Uses of r form a chain over `uses_arena` occurrences: `use_head[r]`
        // is the latest, `use_prev[k]` the one before occurrence `k`, and
        // `use_inst[k]` its instruction.
        let nregs = reg_ids.len();
        let mut last_def = vec![NONE; nregs];
        let mut use_head = vec![NONE; nregs];
        let mut use_prev = vec![NONE; uses_arena.len()];
        let mut use_inst = vec![0u32; uses_arena.len()];
        let mut mem = MemIndex::default();

        // Per-consumer predecessor lists: flow predecessors in operand order,
        // then every other predecessor ascending with its strongest kind.
        let mut flow: Vec<u32> = Vec::new();
        let mut flow_end: Vec<usize> = Vec::with_capacity(n);
        let mut other: Vec<(u32, DepKind)> = Vec::new();
        let mut other_end: Vec<usize> = Vec::with_capacity(n);
        // Row scratch: `flow_row[i] == j` marks a flow edge i → j, `best[i]`
        // holds the strongest other kind found for i → j, and `row_bits`
        // marks those i so the row drains in ascending order without a sort.
        let mut flow_row = vec![usize::MAX; n];
        let mut best: Vec<Option<DepKind>> = vec![None; n];
        let mut row_bits = vec![0u64; n.div_ceil(64)];
        let mut out_degree = vec![0usize; n];
        let mut in_degree: Vec<usize> = Vec::with_capacity(n);

        for j in 0..n {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let (flow_start, other_start) = (flow.len(), other.len());
            // Flow dependences are *killing*: a use depends on the most
            // recent definition of its register, not on stale earlier ones
            // (an intervening redefinition yields output + flow edges whose
            // transitive combination preserves ordering).
            for &u in uses(j) {
                let i = last_def[u as usize];
                if i != NONE {
                    let i = i as usize;
                    if flow_row[i] != j {
                        flow_row[i] = j;
                        flow.push(i as u32);
                        out_degree[i] += 1;
                    }
                }
            }
            flow_end.push(flow.len());

            let mut lowest_word = usize::MAX;
            let mut note = |i: usize, kind: DepKind| {
                if flow_row[i] == j {
                    return; // flow is the strongest kind
                }
                match best[i] {
                    None => {
                        best[i] = Some(kind);
                        row_bits[i / 64] |= 1 << (i % 64);
                        lowest_word = lowest_word.min(i / 64);
                    }
                    Some(old) if strength(kind) > strength(old) => best[i] = Some(kind),
                    Some(_) => {}
                }
            };
            // Reduced register dependences (see the type docs): output from
            // the latest def of each defined register, anti from its uses
            // since that def. A use by the def itself is already ordered by
            // the (stronger) output edge.
            for &d in defs(j) {
                let since = last_def[d as usize];
                if since != NONE {
                    note(since as usize, DepKind::Output);
                }
                let mut k = use_head[d as usize];
                while k != NONE {
                    let i = use_inst[k as usize];
                    if since != NONE && i <= since {
                        break;
                    }
                    note(i as usize, DepKind::Anti);
                    k = use_prev[k as usize];
                }
            }
            let (rj, wj) = (mem_r[j], mem_w[j]);
            let addr_j = rj.or(wj);
            if addr_j.is_some() || is_call[j] {
                mem.for_each_conflict(addr_j, is_call[j], |i| {
                    let (ri, wi) = (mem_r[i], mem_w[i]);
                    if wi.is_some() && rj.is_some() {
                        note(i, DepKind::MemFlow);
                    }
                    if ri.is_some() && wj.is_some() {
                        note(i, DepKind::MemAnti);
                    }
                    if wi.is_some() && wj.is_some() {
                        note(i, DepKind::MemOutput);
                    }
                    // Calls are barriers for memory and other calls.
                    if is_call[i] || is_call[j] {
                        note(i, DepKind::Control);
                    }
                });
                mem.insert(j, addr_j, is_call[j]);
            }
            if lowest_word != usize::MAX {
                // Every marked i is below j, so the row ends in word (j-1)/64.
                let words = &mut row_bits[lowest_word..=(j - 1) / 64];
                for (w, word) in (lowest_word..).zip(words) {
                    while *word != 0 {
                        let i = w * 64 + word.trailing_zeros() as usize;
                        *word &= *word - 1;
                        if let Some(kind) = best[i].take() {
                            other.push((i as u32, kind));
                            out_degree[i] += 1;
                        }
                    }
                }
            }
            other_end.push(other.len());
            in_degree.push(flow_end[j] + other_end[j] - flow_start - other_start);

            for &r in defs(j) {
                last_def[r as usize] = j as u32;
            }
            for k in uses_idx[j]..uses_idx[j + 1] {
                let r = uses_arena[k] as usize;
                use_prev[k] = use_head[r];
                use_inst[k] = j as u32;
                use_head[r] = k as u32;
            }
        }

        // Insert in the documented order (all flow edges, then the rest by
        // consumer), filling each edge's kind at its successor-list slot.
        let mut kind_start = Vec::with_capacity(n + 1);
        kind_start.push(0);
        for &d in &out_degree {
            kind_start.push(kind_start[kind_start.len() - 1] + d);
        }
        let mut kinds = vec![DepKind::Flow; flow.len() + other.len()];
        let mut slot: Vec<usize> = kind_start[..n].to_vec();
        let mut graph = DiGraph::with_degrees(&out_degree, &in_degree);
        let mut begin = 0;
        for (j, &end) in flow_end.iter().enumerate() {
            for &i in &flow[begin..end] {
                graph.add_edge(i as usize, j);
                slot[i as usize] += 1;
            }
            begin = end;
        }
        let mut begin = 0;
        for (j, &end) in other_end.iter().enumerate() {
            for &(i, kind) in &other[begin..end] {
                graph.add_edge(i as usize, j);
                kinds[slot[i as usize]] = kind;
                slot[i as usize] += 1;
            }
            begin = end;
        }

        let (chains, chain_end, multi_def) = def_chains(nregs, n, defs);
        Some(DepGraph {
            graph,
            kind_start,
            kinds,
            classes: body.iter().map(op_class).collect(),
            chains,
            chain_end,
            multi_def,
        })
    }

    /// The pairs `(a, b)`, `a < b`, that the paper's full relation labels
    /// [`DepKind::Output`]: `a` and `b` define a common register and no
    /// flow, control or memory-flow edge (the kinds stronger than output)
    /// joins them. Each pair is yielded once, grouped by register, then by
    /// `a` and `b` ascending. Only the consecutive defs of a register are
    /// output edges of this (reduced) graph; the other pairs are implied
    /// by paths through them.
    pub fn output_pairs(&self) -> OutputPairs<'_> {
        OutputPairs {
            deps: self,
            s: 0,
            t: 1,
            repeats: FastSet::default(),
        }
    }

    /// Number of body instructions.
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying directed graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The machine class of body instruction `i`.
    pub fn class(&self, i: usize) -> OpClass {
        self.classes[i]
    }

    /// All machine classes, indexed by body position.
    pub fn classes(&self) -> &[OpClass] {
        &self.classes
    }

    /// The kind of the edge `from → to`, if present. Scans `from`'s
    /// successor list; iterate [`DepGraph::out_edges`] instead when walking
    /// a node's edges.
    pub fn kind(&self, from: usize, to: usize) -> Option<DepKind> {
        if !self.graph.has_edge(from, to) {
            return None;
        }
        let pos = self.graph.succs(from).iter().position(|&v| v == to)?;
        Some(self.succ_kinds(from)[pos])
    }

    /// The kinds of `u`'s outgoing edges, parallel to `graph().succs(u)`.
    pub fn succ_kinds(&self, u: usize) -> &[DepKind] {
        &self.kinds[self.kind_start[u]..self.kind_start[u + 1]]
    }

    /// The edges leaving `u`, in successor-list order.
    pub fn out_edges(&self, u: usize) -> impl Iterator<Item = DepEdge> + '_ {
        self.graph
            .succs(u)
            .iter()
            .zip(self.succ_kinds(u))
            .map(move |(&to, &kind)| DepEdge { from: u, to, kind })
    }

    /// Iterates over all edges, grouped by source in successor-list order.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        (0..self.len()).flat_map(move |u| self.out_edges(u))
    }

    /// The latency an edge imposes on `machine`: `cycle(to) ≥ cycle(from) +
    /// edge_latency`.
    ///
    /// * flow / memory-flow: the producing class's result latency;
    /// * output / memory output: 1 (the later write must win);
    /// * register anti: 0 — a read and the overwriting write may share a
    ///   cycle (the paper's footnote about reusing a register in the
    ///   statement that last uses it; register files read before they
    ///   write within a cycle);
    /// * memory anti: 1 — memory ports are not assumed to order a load
    ///   before a same-cycle store to one address (spill-slot reuse
    ///   depends on this);
    /// * control: 1 for call barriers (calls are sequenced).
    pub fn edge_latency(&self, machine: &MachineDesc, edge: &DepEdge) -> u32 {
        match edge.kind {
            DepKind::Flow | DepKind::MemFlow => machine.latency(self.class(edge.from)),
            DepKind::Output | DepKind::MemOutput | DepKind::MemAnti => 1,
            DepKind::Anti => 0,
            DepKind::Control => 1,
        }
    }

    /// Critical-path height of each node on `machine`: the longest
    /// latency-weighted path from the node to any sink, counting the node's
    /// own latency. The classic list-scheduling priority.
    ///
    /// Every edge runs from an earlier index to a later one, so one
    /// backward pass in index order sees each node after all its
    /// successors.
    pub fn heights(&self, machine: &MachineDesc) -> Vec<u32> {
        let mut height = vec![0u32; self.len()];
        for u in (0..self.len()).rev() {
            let own = machine.latency(self.class(u)).max(1);
            let best_succ = self
                .out_edges(u)
                .map(|e| self.edge_latency(machine, &e) + height[e.to])
                .max()
                .unwrap_or(0);
            height[u] = own.max(best_succ);
        }
        height
    }
}

/// Iterator over [`DepGraph::output_pairs`].
pub struct OutputPairs<'a> {
    deps: &'a DepGraph,
    /// Slot of the pair's earlier def.
    s: usize,
    /// Slot of the pair's later def.
    t: usize,
    /// Pairs of multi-def instructions already yielded (only such pairs
    /// can share two registers).
    repeats: FastSet<(usize, usize)>,
}

impl Iterator for OutputPairs<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let d = self.deps;
        while self.s < d.chains.len() {
            if self.t >= d.chain_end[self.s] as usize {
                self.s += 1;
                self.t = self.s + 1;
                continue;
            }
            let (a, b) = (d.chains[self.s] as usize, d.chains[self.t] as usize);
            self.t += 1;
            if matches!(
                d.kind(a, b),
                Some(DepKind::Flow | DepKind::Control | DepKind::MemFlow)
            ) {
                continue;
            }
            if d.multi_def[a] && d.multi_def[b] && !self.repeats.insert((a, b)) {
                continue;
            }
            return Some((a, b));
        }
        None
    }
}

/// Groups the defs of a block by register: returns every register's
/// defining instructions (ascending, an instruction once per register
/// however often it names it), the chain end of each slot, and which
/// instructions define two or more distinct registers.
fn def_chains<'a>(
    nregs: usize,
    n: usize,
    defs: impl Fn(usize) -> &'a [u32],
) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
    const NONE: u32 = u32::MAX;
    let mut last = vec![NONE; nregs];
    let mut start = vec![0u32; nregs + 1];
    for j in 0..n {
        for &r in defs(j) {
            if last[r as usize] != j as u32 {
                last[r as usize] = j as u32;
                start[r as usize + 1] += 1;
            }
        }
    }
    for r in 0..nregs {
        start[r + 1] += start[r];
    }
    let total = start[nregs] as usize;
    let mut chains = vec![0u32; total];
    let mut chain_end = vec![0u32; total];
    let mut multi_def = vec![false; n];
    let mut fill = start[..nregs].to_vec();
    last.fill(NONE);
    for (j, multi) in multi_def.iter_mut().enumerate() {
        let mut distinct = 0;
        for &r in defs(j) {
            let r = r as usize;
            if last[r] != j as u32 {
                last[r] = j as u32;
                distinct += 1;
                chains[fill[r] as usize] = j as u32;
                chain_end[fill[r] as usize] = start[r + 1];
                fill[r] += 1;
            }
        }
        *multi = distinct > 1;
    }
    (chains, chain_end, multi_def)
}

/// The memory operations and calls seen so far in a block, indexed by
/// address so that each new operation visits only the earlier ones it may
/// conflict with, per [`MemAddr::may_alias`]: a global address aliases the
/// same global address and every register-based one; a register-based
/// address aliases every global one and the register-based ones
/// `may_alias` admits; a call conflicts with everything.
#[derive(Default)]
struct MemIndex<'a> {
    by_global: FastMap<(&'a str, i64), Vec<usize>>,
    globals: Vec<usize>,
    reg_based: Vec<(usize, &'a MemAddr)>,
    calls: Vec<usize>,
    all: Vec<usize>,
}

impl<'a> MemIndex<'a> {
    /// Calls `f` on every earlier operation that may conflict with an
    /// operation accessing `addr` (or being a call), in no fixed order.
    fn for_each_conflict(&self, addr: Option<&MemAddr>, is_call: bool, mut f: impl FnMut(usize)) {
        if is_call {
            self.all.iter().for_each(|&i| f(i));
            return;
        }
        let Some(addr) = addr else { return };
        match &addr.base {
            AddrBase::Global(name) => {
                if let Some(same) = self.by_global.get(&(name.as_str(), addr.offset)) {
                    same.iter().for_each(|&i| f(i));
                }
                self.reg_based.iter().for_each(|&(i, _)| f(i));
            }
            AddrBase::Reg(_) => {
                self.globals.iter().for_each(|&i| f(i));
                for &(i, other) in &self.reg_based {
                    if other.may_alias(addr) {
                        f(i);
                    }
                }
            }
        }
        self.calls.iter().for_each(|&i| f(i));
    }

    /// Records operation `j`, which accesses `addr` or is a call.
    fn insert(&mut self, j: usize, addr: Option<&'a MemAddr>, is_call: bool) {
        self.all.push(j);
        match addr.map(|a| (&a.base, a)) {
            Some((AddrBase::Global(name), a)) => {
                self.by_global
                    .entry((name.as_str(), a.offset))
                    .or_default()
                    .push(j);
                self.globals.push(j);
            }
            Some((AddrBase::Reg(_), a)) => self.reg_based.push((j, a)),
            None if is_call => self.calls.push(j),
            None => {}
        }
    }
}

fn strength(k: DepKind) -> u8 {
    match k {
        DepKind::Flow => 6,
        DepKind::Control => 5,
        DepKind::MemFlow => 4,
        DepKind::Output => 3,
        DepKind::MemOutput => 2,
        DepKind::Anti => 1,
        DepKind::MemAnti => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;

    fn block_of(src: &str) -> parsched_ir::Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    fn build(b: &parsched_ir::Block) -> DepGraph {
        DepGraph::build(b, &parsched_telemetry::NullTelemetry)
    }

    /// The original O(n²) pair-scan builder, kept as the oracle for the
    /// flat kernel: every pair `(i, j)` is tested for every dependence
    /// kind, and the strongest kind per pair lives in a hash map.
    fn pair_scan(block: &Block) -> (DiGraph, FastMap<(usize, usize), DepKind>) {
        let body = block.body();
        let n = body.len();
        let mut graph = DiGraph::new(n);
        let mut kinds: FastMap<(usize, usize), DepKind> = FastMap::default();
        let mut add = |graph: &mut DiGraph, from: usize, to: usize, kind: DepKind| {
            use std::collections::hash_map::Entry;
            match kinds.entry((from, to)) {
                Entry::Vacant(e) => {
                    graph.add_edge(from, to);
                    e.insert(kind);
                }
                Entry::Occupied(mut e) => {
                    if strength(kind) > strength(*e.get()) {
                        e.insert(kind);
                    }
                }
            }
        };
        let defs: Vec<Vec<Reg>> = body.iter().map(Inst::defs).collect();
        let uses: Vec<Vec<Reg>> = body.iter().map(Inst::uses).collect();
        let is_call = |i: usize| matches!(body[i].kind(), InstKind::Call { .. });
        let mut last_def: FastMap<Reg, usize> = FastMap::default();
        for j in 0..n {
            for u in &uses[j] {
                if let Some(&i) = last_def.get(u) {
                    add(&mut graph, i, j, DepKind::Flow);
                }
            }
            for &d in &defs[j] {
                last_def.insert(d, j);
            }
        }
        for j in 0..n {
            let (rj, wj) = (body[j].mem_read(), body[j].mem_write());
            for i in 0..j {
                if defs[i].iter().any(|d| defs[j].contains(d)) {
                    add(&mut graph, i, j, DepKind::Output);
                }
                if uses[i].iter().any(|u| defs[j].contains(u)) {
                    add(&mut graph, i, j, DepKind::Anti);
                }
                let (ri, wi) = (body[i].mem_read(), body[i].mem_write());
                if let (Some(w), Some(r)) = (wi, rj) {
                    if w.may_alias(r) {
                        add(&mut graph, i, j, DepKind::MemFlow);
                    }
                }
                if let (Some(r), Some(w)) = (ri, wj) {
                    if r.may_alias(w) {
                        add(&mut graph, i, j, DepKind::MemAnti);
                    }
                }
                if let (Some(w1), Some(w2)) = (wi, wj) {
                    if w1.may_alias(w2) {
                        add(&mut graph, i, j, DepKind::MemOutput);
                    }
                }
                if (is_call(i) && (is_call(j) || rj.is_some() || wj.is_some()))
                    || (is_call(j) && (ri.is_some() || wi.is_some()))
                {
                    add(&mut graph, i, j, DepKind::Control);
                }
            }
        }
        (graph, kinds)
    }

    /// The pair-scan oracle as a [`DepGraph`] (successor kinds parallel to
    /// the oracle's successor lists), so the scheduler can run on it.
    fn oracle_graph(block: &Block) -> (DepGraph, FastMap<(usize, usize), DepKind>) {
        let (graph, kinds) = pair_scan(block);
        let n = graph.node_count();
        let mut kind_start = vec![0];
        let mut flat = Vec::new();
        for u in 0..n {
            flat.extend(graph.succs(u).iter().map(|&v| kinds[&(u, v)]));
            kind_start.push(flat.len());
        }
        let deps = DepGraph {
            graph,
            kind_start,
            kinds: flat,
            classes: block.body().iter().map(op_class).collect(),
            chains: Vec::new(),
            chain_end: Vec::new(),
            multi_def: vec![false; n],
        };
        (deps, kinds)
    }

    /// Longest-path latency from `u` to every node (`None`: unreachable).
    fn longest_from(deps: &DepGraph, machine: &MachineDesc, u: usize) -> Vec<Option<u32>> {
        let mut dist = vec![None; deps.len()];
        dist[u] = Some(0);
        for x in u..deps.len() {
            let Some(dx) = dist[x] else { continue };
            for e in deps.out_edges(x) {
                let via = dx + deps.edge_latency(machine, &e);
                dist[e.to] = Some(dist[e.to].map_or(via, |d: u32| d.max(via)));
            }
        }
        dist
    }

    /// Asserts that the reduced graph is equivalent to the pair-scan oracle
    /// (the paper's full relation): its `succs`/`preds` lists are the
    /// oracle's in the same order, less the dropped edges; every reduced
    /// edge is an oracle pair
    /// (of the oracle's kind, unless that kind is a dropped register
    /// anti/output one); both have the same reachability; on every preset,
    /// every oracle edge is covered by a reduced path of at least its
    /// latency, and all longest-path latencies agree; the def-chain pairs
    /// are exactly the oracle's output edges, so the false-dependence count
    /// equals the number of oracle output edges in `Ef`; and list
    /// scheduling gives equal schedules on both graphs.
    fn assert_matches_oracle(block: &Block, what: &str) {
        use crate::falsedep::{count_false_edges, rename_apart};
        use crate::{list_schedule, SchedPriority};
        use parsched_graph::Reachability;
        use parsched_machine::presets;
        use parsched_telemetry::NullTelemetry;

        let got = build(block);
        let (oracle, kinds) = oracle_graph(block);
        let n = oracle.len();
        assert_eq!(got.len(), n, "{what}: node count");
        // The documented insertion order: the oracle's lists, filtered to
        // the reduced edge set.
        let (g, full) = (got.graph(), oracle.graph());
        for u in 0..n {
            let succs: Vec<usize> = full
                .succs(u)
                .iter()
                .copied()
                .filter(|&v| g.has_edge(u, v))
                .collect();
            let preds: Vec<usize> = full
                .preds(u)
                .iter()
                .copied()
                .filter(|&v| g.has_edge(v, u))
                .collect();
            assert_eq!(got.graph().succs(u), succs, "{what}: succs({u})");
            assert_eq!(got.graph().preds(u), preds, "{what}: preds({u})");
        }
        for e in got.edges() {
            let want = kinds.get(&(e.from, e.to));
            assert!(want.is_some(), "{what}: {e:?} is not an oracle pair");
            if let Some(&k) = want.filter(|k| !matches!(k, DepKind::Output | DepKind::Anti)) {
                assert_eq!(e.kind, k, "{what}: kind of {e:?}");
            }
            assert_eq!(got.kind(e.from, e.to), Some(e.kind), "{what}: kind()");
        }

        let closure = |g: &DiGraph| match Reachability::build(g, None) {
            Some(reach) => reach,
            None => unreachable!("a build without a deadline cannot trip"),
        };
        let reach_got = closure(got.graph());
        let reach_want = closure(oracle.graph());
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    reach_got.reaches(u, v),
                    reach_want.reaches(u, v),
                    "{what}: reaches({u}, {v})"
                );
            }
        }

        let presets = [
            presets::single_issue(8),
            presets::paper_machine(8),
            presets::mips_r3000(8),
            presets::rs6000(8),
            presets::wide(4, 8),
        ];
        for m in &presets {
            for u in 0..n {
                let reduced = longest_from(&got, m, u);
                for e in oracle.out_edges(u) {
                    let lat = oracle.edge_latency(m, &e);
                    assert!(
                        reduced[e.to].is_some_and(|d| d >= lat),
                        "{what} on {}: oracle {e:?} (latency {lat}) not covered",
                        m.name()
                    );
                }
                assert_eq!(
                    reduced,
                    longest_from(&oracle, m, u),
                    "{what} on {}: longest paths from {u}",
                    m.name()
                );
            }
            for prio in [SchedPriority::CriticalPath, SchedPriority::SourceOrder] {
                let a = list_schedule(block, &got, m, prio, &NullTelemetry);
                let b = list_schedule(block, &oracle, m, prio, &NullTelemetry);
                assert_eq!(a, b, "{what} on {}: {prio:?} schedule", m.name());
            }
        }

        let mut pairs: Vec<(usize, usize)> = got.output_pairs().collect();
        pairs.sort_unstable();
        let mut want_pairs: Vec<(usize, usize)> = kinds
            .iter()
            .filter(|(_, &k)| k == DepKind::Output)
            .map(|(&pair, _)| pair)
            .collect();
        want_pairs.sort_unstable();
        assert_eq!(pairs, want_pairs, "{what}: output pairs");

        let renamed = rename_apart(block);
        let sym = closure(build(&renamed).graph());
        for m in &presets {
            let in_ef = want_pairs
                .iter()
                .filter(|&&(u, v)| {
                    !sym.reaches(u, v)
                        && !sym.reaches(v, u)
                        && !m.pairwise_conflict(got.class(u), got.class(v))
                })
                .count();
            let counted = count_false_edges(&got, &sym, m, None, &NullTelemetry);
            assert_eq!(counted, Some(in_ef), "{what} on {}: false deps", m.name());
        }
    }

    mod differential {
        use super::assert_matches_oracle;
        use parsched::{Pipeline, Strategy};
        use parsched_ir::{
            parse_module, BinOp, Block, Function, Inst, InstKind, MemAddr, Operand, Reg,
        };
        use parsched_machine::presets;
        use parsched_telemetry::NullTelemetry;
        use parsched_workload::dag::{random_dag_function, DagParams};
        use parsched_workload::rng::SplitMix64;

        const STRATEGIES: [Strategy; 5] = [
            Strategy::AllocThenSched,
            Strategy::SchedThenAlloc,
            Strategy::LinearScanThenSched,
            Strategy::Combined(parsched::regalloc::PinterConfig {
                edge_policy: parsched::regalloc::EdgeRemovalPolicy::LeastBenefit,
                spill_metric: parsched::regalloc::SpillMetric::HStar {
                    interference_weight: 1.0,
                    shared_weight: 2.0,
                    parallel_weight: 1.5,
                },
                ep_prepass: true,
            }),
            Strategy::SpillEverything,
        ];

        /// Every block of `func`, then every block of its compiled form
        /// under each strategy on a tight and a roomy register file.
        fn check_function(func: &Function, what: &str) {
            for (b, block) in func.blocks().iter().enumerate() {
                assert_matches_oracle(block, &format!("{what} block {b}"));
            }
            for regs in [4, 12] {
                let p = Pipeline::new(presets::paper_machine(regs));
                for s in &STRATEGIES {
                    let Ok(out) = p.compile(func, s, &NullTelemetry) else {
                        continue;
                    };
                    for (b, block) in out.function.blocks().iter().enumerate() {
                        let tag = format!("{what} {} r{regs} block {b}", s.label());
                        assert_matches_oracle(block, &tag);
                    }
                }
            }
        }

        #[test]
        fn random_dags_before_and_after_allocation() {
            for seed in 0..12u64 {
                let params = DagParams {
                    size: 16 + (seed as usize % 4) * 12,
                    window: 2 + (seed as usize % 5) * 4,
                    ..DagParams::default()
                };
                let f = random_dag_function(seed, &params);
                check_function(&f, &format!("dag seed {seed}"));
            }
        }

        /// A random block over a handful of physical registers (so output
        /// and anti dependences pile up) mixing calls, register- and
        /// global-based loads and stores, copies and arithmetic.
        fn random_block(seed: u64, len: usize) -> Block {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let reg = |rng: &mut SplitMix64| Reg::phys(rng.gen_range_usize(0, 5) as u32);
            let addr = |rng: &mut SplitMix64| {
                let offset = 8 * rng.gen_range_i64(0, 3);
                if rng.gen_bool(0.5) {
                    MemAddr::reg(reg(rng), offset)
                } else {
                    MemAddr::global(if rng.gen_bool(0.5) { "a" } else { "b" }, offset)
                }
            };
            let mut block = Block::new("entry");
            for _ in 0..len {
                let kind = match rng.gen_range_usize(0, 7) {
                    0 => InstKind::LoadImm {
                        dst: reg(&mut rng),
                        imm: 1,
                    },
                    1 | 2 => InstKind::Binary {
                        op: BinOp::Add,
                        dst: reg(&mut rng),
                        lhs: Operand::Reg(reg(&mut rng)),
                        rhs: Operand::Reg(reg(&mut rng)),
                    },
                    3 => InstKind::Copy {
                        dst: reg(&mut rng),
                        src: reg(&mut rng),
                    },
                    4 => InstKind::Load {
                        dst: reg(&mut rng),
                        addr: addr(&mut rng),
                        float: false,
                    },
                    5 => InstKind::Store {
                        src: reg(&mut rng),
                        addr: addr(&mut rng),
                        float: false,
                    },
                    _ => InstKind::Call {
                        name: "f".into(),
                        dsts: (0..rng.gen_range_usize(0, 3))
                            .map(|_| reg(&mut rng))
                            .collect(),
                        args: (0..rng.gen_range_usize(0, 3))
                            .map(|_| reg(&mut rng))
                            .collect(),
                    },
                };
                block.push(Inst::new(kind));
            }
            block.push(Inst::new(InstKind::Ret {
                value: Some(reg(&mut rng)),
            }));
            block
        }

        #[test]
        fn blocks_with_calls_and_register_addresses() {
            for seed in 0..200u64 {
                let block = random_block(seed, 4 + (seed as usize % 40));
                assert_matches_oracle(&block, &format!("random block seed {seed}"));
            }
        }

        #[test]
        fn fuzz_corpus_cases() -> Result<(), Box<dyn std::error::Error>> {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fuzz-corpus");
            let mut cases = 0;
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "psc") {
                    let src = std::fs::read_to_string(&path)?;
                    for f in parse_module(&src)? {
                        check_function(&f, &path.display().to_string());
                    }
                    cases += 1;
                }
            }
            assert!(cases > 0, "no fuzz-corpus cases found in {dir}");
            Ok(())
        }
    }

    #[test]
    fn flow_dependences_in_example1() {
        // The paper's Example 1(b), symbolic form.
        let b = block_of(
            r#"
            func @ex1() {
            entry:
                s1 = load [@z + 0]
                s2 = li 0
                s3 = load [s2 + 0]
                s4 = add s1, s1
                s5 = mul s3, s1
                ret s5
            }
            "#,
        );
        let g = build(&b);
        assert_eq!(g.len(), 5);
        // Figure 2(a): s2→s3, s1→s4, s1→s5, s3→s5 flow edges.
        assert_eq!(g.kind(1, 2), Some(DepKind::Flow));
        assert_eq!(g.kind(0, 3), Some(DepKind::Flow));
        assert_eq!(g.kind(0, 4), Some(DepKind::Flow));
        assert_eq!(g.kind(2, 4), Some(DepKind::Flow));
        // No anti/output with symbolic single-def registers.
        assert!(g.edges().all(|e| !e.kind.is_register_false_candidate()));
    }

    #[test]
    fn anti_and_output_after_allocation() {
        // Example 1(c): physical code with r1/r2 reuse.
        let b = block_of(
            r#"
            func @ex1c() {
            entry:
                r1 = load [@z + 0]
                r2 = li 0
                r3 = load [r2 + 0]
                r2 = add r1, r1
                r1 = mul r3, r1
                ret r1
            }
            "#,
        );
        let g = build(&b);
        // The paper's false dependence: inst 2 (uses r2) vs inst 3 (redefines r2).
        assert_eq!(g.kind(2, 3), Some(DepKind::Anti));
        // Output dep: r2 defined at 1 and 3 — but flow 1→2's anti? Check output.
        assert_eq!(g.kind(1, 3), Some(DepKind::Output));
        // r1: defined at 0, redefined at 4, used at 3 → anti 3→4.
        assert_eq!(g.kind(3, 4), Some(DepKind::Anti));
    }

    #[test]
    fn memory_disambiguation() {
        let b = block_of(
            r#"
            func @mem(s0) {
            entry:
                store s0, [s0 + 0]
                s1 = load [s0 + 8]
                s2 = load [s0 + 0]
                store s0, [@g + 0]
                ret s2
            }
            "#,
        );
        let g = build(&b);
        // store [s0+0] vs load [s0+8]: provably disjoint.
        assert_eq!(g.kind(0, 1), None);
        // store [s0+0] vs load [s0+0]: must alias → MemFlow.
        assert_eq!(g.kind(0, 2), Some(DepKind::MemFlow));
        // store [s0+0] vs store [@g+0]: register base vs global → may alias.
        assert_eq!(g.kind(0, 3), Some(DepKind::MemOutput));
        // load [s0+8] vs store [@g+0]: may alias → MemAnti.
        assert_eq!(g.kind(1, 3), Some(DepKind::MemAnti));
    }

    #[test]
    fn calls_are_barriers() {
        let b = block_of(
            r#"
            func @c(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = call @f(s1)
                s3 = load [s0 + 0]
                s4 = call @f(s3)
                ret s4
            }
            "#,
        );
        let g = build(&b);
        assert_eq!(g.kind(0, 1), Some(DepKind::Flow), "arg flow wins");
        assert_eq!(g.kind(1, 2), Some(DepKind::Control), "call blocks load");
        assert_eq!(g.kind(1, 3), Some(DepKind::Control), "call blocks call");
    }

    #[test]
    fn heights_follow_latency() {
        let b = block_of(
            r#"
            func @h() {
            entry:
                s0 = load [@a + 0]
                s1 = add s0, 1
                s2 = add s1, 1
                ret s2
            }
            "#,
        );
        let g = build(&b);
        let m = parsched_machine::presets::rs6000(32); // load latency 2
        let h = g.heights(&m);
        // chain: load(2) → add(1) → add(1) = 4, 2, 1
        assert_eq!(h, vec![4, 2, 1]);
    }

    #[test]
    fn op_class_mapping() {
        let b = block_of(
            r#"
            func @cls(s0) {
            entry:
                s1 = li 1
                s2 = fadd s0, s1
                s3 = fload [s0 + 0]
                store s3, [s0 + 8]
                s4 = call @f()
                nop
                ret s4
            }
            "#,
        );
        let g = build(&b);
        assert_eq!(g.class(0), OpClass::IntAlu);
        assert_eq!(g.class(1), OpClass::FloatAlu);
        assert_eq!(g.class(2), OpClass::MemLoad);
        assert_eq!(g.class(3), OpClass::MemStore);
        assert_eq!(g.class(4), OpClass::Call);
        assert_eq!(g.class(5), OpClass::Nop);
    }
}
