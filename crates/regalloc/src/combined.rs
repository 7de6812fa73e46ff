//! The paper's combined coloring procedure (Section 4).
//!
//! Works on the parallelizable interference graph. When registers suffice,
//! plain simplification colors the PIG and — by Theorem 1 — the allocation
//! keeps every parallel-scheduling option. Under pressure the algorithm
//! trades: first it *removes false-dependence edges* ("we are doing the job
//! of the scheduler when, due to register pressure, some parallelization
//! options are given away"), guided by scheduling priorities; only when no
//! profitable removal remains does it *spill*, choosing the victim by the
//! weighted metric `h*(v) = cost(v) / Σ w({u,v})`.

use crate::pig::Pig;
use parsched_graph::BitSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the allocator picks which false-dependence edge to sacrifice when
/// register pressure blocks simplification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeRemovalPolicy {
    /// Remove the edge whose two instructions have the smallest combined
    /// scheduling priority (critical-path height) — the paper's suggestion:
    /// give up the parallelism the scheduler would value least.
    LeastBenefit,
    /// Remove an arbitrary (deterministic pseudo-random) eligible edge —
    /// ablation baseline showing the value of scheduling guidance.
    Pseudorandom {
        /// Seed for the internal generator.
        seed: u64,
    },
    /// Remove the eligible edge incident to the node closest to becoming
    /// simplifiable (smallest excess degree) — a pure graph heuristic.
    DegreeRelief,
}

/// The spill-victim metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpillMetric {
    /// Classic `h(v) = cost(v) / deg(v)` over the full PIG degree.
    CostOverDegree,
    /// The paper's `h*(v) = cost(v) / Σ w({u,v})` with per-class weights.
    HStar {
        /// Weight of interference-only edges (prevent spills; Lemma 2 dual).
        interference_weight: f64,
        /// Weight of edges in both graphs (Lemma 3: most valuable).
        shared_weight: f64,
        /// Weight of false-dependence-only edges (pure parallelism). With
        /// `0.0` this degenerates to the traditional `h` function, as the
        /// paper notes.
        parallel_weight: f64,
    },
}

/// Configuration of the combined allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinterConfig {
    /// False-edge removal policy under pressure.
    pub edge_policy: EdgeRemovalPolicy,
    /// Spill metric.
    pub spill_metric: SpillMetric,
    /// Run the EP pre-scheduling reordering before measuring live ranges.
    pub ep_prepass: bool,
}

impl Default for PinterConfig {
    /// The paper's recommended configuration: least-benefit edge removal,
    /// `h*` with parallelism valued above spill avoidance ("parallelism
    /// that will eventually materialize is preferred over the cost of
    /// spilling some extra value"), and the EP pre-pass on.
    fn default() -> Self {
        PinterConfig {
            edge_policy: EdgeRemovalPolicy::LeastBenefit,
            spill_metric: SpillMetric::HStar {
                interference_weight: 1.0,
                shared_weight: 2.0,
                parallel_weight: 1.5,
            },
            ep_prepass: true,
        }
    }
}

/// Result of one run of the combined coloring procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedOutcome {
    /// Per-node colors (`u32::MAX` for spilled nodes).
    pub colors: Vec<u32>,
    /// Nodes placed on the spill list.
    pub spilled: Vec<usize>,
    /// Number of false-dependence edges removed (parallelism given away).
    pub removed_false_edges: usize,
}

impl CombinedOutcome {
    /// Number of distinct colors used.
    pub fn colors_used(&self) -> u32 {
        self.colors
            .iter()
            .filter(|&&c| c != u32::MAX)
            .map(|&c| c + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Runs the paper's coloring procedure on `pig` with `k` registers,
/// reporting its decisions to `telemetry`: `combined.simplified` (nodes
/// simplified), `combined.removed_false_edges` (parallelism given away),
/// `combined.spilled` (spill-list length), and a `combined.spill` event per
/// victim.
///
/// `costs[n]` is the spill cost of node `n`; `priority[n]` is the
/// scheduling priority of the node's defining instruction (critical-path
/// height; 0 for live-in values).
///
/// The procedure keeps per-node degree counters split into interference
/// and removable-false-edge components, so every save/spill decision is
/// O(n) per round rather than O(n·deg), and a degree-bucketed worklist
/// makes each simplify pick O(k + n/64); decisions are tie-broken
/// identically to the reference formulation.
///
/// # Panics
/// Panics if `costs` or `priority` lengths differ from the node count.
pub fn combined_color(
    pig: &Pig,
    k: u32,
    costs: &[f64],
    priority: &[u32],
    config: &PinterConfig,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> CombinedOutcome {
    combined_color_in(
        &mut CombinedWorkspace::default(),
        pig,
        k,
        costs,
        priority,
        config,
        telemetry,
    )
}

/// Reusable buffers for [`combined_color_in`]. The spill loop colors a PIG
/// per round; threading one workspace through makes each round's setup
/// allocation-free once sizes stabilize. A `Default` workspace is valid
/// input, and results never depend on what a previous run left behind.
#[derive(Default)]
pub struct CombinedWorkspace {
    work_rows: Vec<BitSet>,
    false_rows: Vec<BitSet>,
    alive: BitSet,
    inter_deg: Vec<usize>,
    falive_deg: Vec<usize>,
    shared_cnt: Vec<usize>,
    queued: Vec<bool>,
    candidates: EdgeQueue,
    low: LowDegree,
    used: Vec<bool>,
    scratch: BitSet,
}

/// The alive nodes of degree below `k`, bucketed by degree, so that the
/// simplify pick — the minimal `(degree, node)` — reads the lowest
/// non-empty bucket instead of scanning every alive node. Degrees only
/// decrease, so a node enters once (when its degree first drops below
/// `k`) and then moves down one bucket per lost neighbor.
#[derive(Default)]
struct LowDegree {
    buckets: Vec<BitSet>,
    sizes: Vec<usize>,
    total: usize,
}

impl LowDegree {
    /// Empties the structure for `n` nodes and `k` colors (degrees run
    /// below `n`, so `min(k, n)` buckets suffice).
    fn reset(&mut self, n: usize, k: usize) {
        let buckets = k.min(n);
        self.buckets.truncate(buckets);
        for b in &mut self.buckets {
            b.reset(n);
        }
        while self.buckets.len() < buckets {
            self.buckets.push(BitSet::new(n));
        }
        self.sizes.clear();
        self.sizes.resize(buckets, 0);
        self.total = 0;
    }

    fn insert(&mut self, v: usize, degree: usize) {
        self.buckets[degree].insert(v);
        self.sizes[degree] += 1;
        self.total += 1;
    }

    fn remove(&mut self, v: usize, degree: usize) {
        self.buckets[degree].remove(v);
        self.sizes[degree] -= 1;
        self.total -= 1;
    }

    /// Records that `v`'s degree dropped by one, to `degree`.
    fn dropped(&mut self, v: usize, degree: usize, k: usize) {
        if degree + 1 < k {
            self.remove(v, degree + 1);
        }
        if degree < k {
            self.insert(v, degree);
        }
    }

    /// The minimal `(degree, node)` member, if any.
    fn min(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let b = self.sizes.iter().position(|&size| size > 0)?;
        self.buckets[b].iter().next()
    }
}

/// The least-benefit candidate edges, smallest packed key first. The
/// candidates known when coloring starts form one sorted run consumed from
/// the front; edges that become candidates later go to a heap. Each pop
/// takes the smaller head, so entries leave in exactly the order a single
/// heap over all of them would give, without a heap operation for most.
#[derive(Default)]
struct EdgeQueue {
    run: Vec<u128>,
    next: usize,
    late: BinaryHeap<Reverse<u128>>,
    /// Counting-sort buffers for [`EdgeQueue::seal`].
    counts: Vec<u32>,
    sorted: Vec<u128>,
}

impl EdgeQueue {
    /// Empties the queue and returns the initial run to fill, in
    /// ascending `(a, b)` order; call [`EdgeQueue::seal`] once it holds
    /// every initial candidate.
    fn start(&mut self) -> &mut Vec<u128> {
        self.run.clear();
        self.next = 0;
        self.late.clear();
        &mut self.run
    }

    /// Sorts the initial run. Its keys are small priority sums, so a
    /// stable counting sort by key over the `(a, b)`-ordered run gives the
    /// full `(key, a, b)` order; a run whose keys spread far wider than
    /// its length is sorted by comparison instead.
    fn seal(&mut self) {
        let key = |x: u128| (x >> 64) as usize;
        let Some(max_key) = self.run.iter().map(|&x| key(x)).max() else {
            return;
        };
        if max_key > 4 * self.run.len() + 1024 {
            self.run.sort_unstable();
            return;
        }
        self.counts.clear();
        self.counts.resize(max_key + 2, 0);
        for &x in &self.run {
            self.counts[key(x) + 1] += 1;
        }
        for i in 1..self.counts.len() {
            self.counts[i] += self.counts[i - 1];
        }
        self.sorted.clear();
        self.sorted.resize(self.run.len(), 0);
        for &x in &self.run {
            let slot = &mut self.counts[key(x)];
            self.sorted[*slot as usize] = x;
            *slot += 1;
        }
        std::mem::swap(&mut self.run, &mut self.sorted);
    }

    /// Adds a candidate found after [`EdgeQueue::seal`].
    fn push(&mut self, entry: u128) {
        self.late.push(Reverse(entry));
    }

    /// Removes and returns the smallest entry.
    fn pop_min(&mut self) -> Option<u128> {
        let run_head = self.run.get(self.next).copied();
        match (run_head, self.late.peek()) {
            (Some(r), Some(&Reverse(l))) if l < r => self.late.pop().map(|Reverse(l)| l),
            (Some(r), _) => {
                self.next += 1;
                Some(r)
            }
            (None, _) => self.late.pop().map(|Reverse(l)| l),
        }
    }
}

/// Copies `n` rows of `src` into `dst`, reusing `dst`'s buffers.
fn clone_rows_into(dst: &mut Vec<BitSet>, n: usize, src: &parsched_graph::UnGraph) {
    dst.truncate(n);
    for (v, row) in dst.iter_mut().enumerate() {
        row.clone_from(src.row(v));
    }
    for v in dst.len()..n {
        dst.push(src.row(v).clone());
    }
}

/// [`clone_rows_into`] over a [`parsched_graph::BitMatrix`] source.
fn clone_matrix_rows_into(dst: &mut Vec<BitSet>, n: usize, src: &parsched_graph::BitMatrix) {
    dst.truncate(n);
    for (v, row) in dst.iter_mut().enumerate() {
        row.clone_from(src.row(v));
    }
    for v in dst.len()..n {
        dst.push(src.row(v).clone());
    }
}

/// [`combined_color`] with caller-owned scratch buffers.
///
/// # Panics
/// Panics if `costs` or `priority` lengths differ from the node count.
pub fn combined_color_in(
    ws: &mut CombinedWorkspace,
    pig: &Pig,
    k: u32,
    costs: &[f64],
    priority: &[u32],
    config: &PinterConfig,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> CombinedOutcome {
    let _span = parsched_telemetry::span(telemetry, "combined.color");
    let setup_span = parsched_telemetry::span(telemetry, "combined.setup");
    let n = pig.graph().node_count();
    assert_eq!(costs.len(), n, "one cost per node");
    assert_eq!(priority.len(), n, "one priority per node");

    // Working copies of the adjacency rows: the full graph and the
    // still-removable false edges. Node removal only flips `alive` and
    // adjusts neighbor counters; the rows themselves lose bits only on
    // false-edge removal, so the select phase sees exactly the surviving
    // edge set.
    let work_rows = &mut ws.work_rows;
    let false_rows = &mut ws.false_rows;
    clone_rows_into(work_rows, n, pig.graph());
    clone_matrix_rows_into(false_rows, n, pig.false_only());
    let alive = &mut ws.alive;
    alive.reset(n);
    alive.fill();
    // inter_deg[v]: alive neighbors over non-removable (interference or
    // shared) edges; falive_deg[v]: alive neighbors over removable false
    // edges. Current degree is their sum.
    let inter_deg = &mut ws.inter_deg;
    inter_deg.clear();
    inter_deg.extend((0..n).map(|v| pig.graph().degree(v) - false_rows[v].count()));
    let falive_deg = &mut ws.falive_deg;
    falive_deg.clear();
    falive_deg.extend((0..n).map(|v| false_rows[v].count()));
    // shared_cnt[v]: alive neighbors over shared (Er ∩ Ef) edges. Shared
    // edges are never removable, so node death is the only event that
    // changes this; together with the two degree counters it makes the
    // spill metric O(1) per candidate.
    let shared_cnt = &mut ws.shared_cnt;
    shared_cnt.clear();
    shared_cnt.extend((0..n).map(|v| pig.shared().row(v).count()));

    // Alive nodes of degree < k by degree: the simplify pick keeps the
    // reference order, minimal (degree, id), without a scan.
    let low = &mut ws.low;
    low.reset(n, k as usize);
    for v in 0..n {
        let d = inter_deg[v] + falive_deg[v];
        if d < k as usize {
            low.insert(v, d);
        }
    }

    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut spilled: Vec<usize> = Vec::new();
    let mut removed_edges = 0usize;
    let mut rng_state = match config.edge_policy {
        EdgeRemovalPolicy::Pseudorandom { seed } => seed | 1,
        _ => 1,
    };
    let scratch = &mut ws.scratch;
    scratch.reset(n);

    // Least-benefit removal picks the minimum of a *static* key (the
    // priority sums never change), so instead of rescanning every eligible
    // edge after each removal, a lazy min-queue (`EdgeQueue`) holds
    // candidate edges and entries are validated when popped. A node's false
    // edges enter the queue when it becomes savable — at the start, or when `remove_node`
    // drops its interference degree below k (degrees only decrease, so
    // that transition happens at most once per node). Stale entries
    // (removed edge, dead endpoint, savability lost) are discarded on pop,
    // which keeps the choice identical to the full scan. Each edge is
    // pushed once, by whichever endpoint is queued first: a queued endpoint
    // stays savable while the edge and both endpoints live (its
    // interference degree never rises, and the edge keeps its false degree
    // positive), so that one entry stays valid as long as the edge can be
    // chosen, and a second entry with the same key would only add a stale
    // pop.
    let lazy = config.edge_policy == EdgeRemovalPolicy::LeastBenefit;
    let candidates = &mut ws.candidates;
    let queued = &mut ws.queued;
    queued.clear();
    queued.resize(if lazy { n } else { 0 }, false);
    let savable = |v: usize, inter_deg: &[usize], falive_deg: &[usize]| {
        inter_deg[v] < k as usize && falive_deg[v] > 0
    };
    let initial = candidates.start();
    if lazy {
        // Every false edge with a savable endpoint, once, in (a, b) order.
        for (v, q) in queued.iter_mut().enumerate() {
            *q = savable(v, inter_deg, falive_deg);
        }
        for a in 0..n {
            for b in false_rows[a].iter().filter(|&b| b > a) {
                if queued[a] || queued[b] {
                    initial.push(pack_edge(priority[a].saturating_add(priority[b]), a, b));
                }
            }
        }
    }
    candidates.seal();

    drop(setup_span);
    let loop_span = parsched_telemetry::span(telemetry, "combined.mainloop");
    let mut remaining = n;
    while remaining > 0 {
        // Simplify: remove nodes of degree < k (smallest degree first,
        // ties by node id). The scan only runs when the counter proves it
        // can succeed.
        if let Some(v) = low.min() {
            remove_node(
                v,
                alive,
                work_rows,
                false_rows,
                pig.shared(),
                inter_deg,
                falive_deg,
                shared_cnt,
                k,
                low,
                scratch,
            );
            if lazy {
                queue_new_savable(
                    v, alive, work_rows, false_rows, inter_deg, falive_deg, k, priority, queued,
                    candidates, scratch,
                );
            }
            stack.push(v);
            remaining -= 1;
            continue;
        }

        // Blocked. A node is *savable* when its interference degree alone
        // is below k and at least one removable false edge touches it (the
        // paper's second loop); removing such an edge can free it.
        let mut chosen: Option<(usize, usize)> = None;
        match config.edge_policy {
            EdgeRemovalPolicy::LeastBenefit => {
                // Discard stale queue entries until the head still names
                // a live, savable-endpoint false edge; the minimum valid
                // key is exactly what the full scan would have picked.
                while let Some(entry) = candidates.pop_min() {
                    let (a, b) = unpack_edge(entry);
                    if alive.contains(a)
                        && alive.contains(b)
                        && false_rows[a].contains(b)
                        && (savable(a, inter_deg, falive_deg) || savable(b, inter_deg, falive_deg))
                    {
                        chosen = Some((a, b));
                        break;
                    }
                }
            }
            EdgeRemovalPolicy::Pseudorandom { .. } => {
                let mut eligible: Vec<(usize, usize)> = Vec::new();
                for_each_eligible(alive, false_rows, inter_deg, falive_deg, k, |a, b| {
                    eligible.push((a, b));
                });
                if !eligible.is_empty() {
                    // xorshift64*
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    chosen = Some(eligible[(rng_state as usize) % eligible.len()]);
                }
            }
            EdgeRemovalPolicy::DegreeRelief => {
                let mut best: Option<(usize, usize, usize)> = None;
                for_each_eligible(alive, false_rows, inter_deg, falive_deg, k, |a, b| {
                    let da = inter_deg[a] + falive_deg[a];
                    let db = inter_deg[b] + falive_deg[b];
                    let key = (da.min(db), a, b);
                    if best.is_none_or(|cur| key < cur) {
                        best = Some(key);
                    }
                });
                chosen = best.map(|(_, a, b)| (a, b));
            }
        }
        if let Some((a, b)) = chosen {
            work_rows[a].remove(b);
            work_rows[b].remove(a);
            false_rows[a].remove(b);
            false_rows[b].remove(a);
            falive_deg[a] -= 1;
            falive_deg[b] -= 1;
            for x in [a, b] {
                low.dropped(x, inter_deg[x] + falive_deg[x], k as usize);
            }
            removed_edges += 1;
            continue;
        }

        // No savable node: spill by the configured metric. The class
        // breakdown of each candidate's surviving neighborhood is carried
        // by the maintained counters: the two degree counters sum to
        // |work ∩ alive|, removable false edges are exactly `falive_deg`,
        // and `shared_cnt` tracks the (never-removable) shared edges — so
        // no row is scanned here. Grouped-by-class multiplication is
        // bit-identical to the per-neighbor sum under the dyadic weights
        // used everywhere (0, 1, 1.5, 2).
        let weight_sum =
            |v: usize, inter_deg: &[usize], falive_deg: &[usize], shared_cnt: &[usize]| -> f64 {
                let total = inter_deg[v] + falive_deg[v];
                match config.spill_metric {
                    SpillMetric::CostOverDegree => total as f64,
                    SpillMetric::HStar {
                        interference_weight,
                        shared_weight,
                        parallel_weight,
                    } => {
                        let shared = shared_cnt[v];
                        let parallel = falive_deg[v];
                        let inter = total - shared - parallel;
                        shared_weight * shared as f64
                            + parallel_weight * parallel as f64
                            + interference_weight * inter as f64
                    }
                }
            };
        // `remaining > 0` guarantees an unremoved node; `else break` states
        // that invariant without a panic path, and `total_cmp` orders NaN
        // metrics deterministically.
        let mut victim: Option<(usize, f64)> = None;
        for v in alive.iter() {
            let h =
                costs[v] / weight_sum(v, inter_deg, falive_deg, shared_cnt).max(f64::MIN_POSITIVE);
            let better = match victim {
                None => true,
                Some((_, hb)) => h.total_cmp(&hb).is_lt(),
            };
            if better {
                victim = Some((v, h));
            }
        }
        let Some((victim, _)) = victim else {
            break;
        };
        remove_node(
            victim,
            alive,
            work_rows,
            false_rows,
            pig.shared(),
            inter_deg,
            falive_deg,
            shared_cnt,
            k,
            low,
            scratch,
        );
        if lazy {
            queue_new_savable(
                victim, alive, work_rows, false_rows, inter_deg, falive_deg, k, priority, queued,
                candidates, scratch,
            );
        }
        if telemetry.enabled() {
            telemetry.event("combined.spill", &format!("node {victim}"));
        }
        spilled.push(victim);
        remaining -= 1;
        // The paper places spill victims on the spill list, not the select
        // stack: after spilling, the whole procedure repeats on rewritten
        // code, so optimistic coloring of the victim is not attempted.
    }

    drop(loop_span);
    let _select_span = parsched_telemetry::span(telemetry, "combined.select");
    // Select (only meaningful when nothing spilled, matching the paper;
    // still performed so callers can inspect partial colorings).
    let mut colors = vec![u32::MAX; n];
    let used = &mut ws.used;
    for &v in stack.iter().rev() {
        used.clear();
        used.resize(k as usize, false);
        for u in work_rows[v].iter() {
            if colors[u] != u32::MAX {
                used[colors[u] as usize] = true;
            }
        }
        match (0..k).find(|&c| !used[c as usize]) {
            Some(c) => colors[v] = c,
            // Simplified nodes have degree < k at removal time, so a free
            // color always exists; if that invariant ever broke, spilling
            // the node degrades the result instead of crashing the process.
            None => spilled.push(v),
        }
    }
    spilled.sort_unstable();
    if telemetry.enabled() {
        telemetry.counter("combined.simplified", stack.len() as u64);
        telemetry.counter("combined.removed_false_edges", removed_edges as u64);
        telemetry.counter("combined.spilled", spilled.len() as u64);
    }
    CombinedOutcome {
        colors,
        spilled,
        removed_false_edges: removed_edges,
    }
}

/// Packs a least-benefit candidate edge as `(key, a, b)` in one `u128`:
/// numeric order equals the lexicographic order of the tuple, so the
/// candidate queue compares a single word pair instead of three fields. Node ids fit u32
/// (blocks are bounded far below that).
fn pack_edge(key: u32, a: usize, b: usize) -> u128 {
    debug_assert!(a <= u32::MAX as usize && b <= u32::MAX as usize);
    ((key as u128) << 64) | ((a as u128) << 32) | b as u128
}

fn unpack_edge(x: u128) -> (usize, usize) {
    (((x >> 32) as u32) as usize, (x as u32) as usize)
}

/// After `v`'s removal dropped its neighbors' degree counters, pushes the
/// false edges of any neighbor that just became savable (interference
/// degree below `k` for the first time) into the least-benefit candidate
/// queue. Degrees only decrease, so each node passes this threshold at most
/// once and `queued` guarantees a single push per node.
#[allow(clippy::too_many_arguments)]
fn queue_new_savable(
    v: usize,
    alive: &BitSet,
    work_rows: &[BitSet],
    false_rows: &[BitSet],
    inter_deg: &[usize],
    falive_deg: &[usize],
    k: u32,
    priority: &[u32],
    queued: &mut [bool],
    candidates: &mut EdgeQueue,
    scratch: &mut BitSet,
) {
    scratch.clone_from(&work_rows[v]);
    scratch.intersect_with(alive);
    for u in scratch.iter() {
        if !queued[u] && inter_deg[u] < k as usize && falive_deg[u] > 0 {
            queued[u] = true;
            for w in false_rows[u].iter().filter(|&w| !queued[w]) {
                let (a, b) = (u.min(w), u.max(w));
                candidates.push(pack_edge(priority[a].saturating_add(priority[b]), a, b));
            }
        }
    }
}

/// Marks `v` dead and repairs its alive neighbors' split degree counters,
/// keeping the below-`k` buckets exact. Adjacency rows are left
/// intact: the select phase needs the surviving edge set over *all* nodes.
#[allow(clippy::too_many_arguments)]
fn remove_node(
    v: usize,
    alive: &mut BitSet,
    work_rows: &[BitSet],
    false_rows: &[BitSet],
    shared: &parsched_graph::BitMatrix,
    inter_deg: &mut [usize],
    falive_deg: &mut [usize],
    shared_cnt: &mut [usize],
    k: u32,
    low: &mut LowDegree,
    scratch: &mut BitSet,
) {
    let d = inter_deg[v] + falive_deg[v];
    if d < k as usize {
        low.remove(v, d);
    }
    alive.remove(v);
    scratch.clone_from(&work_rows[v]);
    scratch.intersect_with(alive);
    for u in scratch.iter() {
        if false_rows[v].contains(u) {
            falive_deg[u] -= 1;
        } else {
            inter_deg[u] -= 1;
            if shared.row(v).contains(u) {
                shared_cnt[u] -= 1;
            }
        }
        low.dropped(u, inter_deg[u] + falive_deg[u], k as usize);
    }
}

/// Calls `f(a, b)` (canonical `a < b`) for every removable false edge whose
/// savable endpoint makes it eligible, in ascending savable-node order —
/// the same enumeration order as the reference formulation (an edge with
/// two savable endpoints is visited twice, as before).
fn for_each_eligible(
    alive: &BitSet,
    false_rows: &[BitSet],
    inter_deg: &[usize],
    falive_deg: &[usize],
    k: u32,
    mut f: impl FnMut(usize, usize),
) {
    for v in alive.iter() {
        if inter_deg[v] >= k as usize || falive_deg[v] == 0 {
            continue;
        }
        for u in false_rows[v].iter() {
            if alive.contains(u) {
                if v < u {
                    f(v, u);
                } else {
                    f(u, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::BlockAllocProblem;
    use parsched_ir::liveness::Liveness;
    use parsched_ir::{parse_function, BlockId};
    use parsched_machine::presets;
    use parsched_sched::DepGraph;

    fn pig_of(
        src: &str,
        machine: &parsched_machine::MachineDesc,
    ) -> (BlockAllocProblem, Pig, Vec<f64>, Vec<u32>) {
        let f = parse_function(src).unwrap();
        let lv = Liveness::compute(&f, &[]);
        let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
        let d = DepGraph::build(&f.blocks()[0], &parsched_telemetry::NullTelemetry);
        let pig = Pig::build(&p, &d, machine, &parsched_telemetry::NullTelemetry);
        let costs: Vec<f64> = (0..p.len()).map(|n| p.spill_cost(n)).collect();
        let heights = d.heights(machine);
        let priority: Vec<u32> = (0..p.len())
            .map(|n| p.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        (p, pig, costs, priority)
    }

    const EXAMPLE1: &str = r#"
        func @ex1(s9) {
        entry:
            s1 = load [@z + 0]
            s2 = fadd s9, 0
            s3 = load [s2 + 0]
            s4 = add s1, s1
            s5 = mul s3, s1
            ret s5
        }
    "#;

    #[test]
    fn sealed_run_pops_in_key_then_pair_order() {
        // Small keys take the counting sort, widely spread keys the
        // comparison sort; both must pop in full (key, a, b) order.
        for spread in [1u32, 1 << 30] {
            let mut queue = EdgeQueue::default();
            let pairs = [(0, 1), (0, 3), (1, 2), (2, 3), (2, 5)];
            let keys = [3, 1, 3, 0, 1];
            let mut want: Vec<u128> = pairs
                .iter()
                .zip(keys)
                .map(|(&(a, b), key)| pack_edge(key * spread, a, b))
                .collect();
            queue.start().extend_from_slice(&want);
            queue.seal();
            queue.push(pack_edge(2 * spread, 4, 6));
            want.push(pack_edge(2 * spread, 4, 6));
            want.sort_unstable();
            let got: Vec<u128> = std::iter::from_fn(|| queue.pop_min()).collect();
            assert_eq!(got, want, "spread {spread}");
        }
    }

    #[test]
    fn enough_registers_no_spill_no_removal() {
        let m = presets::paper_machine(8);
        let (_p, pig, costs, prio) = pig_of(EXAMPLE1, &m);
        let out = combined_color(
            &pig,
            8,
            &costs,
            &prio,
            &PinterConfig::default(),
            &parsched_telemetry::NullTelemetry,
        );
        assert!(out.spilled.is_empty());
        assert_eq!(out.removed_false_edges, 0);
        assert!(pig.graph().is_proper_coloring(&out.colors));
        assert!(out.colors_used() <= 4);
    }

    #[test]
    fn example1_three_registers_suffice() {
        let m = presets::paper_machine(3);
        let (_p, pig, costs, prio) = pig_of(EXAMPLE1, &m);
        let out = combined_color(
            &pig,
            3,
            &costs,
            &prio,
            &PinterConfig::default(),
            &parsched_telemetry::NullTelemetry,
        );
        assert!(out.spilled.is_empty(), "paper: 3 registers, no spill");
        assert!(pig.graph().is_proper_coloring(&out.colors));
    }

    #[test]
    fn pressure_removes_false_edges_before_spilling() {
        // With 2 registers, Example 1 cannot keep all parallelism (the PIG
        // has a triangle), but interference alone is 2-colorable only if…
        // actually Gr has triangle s1-s3-s4 too, so 2 registers force a
        // spill; with 3 registers but a denser false set, edges go first.
        // Use a block whose Gr is 2-colorable but PIG needs 3:
        let m = presets::paper_machine(2);
        let src = r#"
            func @p(s8, s9) {
            entry:
                s1 = add s8, 1
                s2 = fadd s9, 1
                s3 = add s1, 1
                s4 = fadd s2, 1
                s5 = add s3, s3
                s6 = fadd s4, s4
                ret s6
            }
        "#;
        let (_p, pig, costs, prio) = pig_of(src, &m);
        let out = combined_color(
            &pig,
            2,
            &costs,
            &prio,
            &PinterConfig::default(),
            &parsched_telemetry::NullTelemetry,
        );
        // Int and float chains interleave: Gr is small, false edges connect
        // the chains. Two registers must cost parallelism, not spills.
        assert!(
            out.removed_false_edges > 0,
            "expected false-edge removal under pressure"
        );
        assert!(out.spilled.is_empty(), "no spill needed: {out:?}");
    }

    #[test]
    fn hopeless_pressure_spills() {
        // Three mutually-interfering live-in values + 1 register: spill.
        let m = presets::paper_machine(1);
        let src = r#"
            func @s(s0, s1, s2) {
            entry:
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
        "#;
        let (_p, pig, costs, prio) = pig_of(src, &m);
        let out = combined_color(
            &pig,
            1,
            &costs,
            &prio,
            &PinterConfig::default(),
            &parsched_telemetry::NullTelemetry,
        );
        assert!(!out.spilled.is_empty());
    }

    #[test]
    fn policies_are_deterministic() {
        let m = presets::paper_machine(2);
        let (_p, pig, costs, prio) = pig_of(EXAMPLE1, &m);
        for policy in [
            EdgeRemovalPolicy::LeastBenefit,
            EdgeRemovalPolicy::Pseudorandom { seed: 42 },
            EdgeRemovalPolicy::DegreeRelief,
        ] {
            let cfg = PinterConfig {
                edge_policy: policy,
                ..PinterConfig::default()
            };
            let a = combined_color(
                &pig,
                2,
                &costs,
                &prio,
                &cfg,
                &parsched_telemetry::NullTelemetry,
            );
            let b = combined_color(
                &pig,
                2,
                &costs,
                &prio,
                &cfg,
                &parsched_telemetry::NullTelemetry,
            );
            assert_eq!(a, b, "{policy:?} must be deterministic");
        }
    }

    #[test]
    fn hstar_with_zero_parallel_weight_matches_h_shape() {
        // Sanity: the metric degenerates without panicking and picks a
        // victim with minimal cost/degree on a clique.
        let m = presets::paper_machine(1);
        let src = r#"
            func @s(s0, s1, s2) {
            entry:
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
        "#;
        let (_p, pig, costs, prio) = pig_of(src, &m);
        let cfg = PinterConfig {
            spill_metric: SpillMetric::HStar {
                interference_weight: 1.0,
                shared_weight: 1.0,
                parallel_weight: 0.0,
            },
            ..PinterConfig::default()
        };
        let out = combined_color(
            &pig,
            1,
            &costs,
            &prio,
            &cfg,
            &parsched_telemetry::NullTelemetry,
        );
        assert!(!out.spilled.is_empty());
    }
}
