//! Gibbons–Muchnick list scheduling with functional-unit reservation.

use crate::deps::DepGraph;
use crate::schedule::{BlockSchedule, SchedError};
use parsched_ir::Block;
use parsched_machine::MachineDesc;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ready-list priority policy for the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPriority {
    /// Latency-weighted critical-path height (classic; the default).
    #[default]
    CriticalPath,
    /// Original program order — the "no scheduler" control.
    SourceOrder,
    /// Most immediate successors first (fan-out greedy), a common
    /// alternative from the microcode-compaction literature. Counts
    /// successors in the [`DepGraph`], whose register anti/output edges are
    /// reduced: on code that reuses registers a def has fewer dependents
    /// than in the paper's full relation (symbolic code is unaffected).
    FanOut,
}

/// List-schedules the body of `block` on `machine`.
///
/// # Examples
///
/// ```
/// use parsched_ir::{parse_function, BlockId};
/// use parsched_machine::presets;
/// use parsched_sched::{list_schedule, DepGraph, SchedPriority};
/// use parsched_telemetry::NullTelemetry;
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = fadd s0, 2\n    s3 = add s1, s2\n    ret s3\n}",
/// )?;
/// let block = f.block(BlockId(0));
/// let deps = DepGraph::build(block, &NullTelemetry);
/// let schedule = list_schedule(
///     block,
///     &deps,
///     &presets::paper_machine(8),
///     SchedPriority::CriticalPath,
///     &NullTelemetry,
/// )?;
/// // The int and float ops dual-issue in cycle 0.
/// assert_eq!(schedule.cycle(0), 0);
/// assert_eq!(schedule.cycle(1), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The classic greedy algorithm of Gibbons & Muchnick (SIGPLAN '86): keep a
/// ready list of instructions whose predecessors have completed; each cycle,
/// issue ready instructions in priority order (critical-path height, ties
/// broken by original position) while units and issue slots remain; then
/// advance the clock. The terminator issues in the first cycle ≥ every body
/// issue that satisfies its data inputs and resources.
///
/// The scheduler is event-driven: an instruction whose last predecessor
/// issues is *released* into a min-heap keyed by its earliest cycle, joins
/// the priority-ordered ready list once the clock reaches that cycle, and a
/// cycle in which nothing is ready jumps straight to the next release.
/// Instructions released during a pass wait for the next pass, and a cycle
/// is retried while one of them (a zero-latency successor) can still issue
/// in it.
///
/// Ready-list pressure is reported to `telemetry`: `sched.ready_len`
/// (gauge, peak ready-list length), `sched.issue_cycles` (scheduler passes
/// that issued at least one instruction) and `sched.stall_cycles` (cycles
/// advanced with nothing ready or issuable).
///
/// The result is validated against the dependence graph before being
/// returned, so a bug here surfaces as [`SchedError::Invalid`] rather than
/// silently corrupting the evaluation.
///
/// # Errors
/// Returns [`SchedError::Invalid`] if the produced schedule fails
/// validation.
pub fn list_schedule(
    block: &Block,
    deps: &DepGraph,
    machine: &MachineDesc,
    priority: SchedPriority,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Result<BlockSchedule, SchedError> {
    let _span = parsched_telemetry::span(telemetry, "sched.list");
    let n = deps.len();
    let heights: Vec<u32> = match priority {
        SchedPriority::CriticalPath => deps.heights(machine),
        SchedPriority::SourceOrder => (0..n).map(|i| (n - i) as u32).collect(),
        SchedPriority::FanOut => (0..n).map(|i| deps.graph().out_degree(i) as u32).collect(),
    };
    // Issue order within a pass: greatest height first, then body order.
    let rank = |i: u32| (Reverse(heights[i as usize]), i);

    // earliest[i]: lower bound on issue cycle from already-scheduled preds.
    let mut earliest = vec![0u32; n];
    let mut unscheduled_preds: Vec<usize> = (0..n).map(|i| deps.graph().in_degree(i)).collect();
    let mut cycles = vec![u32::MAX; n];
    let mut remaining = n;
    let mut rt = machine.reservation_table();
    let mut cycle: u32 = 0;
    // Instructions whose predecessors have all issued, by (earliest, index).
    let mut released: BinaryHeap<Reverse<(u32, u32)>> = (0..n as u32)
        .filter(|&i| unscheduled_preds[i as usize] == 0)
        .map(|i| Reverse((0, i)))
        .collect();
    // Released and latency-satisfied, sorted by `rank`.
    let mut ready: Vec<u32> = Vec::new();
    let mut arriving: Vec<u32> = Vec::new();
    let mut merged: Vec<u32> = Vec::new();
    // Instructions released during the current pass that could still
    // issue in its cycle (zero-latency successors).
    let mut same_cycle: Vec<u32> = Vec::new();

    let trace = telemetry.enabled();
    while remaining > 0 {
        while let Some(&Reverse((at, i))) = released.peek() {
            if at > cycle {
                break;
            }
            released.pop();
            arriving.push(i);
        }
        if !arriving.is_empty() {
            arriving.sort_unstable_by_key(|&i| rank(i));
            merge_by(&ready, &arriving, &mut merged, rank);
            std::mem::swap(&mut ready, &mut merged);
            arriving.clear();
        }
        if trace {
            telemetry.gauge("sched.ready_len", ready.len() as u64);
        }

        let mut issued_any = false;
        same_cycle.clear();
        ready.retain(|&i| {
            let class = deps.class(i as usize);
            if !rt.can_issue(machine, class, cycle) {
                return true;
            }
            rt.issue(machine, class, cycle);
            cycles[i as usize] = cycle;
            remaining -= 1;
            issued_any = true;
            for edge in deps.out_edges(i as usize) {
                let to = edge.to;
                unscheduled_preds[to] -= 1;
                earliest[to] = earliest[to].max(cycle + deps.edge_latency(machine, &edge));
                if unscheduled_preds[to] == 0 {
                    released.push(Reverse((earliest[to], to as u32)));
                    if earliest[to] <= cycle {
                        same_cycle.push(to as u32);
                    }
                }
            }
            false
        });
        if !issued_any {
            // Nothing issued in a cycle with no bookings yet: with a
            // non-empty ready list the next cycle frees its units; with an
            // empty one, nothing changes before the next release.
            let next = match (ready.is_empty(), released.peek()) {
                (false, _) => cycle + 1,
                (true, Some(&Reverse((at, _)))) => at.max(cycle + 1),
                (true, None) => unreachable!("an acyclic graph always releases a node"),
            };
            if trace {
                telemetry.counter("sched.stall_cycles", u64::from(next - cycle));
            }
            cycle = next;
        } else {
            if trace {
                telemetry.counter("sched.issue_cycles", 1);
            }
            // Retry the same cycle for newly-ready zero-latency successors
            // that still fit; every instruction left in the ready list
            // already failed to fit this cycle, and bookings only grow.
            let more_ready = same_cycle
                .iter()
                .any(|&i| rt.can_issue(machine, deps.class(i as usize), cycle));
            if !more_ready {
                cycle += 1;
            }
        }
    }

    // Terminator placement.
    let term_cycle = block.terminator().map(|term| {
        let term_uses = term.uses();
        let mut tc = cycles.iter().copied().max().unwrap_or(0);
        for (i, inst) in block.body().iter().enumerate() {
            let defs = inst.defs();
            if term_uses.iter().any(|u| defs.contains(u)) {
                tc = tc.max(cycles[i] + machine.latency(deps.class(i)));
            }
        }
        let tclass = crate::deps::op_class(term);
        rt.next_free_cycle(machine, tclass, tc)
    });

    Ok(BlockSchedule::new(
        block, deps, machine, cycles, term_cycle,
    )?)
}

/// Merges the sorted slices `a` and `b` (ordered by `key`, keys distinct)
/// into `out`.
fn merge_by<K: Ord>(a: &[u32], b: &[u32], out: &mut Vec<u32>, key: impl Fn(u32) -> K) {
    out.clear();
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        if key(a[x]) < key(b[y]) {
            out.push(a[x]);
            x += 1;
        } else {
            out.push(b[y]);
            y += 1;
        }
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    fn block(src: &str) -> Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    #[test]
    fn parallel_issue_on_paper_machine() {
        // Example 2's core pattern: fixed and float streams interleave.
        let b = block(
            r#"
            func @mix(s0, s1) {
            entry:
                s2 = add s0, s1
                s3 = fadd s0, s1
                s4 = add s2, s0
                s5 = fadd s3, s0
                ret s5
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        // Fixed and float pairs dual-issue: 2 cycles of work.
        assert_eq!(s.cycle(0), 0);
        assert_eq!(s.cycle(1), 0);
        assert_eq!(s.cycle(2), 1);
        assert_eq!(s.cycle(3), 1);
    }

    #[test]
    fn single_issue_serializes() {
        let b = block(
            r#"
            func @ser(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s0, 2
                s3 = add s0, 3
                ret s3
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::single_issue(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        let mut cs: Vec<u32> = s.cycles().to_vec();
        cs.sort();
        assert_eq!(cs, vec![0, 1, 2]);
    }

    #[test]
    fn latency_gaps_are_filled() {
        // Load (latency 2) then dependent add; an independent add fills the
        // delay slot on a single-issue pipeline.
        let b = block(
            r#"
            func @slot(s0, s1) {
            entry:
                s2 = load [s0 + 0]
                s3 = add s2, 1
                s4 = add s1, 1
                s5 = add s3, s4
                ret s5
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::mips_r3000(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        assert_eq!(s.cycle(0), 0, "load first (highest path)");
        assert_eq!(s.cycle(2), 1, "independent add fills the slot");
        assert_eq!(s.cycle(1), 2, "dependent add after load latency");
    }

    #[test]
    fn empty_body_schedules() {
        let b = block("func @e() {\nentry:\n    ret\n}");
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::single_issue(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        assert_eq!(s.term_cycle(), Some(0));
        assert_eq!(s.completion_cycles(), 1);
    }

    #[test]
    fn anti_dependence_allows_same_cycle_order() {
        // Post-allocation code where r1 is read then rewritten: the reader
        // and writer may share a cycle on a wide machine, with the reader
        // first in linear order.
        let b = block(
            r#"
            func @anti(r0) {
            entry:
                r1 = add r0, 1
                r2 = add r1, 1
                r1 = add r0, 2
                ret r1
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::wide(4, 8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        // inst1 (reads r1) and inst2 (redefines r1) — anti edge lets them
        // share cycle 1.
        assert!(s.cycle(2) >= s.cycle(1));
        let lin = s.linearize(&b);
        // Linearized order keeps reader before writer.
        let pos_reader = lin.insts().iter().position(|i| i == &b.body()[1]).unwrap();
        let pos_writer = lin.insts().iter().position(|i| i == &b.body()[2]).unwrap();
        assert!(pos_reader < pos_writer);
    }

    #[test]
    fn priority_policies_all_produce_valid_schedules() {
        let b = block(
            r#"
            func @p(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = fadd s1, 1
                s4 = load [s0 + 8]
                s5 = add s2, s4
                s6 = fadd s3, s3
                s7 = add s5, s6
                ret s7
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(16);
        let cp = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        let so = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::SourceOrder,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        let fo = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::FanOut,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        // All valid (construction validates); critical path is never worse
        // than source order on this block.
        assert!(cp.completion_cycles() <= so.completion_cycles());
        assert!(fo.completion_cycles() >= 1);
        assert_eq!(
            list_schedule(
                &b,
                &deps,
                &m,
                SchedPriority::CriticalPath,
                &parsched_telemetry::NullTelemetry
            )
            .unwrap(),
            cp,
            "default is critical path"
        );
    }

    #[test]
    fn respects_memory_dependences() {
        let b = block(
            r#"
            func @mem(s0) {
            entry:
                store s0, [@g + 0]
                s1 = load [@g + 0]
                ret s1
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::wide(4, 8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        assert!(s.cycle(1) > s.cycle(0));
    }
}
