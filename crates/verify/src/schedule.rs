//! Schedule-legality checking by in-order replay.
//!
//! A `CompileResult` carries the scheduled code in *linearized* form
//! (cycle-major order) plus the claimed per-block completion cycles. The
//! checker re-derives dependences independently (`analyze`) and replays
//! the emitted order through its own per-cycle unit counter, giving every
//! instruction the earliest cycle that respects dependences, the machine's
//! issue width and unit counts, and the nondecreasing-cycle property of a
//! linearization. For any legal schedule consistent with the emitted order
//! the replay completes no later (a standard greedy exchange argument, valid
//! because units are booked for the issue cycle only), so
//!
//! > replay completion > claimed completion ⇒ the claim is unachievable
//!
//! which catches dependence-latency violations, issue-width and same-cycle
//! unit oversubscription baked into the claim, misplaced terminators, and
//! fabricated `block_cycles`/`stats.cycles` values.

use crate::analyze;
use crate::{Check, Violation};
use parsched::CompileResult;
use parsched_ir::{BlockId, Function};
use parsched_machine::{MachineDesc, OpClass};

/// Checks every block of `result` against `machine`. `original` is only
/// used for context in messages; the replay needs nothing from it.
pub fn check(original: &Function, result: &CompileResult, machine: &MachineDesc) -> Vec<Violation> {
    let mut out = Vec::new();
    let func = &result.function;
    if result.block_cycles.len() != func.block_count() {
        out.push(Violation {
            check: Check::Schedule,
            function: original.name().to_string(),
            block: None,
            detail: format!(
                "block_cycles has {} entries for {} blocks",
                result.block_cycles.len(),
                func.block_count()
            ),
        });
        return out;
    }
    let mut total: u64 = 0;
    for b in 0..func.block_count() {
        let claimed = result.block_cycles[b];
        total += u64::from(claimed);
        if let Some(v) = check_block(original, func, b, claimed, machine) {
            out.push(v);
        }
    }
    if total != u64::from(result.stats.cycles) {
        out.push(Violation {
            check: Check::Schedule,
            function: original.name().to_string(),
            block: None,
            detail: format!(
                "stats.cycles = {} but block_cycles sum to {total}",
                result.stats.cycles
            ),
        });
    }
    out
}

fn check_block(
    original: &Function,
    func: &Function,
    b: usize,
    claimed: u32,
    machine: &MachineDesc,
) -> Option<Violation> {
    let block = func.block(BlockId(b));
    let body = block.body();
    let deps = analyze::build(block);
    let n = body.len();

    // Dependences must point forward in the emitted order (they do by
    // construction of the analysis); what can fail is the cycle claim.
    let mut preds: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for e in &deps.edges {
        let lat = analyze::edge_latency(machine, &deps.classes, e);
        preds[e.to].push((e.from, lat));
    }

    let mut slots = CycleSlots::new(machine);
    let mut cycles: Vec<u32> = Vec::with_capacity(n);
    let mut floor: u32 = 0;
    for (i, ps) in preds.iter().enumerate() {
        let mut earliest = floor;
        for &(p, lat) in ps {
            earliest = earliest.max(cycles[p] + lat);
        }
        let c = slots.next_free(machine, deps.classes[i], earliest);
        slots.book(machine, deps.classes[i], c);
        floor = c;
        cycles.push(c);
    }

    let mut completion: u32 = cycles
        .iter()
        .enumerate()
        .map(|(i, &c)| c + machine.latency(deps.classes[i]))
        .max()
        .unwrap_or(0);
    if let Some(term) = block.terminator() {
        let mut earliest = floor;
        for (i, inst) in body.iter().enumerate() {
            let defs = inst.defs();
            if term.uses().iter().any(|u| defs.contains(u)) {
                earliest = earliest.max(cycles[i] + machine.latency(deps.classes[i]));
            }
        }
        let tclass = analyze::class_of(term);
        let tc = slots.next_free(machine, tclass, earliest);
        completion = completion.max(tc + 1);
    }

    if completion > claimed {
        return Some(Violation {
            check: Check::Schedule,
            function: original.name().to_string(),
            block: Some(b),
            detail: format!(
                "claimed {claimed} cycles, but the emitted order needs at least \
                 {completion} on {} (dependence, issue-width, or unit constraints \
                 make the claim unachievable)",
                machine.name()
            ),
        });
    }
    None
}

/// Issue-slot and unit bookings for the in-order replay. The replay books
/// at non-decreasing cycles and only ever asks about cycles at or after
/// its latest booking, so the counts of that one cycle are all it needs:
/// every later cycle is empty.
///
/// This deliberately duplicates the few lines of the machine crate's
/// `ReservationTable` that the replay would use: the scheduler books
/// through that table, so a bug in it must not also shape the check that
/// re-derives the claimed cycles.
struct CycleSlots {
    cycle: u32,
    issued: usize,
    units: Vec<usize>,
}

impl CycleSlots {
    fn new(machine: &MachineDesc) -> CycleSlots {
        CycleSlots {
            cycle: 0,
            issued: 0,
            units: vec![0; machine.units().len()],
        }
    }

    /// Whether an instruction of `class` fits at `cycle` (at or after the
    /// latest booking).
    fn fits(&self, machine: &MachineDesc, class: OpClass, cycle: u32) -> bool {
        let booked = cycle == self.cycle;
        let issued = if booked { self.issued } else { 0 };
        if issued >= machine.issue_width() {
            return false;
        }
        if class == OpClass::Nop {
            return true;
        }
        let unit = machine.route(class).unit;
        let used = if booked { self.units[unit] } else { 0 };
        used < machine.units()[unit].count
    }

    /// The first cycle `>= from` at which `class` fits.
    fn next_free(&self, machine: &MachineDesc, class: OpClass, from: u32) -> u32 {
        let mut c = from;
        while !self.fits(machine, class, c) {
            c += 1;
        }
        c
    }

    /// Books an instruction of `class` at `cycle`, which must fit.
    fn book(&mut self, machine: &MachineDesc, class: OpClass, cycle: u32) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.issued = 0;
            self.units.fill(0);
        }
        self.issued += 1;
        if class != OpClass::Nop {
            self.units[machine.route(class).unit] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    #[test]
    fn oversubscribed_cycle_moves_to_the_next() {
        // One fetch unit: a second load in cycle 0 must wait for cycle 1,
        // while an integer op still fits beside the first load.
        let m = presets::paper_machine(8);
        let mut slots = CycleSlots::new(&m);
        assert_eq!(slots.next_free(&m, OpClass::MemLoad, 0), 0);
        slots.book(&m, OpClass::MemLoad, 0);
        assert_eq!(slots.next_free(&m, OpClass::MemLoad, 0), 1);
        assert_eq!(slots.next_free(&m, OpClass::IntAlu, 0), 0);
        // Issue width two: three ops of free units still take two cycles.
        let w = presets::wide(2, 8);
        let mut slots = CycleSlots::new(&w);
        slots.book(&w, OpClass::IntAlu, 3);
        slots.book(&w, OpClass::Nop, 3);
        assert_eq!(slots.next_free(&w, OpClass::Nop, 3), 4);
        slots.book(&w, OpClass::Nop, 4);
        assert_eq!(slots.next_free(&w, OpClass::IntAlu, 4), 4);
    }

    #[test]
    fn claim_that_oversubscribes_a_unit_is_rejected() {
        // Two independent loads share the paper machine's single fetch
        // unit, so the block needs cycles 0 and 1 plus the load latency.
        let f = parse_function(
            "func @two(s0) {\nentry:\n    s1 = load [s0 + 0]\n    s2 = load [s0 + 8]\n    ret s0\n}",
        )
        .map_err(|e| e.to_string());
        let Ok(f) = f else {
            unreachable!("the test function parses");
        };
        let m = presets::paper_machine(8);
        let needed = 1 + m.latency(OpClass::MemLoad);
        assert!(check_block(&f, &f, 0, needed, &m).is_none());
        let v = check_block(&f, &f, 0, needed - 1, &m);
        assert!(v.is_some_and(|v| v.check == Check::Schedule));
    }
}
