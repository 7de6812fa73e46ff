//! Cycle-by-cycle functional-unit booking for list scheduling.

use crate::{MachineDesc, OpClass};

/// Tracks how many instances of each unit kind are in use and how many
/// instructions have issued, so the scheduler can ask "can an instruction
/// of class `c` issue at cycle `t`?".
///
/// Units are booked for the issue cycle only (fully pipelined units);
/// latency is modelled on dependence edges, not unit occupancy, matching
/// the machines the paper considers.
///
/// Bookings must come at non-decreasing cycles, and queries at or after
/// the latest booking: every caller schedules forward in time. So the
/// table keeps the counts of its latest booked cycle only, and every later
/// cycle is empty. A query for an earlier cycle reads as full (and trips a
/// debug assertion), so it can never oversubscribe a unit.
#[derive(Debug, Clone)]
pub struct ReservationTable {
    unit_counts: Vec<usize>,
    issue_width: usize,
    /// The latest booked cycle (0 while nothing is booked).
    cycle: u32,
    /// `[issued, unit 0, unit 1, …]` at `cycle`.
    used: Vec<usize>,
}

impl ReservationTable {
    /// Creates an empty table for `machine`.
    pub fn new(machine: &MachineDesc) -> ReservationTable {
        let unit_counts: Vec<usize> = machine.units().iter().map(|u| u.count).collect();
        ReservationTable {
            used: vec![0; unit_counts.len() + 1],
            unit_counts,
            issue_width: machine.issue_width(),
            cycle: 0,
        }
    }

    /// Whether an instruction of `class` (routed by `machine`) can issue at
    /// `cycle` given current bookings. `cycle` must not precede the latest
    /// booking.
    pub fn can_issue(&self, machine: &MachineDesc, class: OpClass, cycle: u32) -> bool {
        debug_assert!(
            cycle >= self.cycle,
            "query at cycle {cycle} precedes the booking at {}",
            self.cycle
        );
        if cycle < self.cycle {
            return false;
        }
        let booked = cycle == self.cycle;
        let used = |slot: usize| if booked { self.used[slot] } else { 0 };
        if used(0) >= self.issue_width {
            return false;
        }
        if class == OpClass::Nop {
            return true;
        }
        let unit = machine.route(class).unit;
        used(1 + unit) < self.unit_counts[unit]
    }

    /// Books an instruction of `class` at `cycle`.
    ///
    /// # Panics
    /// Panics if [`can_issue`](Self::can_issue) would return false — the
    /// scheduler must check first.
    pub fn issue(&mut self, machine: &MachineDesc, class: OpClass, cycle: u32) {
        assert!(
            self.can_issue(machine, class, cycle),
            "cannot issue {class} at cycle {cycle}"
        );
        if cycle != self.cycle {
            self.cycle = cycle;
            self.used.fill(0);
        }
        self.used[0] += 1;
        if class != OpClass::Nop {
            self.used[1 + machine.route(class).unit] += 1;
        }
    }

    /// The first cycle `>= from` at which `class` can issue. `from` must
    /// not precede the latest booking.
    pub fn next_free_cycle(&self, machine: &MachineDesc, class: OpClass, from: u32) -> u32 {
        let mut c = from;
        // Every cycle after the latest booking is free, so this terminates
        // quickly.
        while !self.can_issue(machine, class, c) {
            c += 1;
        }
        c
    }

    /// Drops every booking.
    pub fn clear(&mut self) {
        self.cycle = 0;
        self.used.fill(0);
    }

    /// Number of instructions issued at `cycle`, which must not precede the
    /// latest booking.
    pub fn issued_at(&self, cycle: u32) -> usize {
        if cycle == self.cycle {
            self.used[0]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn books_single_units() {
        let m = presets::paper_machine(16);
        let mut rt = m.reservation_table();
        assert!(rt.can_issue(&m, OpClass::MemLoad, 0));
        rt.issue(&m, OpClass::MemLoad, 0);
        // Fetch unit taken; another load must wait.
        assert!(!rt.can_issue(&m, OpClass::MemLoad, 0));
        assert_eq!(rt.next_free_cycle(&m, OpClass::MemLoad, 0), 1);
        // Fixed-point op still fine this cycle.
        assert!(rt.can_issue(&m, OpClass::IntAlu, 0));
        rt.issue(&m, OpClass::IntAlu, 0);
        assert_eq!(rt.issued_at(0), 2);
    }

    #[test]
    fn issue_width_caps_total() {
        let m = presets::wide(2, 8);
        let mut rt = m.reservation_table();
        rt.issue(&m, OpClass::IntAlu, 3);
        rt.issue(&m, OpClass::MemLoad, 3);
        assert!(!rt.can_issue(&m, OpClass::IntAlu, 3), "issue width 2");
        assert!(rt.can_issue(&m, OpClass::IntAlu, 4));
    }

    #[test]
    fn nop_needs_no_unit_but_counts_against_width() {
        let m = presets::single_issue(8);
        let mut rt = m.reservation_table();
        rt.issue(&m, OpClass::Nop, 0);
        assert!(!rt.can_issue(&m, OpClass::IntAlu, 0));
    }

    #[test]
    #[should_panic(expected = "cannot issue")]
    fn double_booking_panics() {
        let m = presets::single_issue(8);
        let mut rt = m.reservation_table();
        rt.issue(&m, OpClass::IntAlu, 0);
        rt.issue(&m, OpClass::IntAlu, 0);
    }

    #[test]
    fn far_cycles_book_in_constant_space() {
        // A booking near u32::MAX and a search from a large `from` take
        // no storage beyond the one row of counts.
        let m = presets::paper_machine(16);
        let mut rt = m.reservation_table();
        let far = u32::MAX - 3;
        assert_eq!(rt.next_free_cycle(&m, OpClass::MemLoad, far), far);
        rt.issue(&m, OpClass::MemLoad, far);
        assert!(!rt.can_issue(&m, OpClass::MemLoad, far));
        assert_eq!(rt.next_free_cycle(&m, OpClass::MemLoad, far), far + 1);
        assert_eq!(rt.next_free_cycle(&m, OpClass::IntAlu, far), far);
        assert_eq!(rt.issued_at(far), 1);
        assert_eq!(rt.used.len(), m.units().len() + 1);
        rt.clear();
        assert_eq!(rt.next_free_cycle(&m, OpClass::MemLoad, 0), 0);
    }
}
