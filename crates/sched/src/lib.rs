//! Schedule graphs and instruction scheduling for `parsched`.
//!
//! This crate builds the *schedule graph* `Gs` of Pinter (PLDI 1993) — data
//! dependences (flow / anti / output), memory dependences with base+offset
//! disambiguation, and control/machine precedence constraints — and provides
//! the scheduling machinery the paper's framework rests on:
//!
//! * [`DepGraph`] — per-block dependence graph over the block body;
//! * [`op_class`] — mapping from IR instructions to machine `OpClass`es;
//! * [`ep`] — earliest-possible-time numbering and the paper's EP-based
//!   pre-scheduling reordering pass (Section 4);
//! * [`list_schedule`] — a Gibbons–Muchnick list scheduler with functional
//!   unit reservation, producing a validated [`BlockSchedule`];
//! * [`falsedep`] — the set `Et` (undirected transitive closure of `Gs`
//!   plus non-precedence machine constraints), its complement `Ef` (the
//!   false-dependence graph, Lemma 1), and detection of false dependences
//!   introduced by a register allocation;
//! * [`SchedSession`] — a reusable session owning the dependence graph and
//!   its reachability relation, rebuilt from scratch every spill round;
//! * [`region`] — dominator/post-dominator *plausible pair* region
//!   formation for inter-block scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cyclesim;
mod deps;
pub mod ep;
pub mod falsedep;
mod list;
pub mod region;
mod schedule;
mod session;

pub use deps::{op_class, DepEdge, DepGraph, DepKind, OutputPairs};
pub use list::{list_schedule, SchedPriority};
pub use schedule::{BlockSchedule, SchedError, ScheduleError};
pub use session::{DeadlineExceeded, SchedSession};
