//! Reusable scheduling sessions.
//!
//! A [`SchedSession`] owns the per-block state of Pinter's construction —
//! the dependence graph `Gs` and its reachability relation — and is reused
//! across spill rounds and across functions. Each round (and each fresh
//! block) enters via [`SchedSession::build`], which rebuilds both from
//! scratch; the relation itself lives behind
//! [`parsched_graph::Reachability`], which answers point queries, row
//! enumeration, and unordered-pair enumeration.

use crate::deps::DepGraph;
use parsched_graph::Reachability;
use parsched_ir::Block;
use std::fmt;
use std::time::Instant;

/// The session's wall-clock deadline passed mid-build.
///
/// The closure build is the longest uninterruptible loop in the pipeline;
/// it polls the clock every ~[`parsched_graph::DEADLINE_STRIDE`] units of
/// work so a deadline set via [`SchedSession::set_deadline`] trips within a
/// bounded slice of work instead of after a whole rung. The caller (the allocator's budget
/// machinery) converts this into its typed budget error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The loop that tripped (`"closure.build"`).
    pub phase: &'static str,
}

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline passed during {}", self.phase)
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Scheduling state for one block, reusable across spill rounds and across
/// functions: every [`SchedSession::build`] replaces it.
///
/// Telemetry: every closure build runs under a `closure.build` span.
#[derive(Debug)]
pub struct SchedSession {
    deps: Option<DepGraph>,
    reach: Reachability,
    /// Cooperative wall-clock deadline for the closure build.
    deadline: Option<Instant>,
}

impl Default for SchedSession {
    fn default() -> Self {
        SchedSession::new()
    }
}

impl SchedSession {
    /// Creates an empty session.
    pub fn new() -> SchedSession {
        SchedSession {
            deps: None,
            reach: Reachability::new(),
            deadline: None,
        }
    }

    /// Sets (or clears) the wall-clock deadline the closure build polls
    /// cooperatively, every ~[`parsched_graph::DEADLINE_STRIDE`] units of
    /// work inside [`SchedSession::build`].
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The currently configured cooperative deadline.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Rebuilds everything from scratch for `block`: the entry point for a
    /// fresh block, for each spill round's rewritten block, and the reset
    /// between functions.
    ///
    /// # Errors
    /// Returns [`DeadlineExceeded`] when the session deadline (see
    /// [`SchedSession::set_deadline`]) passes mid-build; the session is
    /// left empty, never half-built.
    pub fn build(
        &mut self,
        block: &Block,
        telemetry: &dyn parsched_telemetry::Telemetry,
    ) -> Result<(), DeadlineExceeded> {
        let deps = DepGraph::build(block, telemetry);
        let reach = {
            let _s = parsched_telemetry::span(telemetry, "closure.build");
            Reachability::build(deps.graph(), self.deadline)
        };
        let Some(reach) = reach else {
            self.deps = None;
            self.reach = Reachability::new();
            return Err(DeadlineExceeded {
                phase: "closure.build",
            });
        };
        self.reach = reach;
        self.deps = Some(deps);
        Ok(())
    }

    /// The current dependence graph, if a block has been built.
    pub fn deps(&self) -> Option<&DepGraph> {
        self.deps.as_ref()
    }

    /// The current reachability relation (empty until a block is built).
    pub fn reachability(&self) -> &Reachability {
        &self.reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_telemetry::NullTelemetry;

    fn block(src: &str) -> Block {
        match parse_function(src) {
            Ok(f) => f.blocks()[0].clone(),
            Err(e) => unreachable!("test input is fixed and valid: {e:?}"),
        }
    }

    /// Asserts the session's relation equals the closure of `b`'s
    /// dependence graph, row by row.
    fn assert_closure_of(sess: &SchedSession, b: &Block) {
        let reference = DepGraph::build(b, &NullTelemetry).graph().reachability();
        let reach = sess.reachability();
        assert_eq!(reach.len(), reference.size());
        for i in 0..reach.len() {
            assert!(reach.row_iter(i).eq(reference.row(i).iter()), "row {i}");
        }
    }

    #[test]
    fn full_build_matches_reachability() {
        let b = block(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = mul s2, s1
                ret s3
            }
            "#,
        );
        let mut sess = SchedSession::new();
        assert!(sess.build(&b, &NullTelemetry).is_ok());
        assert_closure_of(&sess, &b);
    }

    #[test]
    fn rebuild_after_insertions_is_exact() {
        let old = block(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = mul s2, s1
                ret s3
            }
            "#,
        );
        // The same block after a spill rewrite: a store after inst 0 and a
        // reload before inst 2. Building it replaces the old state.
        let new = block(
            r#"
            func @f(s0) {
            entry:
                s1 = load [s0 + 0]
                store s1, [@__spill + 0]
                s2 = add s1, 1
                s9 = load [@__spill + 0]
                s3 = mul s2, s9
                ret s3
            }
            "#,
        );
        let mut sess = SchedSession::new();
        assert!(sess.build(&old, &NullTelemetry).is_ok());
        assert!(sess.build(&new, &NullTelemetry).is_ok());
        assert_closure_of(&sess, &new);
    }

    #[test]
    fn expired_deadline_trips_the_build_cooperatively() {
        // A block big enough that the closure loop polls the clock at
        // least once (the stride is 1024 units of work).
        let mut src = String::from("func @big(s0) {\nentry:\n");
        for i in 0..1500 {
            src.push_str(&format!("    s{} = add s{}, 1\n", i + 1, i));
        }
        src.push_str("    ret s1500\n}");
        let b = block(&src);
        let mut sess = SchedSession::new();
        sess.set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        let err = sess.build(&b, &NullTelemetry);
        assert_eq!(
            err,
            Err(DeadlineExceeded {
                phase: "closure.build"
            })
        );
        // The failed build leaves no half-built state behind.
        assert!(sess.deps().is_none());
        assert!(sess.reachability().is_empty());
        // Clearing the deadline makes the same block build fine.
        sess.set_deadline(None);
        assert!(sess.build(&b, &NullTelemetry).is_ok());
        assert!(sess.deps().is_some());
    }
}
