//! The compile half: batch passes, code quality, the oracle check, and
//! the traced pass.
//!
//! Timed passes go through the public `BatchDriver` with one worker and
//! `NullTelemetry`, under the ladder `psc --resilient` builds. The traced
//! pass calls `Pipeline::compile_budgeted_in`, the entry point the driver
//! uses for each rung, with a `Recorder` as its telemetry, and reads the
//! spans and counters the program already emits. Nothing is added to the
//! program.

use parsched::ir::Function;
use parsched::regalloc::AllocSession;
use parsched::telemetry::Recorder;
use parsched::{
    BatchDriver, BatchOutput, Budget, CompileResult, Driver, ParschedError, Pipeline, Strategy,
};
use parsched_verify::oracle::{self, OracleConfig};

/// Labels of the three strategies every workload measures: the
/// `psc --strategy` / `pscd` names, and the prefix of their metrics.
pub const STRATEGY_LABELS: [&str; 3] = ["combined", "sched-first", "alloc-first"];

/// The three strategies, in [`STRATEGY_LABELS`] order.
pub fn strategies() -> [(&'static str, Strategy); 3] {
    [
        ("combined", Strategy::combined()),
        ("sched-first", Strategy::SchedThenAlloc),
        ("alloc-first", Strategy::AllocThenSched),
    ]
}

/// A one-worker batch driver whose ladder leads with `strategy`, the
/// rest of `Driver::default_ladder()` behind it (as the sweep and `pscd`
/// build it), so a starved function degrades instead of failing.
pub fn batch_driver(pipeline: &Pipeline, strategy: Strategy) -> BatchDriver {
    let mut ladder = Driver::default_ladder();
    ladder.retain(|s| *s != strategy);
    ladder.insert(0, strategy);
    BatchDriver::new(Driver::new(pipeline.clone()).with_ladder(ladder)).with_jobs(1)
}

/// Emitted-code quality of one pass over a corpus, summed over functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quality {
    /// Static schedule length (`CompileStats::cycles`).
    pub cycles: u64,
    /// Registers used (`CompileStats::registers_used`).
    pub registers: u64,
    /// False dependences in the final code (`introduced_false_deps`).
    pub false_deps: u64,
    /// Loads and stores in the emitted code: the program's own memory
    /// operations plus spill code.
    pub mem_ops: u64,
    /// Values or webs spilled (`CompileStats::spilled_values`).
    pub spills: u64,
    /// Functions that left the leading rung.
    pub degraded: u64,
}

impl Quality {
    /// Adds one compiled function.
    pub fn add(&mut self, r: &CompileResult) {
        self.cycles += u64::from(r.stats.cycles);
        self.registers += u64::from(r.stats.registers_used);
        self.false_deps += r.stats.introduced_false_deps as u64;
        self.mem_ops += mem_ops(&r.function);
        self.spills += r.stats.spilled_values as u64;
        self.degraded += u64::from(r.degradation != parsched::DegradationLevel::None);
    }
}

fn mem_ops(f: &Function) -> u64 {
    f.insts()
        .filter(|(_, i)| i.mem_read().is_some() || i.mem_write().is_some())
        .count() as u64
}

/// Quality of a batch pass plus the number of functions that failed
/// every rung.
pub fn batch_quality(out: &BatchOutput) -> (Quality, u64) {
    let mut q = Quality::default();
    let mut failed = 0;
    for r in &out.results {
        match r {
            Ok(r) => q.add(r),
            Err(_) => failed += 1,
        }
    }
    (q, failed)
}

/// Runs the differential oracle on every compiled function of `out`;
/// returns the number of functions it rejected (a failed compile counts
/// as rejected too), with one line per rejection for the report. The
/// corpus is checked in two halves on two threads, one per core.
pub fn oracle_failures(funcs: &[Function], out: &BatchOutput) -> (u64, Vec<String>) {
    let half = funcs.len().div_ceil(2);
    let (front, back) = funcs.split_at(half);
    let (front_out, back_out) = out.results.split_at(half.min(out.results.len()));
    let notes: Vec<String> = std::thread::scope(|s| {
        let other = s.spawn(|| rejections(back, back_out));
        let mut notes = rejections(front, front_out);
        match other.join() {
            Ok(more) => notes.extend(more),
            Err(_) => notes.extend(
                back.iter()
                    .map(|f| format!("{}: oracle panicked", f.name())),
            ),
        }
        notes
    });
    (notes.len() as u64, notes)
}

fn rejections(funcs: &[Function], results: &[Result<CompileResult, ParschedError>]) -> Vec<String> {
    let cfg = OracleConfig::default();
    funcs
        .iter()
        .zip(results)
        .filter_map(|(f, r)| {
            let problem = match r {
                Ok(r) => oracle::check(f, r, &cfg).first().map(ToString::to_string),
                Err(e) => Some(format!("every rung failed: {e}")),
            };
            problem.map(|p| format!("{}: {p}", f.name()))
        })
        .collect()
}

/// One traced pass: every function through `Pipeline::compile_budgeted_in`,
/// the call `Driver` makes for the leading rung, with an unlimited budget
/// and `rec` as its telemetry. The program's own `pipeline.compile` span,
/// its phase spans and every span and counter emitted inside them land on
/// `rec`. Returns the pass's quality and the number of functions that
/// failed.
pub fn traced_pass(
    pipeline: &Pipeline,
    funcs: &[Function],
    strategy: &Strategy,
    rec: &Recorder,
) -> (Quality, u64) {
    let mut session = AllocSession::new();
    let mut q = Quality::default();
    let mut failed = 0;
    for f in funcs {
        match pipeline.compile_budgeted_in(&mut session, f, strategy, &Budget::unlimited(), rec) {
            Ok(r) => q.add(&r),
            Err(_) => failed += 1,
        }
    }
    (q, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::machine::presets;
    use parsched::telemetry::NullTelemetry;
    use parsched_workload::{random_cfg_function, random_dag_function, CfgParams, DagParams};

    #[test]
    fn traced_pass_matches_the_batch_and_records_the_phases() {
        let p = DagParams::default();
        let c = CfgParams {
            segments: 4,
            ops_per_block: 4,
        };
        let funcs = vec![random_dag_function(3, &p), random_cfg_function(5, &c)];
        let pipeline = Pipeline::new(presets::paper_machine(6));
        for (label, s) in strategies() {
            let rec = Recorder::new();
            let (q, failed) = traced_pass(&pipeline, &funcs, &s, &rec);
            assert_eq!(failed, 0, "{label}");
            let batch = batch_driver(&pipeline, s).compile_module(&funcs, &NullTelemetry);
            assert_eq!(batch_quality(&batch), (q, 0), "{label}");
            assert!(rec.nesting_well_formed());
            let spans = rec.spans();
            let under = |name: &str, phase: &str| {
                spans.iter().any(|x| {
                    x.name == name && x.path.starts_with(&format!("pipeline.compile/{phase}"))
                })
            };
            assert!(under("sched.list", "pipeline.final_schedule"), "{label}");
            let color = if label == "combined" {
                "combined.color"
            } else {
                "chaitin.color"
            };
            assert!(under(color, "pipeline.allocate"), "{label}");
        }
    }

    #[test]
    fn batch_pass_quality_and_oracle() {
        let p = DagParams::default();
        let funcs: Vec<Function> = (0..3).map(|s| random_dag_function(s, &p)).collect();
        let pipeline = Pipeline::new(presets::paper_machine(6));
        let out =
            batch_driver(&pipeline, Strategy::combined()).compile_module(&funcs, &NullTelemetry);
        let (q, failed) = batch_quality(&out);
        assert_eq!(failed, 0);
        assert!(q.cycles > 0 && q.registers > 0 && q.mem_ops > 0);
        assert_eq!(oracle_failures(&funcs, &out).0, 0);
    }
}
