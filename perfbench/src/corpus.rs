//! The benchmark's workloads, generated from the workload seed.
//!
//! Every workload is one corpus of functions on one machine. The compile
//! half of a run compiles the corpus in batch under the three strategies;
//! the service half sends the same functions, under the same three
//! strategies, to an in-process `pscd` service as a closed-loop request
//! stream in which one request in three repeats an earlier one. Why each
//! corpus was chosen is in README.md.

use crate::compile::STRATEGY_LABELS;
use parsched::ir::{print_function, Function};
use parsched::machine::{presets, MachineDesc};
use parsched::telemetry::escape_json;
use parsched_workload::{
    random_cfg_function, random_dag_function, CfgParams, DagParams, SplitMix64,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["pressure", "service"];

/// Repeats per distinct request in the service stream: one for every two,
/// so exactly a third of all requests are repeats. Kept below a half so
/// that the median request is a compile (a cache miss), not a cache hit.
const REPEATS_PER_SOURCE: f64 = 0.5;

/// One request of the service stream.
pub struct Request {
    /// The full request line, without an id (see [`Request::line`]).
    body: String,
    /// Index of the (function, strategy) pair this asks for.
    pub source: usize,
    /// Whether an earlier request of the stream asked for the same source.
    pub repeat: bool,
}

impl Request {
    /// The newline-free JSON request line carrying `id`.
    pub fn line(&self, id: usize) -> String {
        format!("{{\"id\":{id},{}", self.body)
    }
}

/// A generated workload.
pub struct Workload {
    /// Name from [`WORKLOADS`].
    pub name: &'static str,
    /// The target machine.
    pub machine: MachineDesc,
    /// The corpus, in a fixed order.
    pub funcs: Vec<Function>,
    /// The closed-loop service stream.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    ///
    /// At seed 0 the first 32 `pressure` functions are the `pressure`
    /// corpus of the older `BENCH_parallel.json` sweep; any other seed
    /// shifts every function seed by `seed << 20`, so corpora never
    /// overlap.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let base = seed.wrapping_shl(20);
        let (name, regs, funcs): (&'static str, u32, Vec<Function>) = match name {
            "pressure" => {
                let p = DagParams {
                    size: 48,
                    load_fraction: 0.2,
                    float_fraction: 0.3,
                    window: 24,
                };
                let funcs = (0..96)
                    .map(|s| random_dag_function(base.wrapping_add(s * 17 + 3), &p))
                    .collect();
                ("pressure", 6, funcs)
            }
            "service" => {
                let dag = DagParams {
                    size: 36,
                    load_fraction: 0.25,
                    float_fraction: 0.4,
                    window: 6,
                };
                let cfg = CfgParams {
                    segments: 4,
                    ops_per_block: 4,
                };
                let funcs = (0..1600)
                    .map(|s| {
                        let fs = base.wrapping_add(s * 7 + 13);
                        if s % 2 == 1 {
                            random_cfg_function(fs, &cfg)
                        } else {
                            random_dag_function(fs, &dag)
                        }
                    })
                    .collect();
                ("service", 12, funcs)
            }
            _ => return None,
        };
        let requests = stream(&funcs, regs, seed);
        Some(Workload {
            name,
            machine: presets::paper_machine(regs),
            funcs,
            requests,
        })
    }

    /// Number of distinct requests in the stream: one per (function,
    /// strategy) pair.
    pub fn sources(&self) -> usize {
        self.funcs.len() * STRATEGY_LABELS.len()
    }
}

/// The seeded closed-loop stream: every (function, strategy) pair once, in
/// shuffled order, with repeats of already-sent requests at seeded
/// positions.
fn stream(funcs: &[Function], regs: u32, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5e41_1ce5);
    let bodies: Vec<String> = funcs
        .iter()
        .flat_map(|f| {
            let src = escape_json(&print_function(f));
            STRATEGY_LABELS.iter().map(move |label| {
                format!(
                    "\"op\":\"compile\",\"src\":\"{src}\",\"machine\":\"paper\",\
                     \"regs\":{regs},\"strategy\":\"{label}\"}}"
                )
            })
        })
        .collect();
    let mut order: Vec<usize> = (0..bodies.len()).collect();
    shuffle(&mut order, &mut rng);
    // Which stream positions repeat: a shuffled mask, exact in count; the
    // first request cannot repeat anything.
    let repeats = (bodies.len() as f64 * REPEATS_PER_SOURCE) as usize;
    let mut mask: Vec<bool> = vec![false; bodies.len() - 1];
    mask.extend(std::iter::repeat_n(true, repeats));
    shuffle(&mut mask, &mut rng);
    mask.insert(0, false);
    let mut fresh = order.into_iter();
    let mut sent: Vec<usize> = Vec::with_capacity(bodies.len());
    mask.into_iter()
        .filter_map(|repeat| {
            let source = if repeat {
                sent[rng.gen_range_usize(0, sent.len())]
            } else {
                let s = fresh.next()?;
                sent.push(s);
                s
            };
            Some(Request {
                body: bodies[source].clone(),
                source,
                repeat,
            })
        })
        .collect()
}

fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix64) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range_usize(0, i + 1);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_seeded_and_distinct() {
        for name in WORKLOADS {
            let a = Workload::build(name, 7).unwrap();
            let b = Workload::build(name, 7).unwrap();
            let c = Workload::build(name, 8).unwrap();
            assert_eq!(a.funcs, b.funcs, "{name}: same seed, same corpus");
            assert_ne!(a.funcs, c.funcs, "{name}: other seed, other corpus");
            let lines: Vec<String> = a.requests.iter().map(|r| r.line(0)).collect();
            let again: Vec<String> = b.requests.iter().map(|r| r.line(0)).collect();
            assert_eq!(lines, again, "{name}: same seed, same stream");
        }
        assert!(Workload::build("nope", 0).is_none());
    }

    #[test]
    fn stream_sends_every_source_once_cold_then_repeats() {
        let w = Workload::build("pressure", 0).unwrap();
        let mut seen = vec![false; w.sources()];
        for r in &w.requests {
            assert_eq!(r.repeat, seen[r.source]);
            seen[r.source] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let repeats = w.requests.iter().filter(|r| r.repeat).count();
        assert_eq!(repeats * 3, w.requests.len());
    }

    #[test]
    fn seed_zero_matches_the_sweep_corpus() {
        let w = Workload::build("pressure", 0).unwrap();
        assert_eq!(w.funcs[2].name(), "dag_37");
    }
}
