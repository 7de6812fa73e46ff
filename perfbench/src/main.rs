//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pressure|service \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! makes a separate traced run for the per-layer split. Either way the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; progress and diagnostics go to standard error.
//! `--quality` prints the emitted-code quality of one pass per strategy and
//! exits (the source of the committed quality baselines). See README.md.

mod compile;
mod corpus;
mod heap;
mod host;
mod metrics;
mod service;
mod stats;

use compile::{batch_driver, batch_quality, oracle_failures, traced_pass, Quality};
use corpus::Workload;
use host::HostSpeed;
use parsched::telemetry::json::{parse, Value};
use parsched::telemetry::{NullTelemetry, PhaseTree, Recorder};
use parsched::{BatchDriver, BatchOutput, Pipeline, Strategy};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Functions per strategy and requests compiled by the warm-up.
const WARM_FUNCS: usize = 8;
const WARM_REQUESTS: usize = 12;
/// Rounds a run makes even when `--seconds` has already run out.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quality: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quality: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--quality" => args.quality = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({})",
            corpus::WORKLOADS.join("|")
        ));
    }
    Ok(args)
}

/// A workload with its compile drivers, ready for timed passes.
struct Bench {
    w: Workload,
    pipeline: Pipeline,
    drivers: Vec<(&'static str, Strategy, BatchDriver)>,
}

/// Generates the corpus and stream, builds the drivers, and warms up:
/// a few functions through every driver and a few service requests.
fn setup(name: &str, seed: u64) -> Result<Bench, String> {
    let w = Workload::build(name, seed).ok_or_else(|| {
        format!(
            "unknown workload `{name}` ({})",
            corpus::WORKLOADS.join("|")
        )
    })?;
    let pipeline = Pipeline::new(w.machine.clone());
    let drivers: Vec<_> = compile::strategies()
        .into_iter()
        .map(|(label, s)| (label, s, batch_driver(&pipeline, s)))
        .collect();
    let warm = &w.funcs[..WARM_FUNCS.min(w.funcs.len())];
    for (_, _, d) in &drivers {
        let _ = d.compile_module(warm, &NullTelemetry);
    }
    let _ = service::run_pass(&w, Some(WARM_REQUESTS));
    Ok(Bench {
        w,
        pipeline,
        drivers,
    })
}

/// What a run found, for the result line.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, notes: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.extend(notes);
    }
}

/// Determinism guard: every pass of one strategy must emit code of the
/// same quality, or no number from the run can be trusted.
fn same_quality(seen: &mut Option<Quality>, q: Quality, what: &str) -> Result<(), String> {
    match seen {
        None => *seen = Some(q),
        Some(first) if *first != q => {
            return Err(format!(
                "nondeterministic output: {what} emitted {q:?}, earlier {first:?}"
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// One untraced batch pass of strategy `i`, its quality checked against
/// the earlier passes.
fn compile_pass(
    b: &Bench,
    i: usize,
    seen: &mut Option<Quality>,
    tally: &mut Tally,
) -> Result<BatchOutput, String> {
    let out = b.drivers[i].2.compile_module(&b.w.funcs, &NullTelemetry);
    let (q, failed) = batch_quality(&out);
    same_quality(seen, q, b.drivers[i].0)?;
    let note = (failed > 0).then(|| format!("{}: {failed} functions failed", b.drivers[i].0));
    tally.add(b.w.funcs.len() as u64, failed, note.into_iter().collect());
    Ok(out)
}

/// Oracle check of one pass per strategy, outside the timed loop.
fn oracle_check(b: &Bench, last: &[Option<BatchOutput>], tally: &mut Tally) {
    for (i, out) in last.iter().enumerate() {
        if let Some(out) = out {
            let (bad, notes) = oracle_failures(&b.w.funcs, out);
            let notes = notes
                .into_iter()
                .map(|n| format!("oracle/{}: {n}", b.drivers[i].0))
                .collect();
            tally.add(0, bad, notes);
        }
    }
}

/// The peak heap, in KiB, that compiling one function allocates through
/// a strategy's batch driver, counted from the call's start; the mean over
/// the corpus and the strategies. One untimed compile per function and
/// strategy, after the timed loop.
fn peak_heap_kib(b: &Bench) -> f64 {
    let mut peaks = Vec::with_capacity(b.drivers.len() * b.w.funcs.len());
    for (label, _, d) in &b.drivers {
        let start = peaks.len();
        for f in &b.w.funcs {
            let one = std::slice::from_ref(f);
            let (_, peak) = heap::peak_during(|| d.compile_module(one, &NullTelemetry));
            peaks.push(peak as f64 / 1024.0);
        }
        let mine = &peaks[start..];
        eprintln!(
            "  {label:>11}: peak heap per function, mean {:.1} KiB, max {:.1} KiB",
            mine.iter().sum::<f64>() / mine.len().max(1) as f64,
            quantile(mine, 1.0)
        );
    }
    peaks.iter().sum::<f64>() / peaks.len().max(1) as f64
}

/// The end-to-end run: untraced timed rounds of one batch pass per
/// strategy plus one service pass, in rotating order, until `seconds`
/// have passed.
fn run_end_to_end(args: &Args) -> Result<(Tally, Vec<(String, f64)>), String> {
    let mut host = HostSpeed::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t = Instant::now();
        let b = setup(&args.workload, args.seed)?;
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw * host.factor(false));
        bench = Some(b);
    }
    let b = bench.ok_or("no set-up ran")?;
    eprintln!(
        "  set-up: {SETUP_REPS} times, median {:.4} s, min {:.4} max {:.4}",
        median(&setup_s),
        quantile(&setup_s, 0.0),
        quantile(&setup_s, 1.0)
    );
    let mut tally = Tally::default();
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut raw_walls: [Vec<f64>; 3] = Default::default();
    let mut seen: [Option<Quality>; 3] = [None; 3];
    let mut last: [Option<BatchOutput>; 3] = Default::default();
    // Scaled latencies, one row per service pass, in stream order.
    let mut latency_ms: Vec<Vec<f64>> = Vec::new();
    let mut raw_latency_ms: Vec<f64> = Vec::new();
    let mut service_wall = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for k in 0..4 {
            let which = (rounds + k) % 4;
            if which < 3 {
                let out = compile_pass(&b, which, &mut seen[which], &mut tally)?;
                let f = host.factor(false);
                raw_walls[which].push(out.wall.as_secs_f64());
                walls[which].push(out.wall.as_secs_f64() * f);
                last[which] = Some(out);
            } else {
                host.factor(true);
                let p = service::run_pass(&b.w, None);
                let f = host.factor(true);
                tally.add(p.latency_ms.len() as u64, p.failed, p.notes);
                latency_ms.push(p.latency_ms.iter().map(|ms| ms * f).collect());
                raw_latency_ms.extend(p.latency_ms);
                service_wall += p.wall_s * f;
            }
        }
        rounds += 1;
    }
    oracle_check(&b, &last, &mut tally);

    let end_to_end = metrics::listed("end_to_end")?;
    let mut m: Vec<(String, f64)> = Vec::new();
    for (i, (label, ..)) in b.drivers.iter().enumerate() {
        let q = seen[i].ok_or("no compile pass ran")?;
        let w = &walls[i];
        eprintln!(
            "  {label:>11}: {} passes, median {:.4} s, q1 {:.4} q3 {:.4} max {:.4} (raw median {:.4} s); {q:?}",
            w.len(),
            median(w),
            quantile(w, 0.25),
            quantile(w, 0.75),
            quantile(w, 1.0),
            median(&raw_walls[i])
        );
        if let Some(want) = baseline(b.w.name, args.seed, label) {
            let verdict = if want == (Quality { degraded: 0, ..q }) {
                "matches baselines.json".to_string()
            } else {
                format!("differs from baselines.json, which has {want:?}")
            };
            eprintln!("  {label:>11}: quality {verdict}");
        }
        m.push((format!("{label}.compile_s"), median(w)));
        let quality = [
            ("cycles", q.cycles),
            ("registers", q.registers),
            ("false_deps", q.false_deps),
            ("mem_ops", q.mem_ops),
        ];
        for (what, v) in quality {
            let name = format!("{label}.{what}");
            if end_to_end.iter().any(|(n, _)| *n == name) {
                m.push((name, v as f64));
            }
        }
    }
    // Every pass replays the same stream, so each request has one latency
    // per pass. Its median over the passes is its latency; the percentiles
    // are taken over requests. A host hiccup then slows one sample of a
    // request, not the request.
    let per_request: Vec<f64> = (0..b.w.requests.len())
        .map(|k| median(&latency_ms.iter().map(|pass| pass[k]).collect::<Vec<_>>()))
        .collect();
    eprintln!(
        "  service: {} requests × {} passes, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms (raw, pooled: p50 {:.3} ms, p99 {:.3} ms)",
        per_request.len(),
        latency_ms.len(),
        quantile(&per_request, 0.5),
        quantile(&per_request, 0.95),
        quantile(&per_request, 0.99),
        quantile(&raw_latency_ms, 0.5),
        quantile(&raw_latency_ms, 0.99)
    );
    m.push(("service.p50_ms".into(), quantile(&per_request, 0.5)));
    m.push(("service.p95_ms".into(), quantile(&per_request, 0.95)));
    m.push((
        "service.rps".into(),
        raw_latency_ms.len() as f64 / service_wall.max(f64::MIN_POSITIVE),
    ));
    m.push(("setup_s".into(), median(&setup_s)));
    m.push(("peak_heap_kib".into(), peak_heap_kib(&b)));
    Ok((tally, m))
}

/// Per-pass layer values of one traced pass, from the recorder's spans
/// and counters; times are scaled by the host-speed factor `f`.
fn layer_values(rec: &Recorder, f: f64) -> BTreeMap<&'static str, f64> {
    let tree = PhaseTree::build(&rec.spans());
    let mut self_ns: BTreeMap<&str, u128> = BTreeMap::new();
    let mut total_ns: BTreeMap<&str, u128> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    for n in &tree.nodes {
        *self_ns.entry(&n.name).or_default() += n.self_ns;
        *total_ns.entry(&n.name).or_default() += n.total_ns;
        *calls.entry(&n.name).or_default() += n.count;
    }
    let secs =
        |map: &BTreeMap<&str, u128>, k: &str| map.get(k).copied().unwrap_or(0) as f64 / 1e9 * f;
    let mut v = BTreeMap::new();
    let phases: [(&'static str, &str); 4] = [
        ("pipeline.pre_schedule_s", "pipeline.pre_schedule"),
        ("pipeline.allocate_s", "pipeline.allocate"),
        ("pipeline.false_dep_count_s", "pipeline.false_dep_count"),
        ("pipeline.final_schedule_s", "pipeline.final_schedule"),
    ];
    for (key, span) in phases {
        v.insert(key, secs(&total_ns, span));
    }
    let self_times: [(&'static str, &str); 12] = [
        ("deps.build_s", "deps.build"),
        ("alloc.liveness_s", "alloc.liveness"),
        ("spill.rewrite_s", "spill.rewrite"),
        ("closure.build_s", "closure.build"),
        ("pig.build_s", "pig.build"),
        ("combined.color_s", "combined.color"),
        ("chaitin.color_s", "chaitin.color"),
        ("ep.reorder_s", "ep.reorder"),
        ("sched.list_s", "sched.list"),
        ("global.problem_s", "global.problem"),
        ("global.coalesce_s", "global.coalesce"),
        ("global.spill_rewrite_s", "global.spill_rewrite"),
    ];
    for (key, span) in self_times {
        v.insert(key, secs(&self_ns, span));
    }
    let count = |k: &str| calls.get(k).copied().unwrap_or(0) as f64;
    v.insert("deps.build_calls", count("deps.build"));
    v.insert("alloc.liveness_calls", count("alloc.liveness"));
    v.insert("alloc.rounds", rec.counter_value("alloc.rounds") as f64);
    v.insert("global.rounds", rec.counter_value("global.rounds") as f64);
    v
}

/// The traced run: rounds of, per strategy, one untraced batch pass and
/// one traced pass, then one service pass.
fn run_traced(args: &Args) -> Result<(Tally, Vec<(String, f64)>), String> {
    let b = setup(&args.workload, args.seed)?;
    let mut host = HostSpeed::new();
    let n = b.w.funcs.len() as u64;
    let mut tally = Tally::default();
    let mut untraced: [Vec<f64>; 3] = Default::default();
    let mut traced: [Vec<f64>; 3] = Default::default();
    let mut overhead: [Vec<f64>; 3] = Default::default();
    let mut per_pass: [Vec<BTreeMap<&'static str, f64>>; 3] = Default::default();
    let mut seen: [Option<Quality>; 3] = [None; 3];
    let mut last: [Option<BatchOutput>; 3] = Default::default();
    let mut last_rec: [Option<Recorder>; 3] = Default::default();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let mut service_passes = 0u64;
    let (mut evictions, mut shed, mut overloaded) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for k in 0..3 {
            let i = (rounds + k) % 3;
            let out = compile_pass(&b, i, &mut seen[i], &mut tally)?;
            let f = host.factor(false);
            let wall = out.wall.as_secs_f64();
            untraced[i].push(wall * f);
            overhead[i].push((wall - out.per_func_ns.iter().sum::<u128>() as f64 / 1e9) * f);
            last[i] = Some(out);

            let (label, strategy, _) = &b.drivers[i];
            let rec = Recorder::new();
            let t = Instant::now();
            let (q, failed) = traced_pass(&b.pipeline, &b.w.funcs, strategy, &rec);
            let wall = t.elapsed().as_secs_f64();
            let f = host.factor(false);
            traced[i].push(wall * f);
            let note = (failed > 0).then(|| format!("{label}: {failed} traced compiles failed"));
            tally.add(n, failed, note.into_iter().collect());
            same_quality(&mut seen[i], q, &format!("{label} traced pass"))?;
            per_pass[i].push(layer_values(&rec, f));
            last_rec[i] = Some(rec);
        }
        host.factor(true);
        let p = service::run_pass(&b.w, None);
        let f = host.factor(true);
        for (ms, cached) in p.latency_ms.iter().zip(&p.cached) {
            if *cached {
                hit_ms.push(ms * f);
            } else {
                miss_ms.push(ms * f);
            }
        }
        evictions += p.stats.cache_evictions;
        shed += p.stats.shed;
        overloaded += p.stats.overloaded;
        service_passes += 1;
        tally.add(p.latency_ms.len() as u64, p.failed, p.notes);
        rounds += 1;
    }
    oracle_check(&b, &last, &mut tally);

    let mut m: Vec<(String, f64)> = Vec::new();
    for (i, (label, ..)) in b.drivers.iter().enumerate() {
        let q = seen[i].ok_or("no compile pass ran")?;
        let keys: Vec<&'static str> = per_pass[i]
            .first()
            .map(|p| p.keys().copied().collect())
            .unwrap_or_default();
        for key in keys {
            let xs: Vec<f64> = per_pass[i].iter().map(|p| p[key]).collect();
            m.push((format!("{label}.{key}"), median(&xs)));
        }
        m.push((format!("{label}.batch.overhead_s"), median(&overhead[i])));
        m.push((format!("{label}.driver.degraded_funcs"), q.degraded as f64));
        m.push((format!("{label}.spills"), q.spills as f64));
    }
    let requests = (hit_ms.len() + miss_ms.len()) as f64;
    let passes = service_passes.max(1) as f64;
    m.push(("service.hit_ms_p50".into(), quantile(&hit_ms, 0.5)));
    m.push(("service.miss_ms_p50".into(), quantile(&miss_ms, 0.5)));
    m.push(("service.miss_ms_p95".into(), quantile(&miss_ms, 0.95)));
    m.push((
        "service.cache_hit_ratio".into(),
        hit_ms.len() as f64 / requests.max(1.0),
    ));
    m.push(("service.evictions".into(), evictions as f64 / passes));
    m.push(("service.shed".into(), shed as f64 / passes));
    m.push(("service.overloaded".into(), overloaded as f64 / passes));
    let ratio: f64 = traced.iter().map(|t| median(t)).sum::<f64>()
        / untraced
            .iter()
            .map(|t| median(t))
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
    m.push(("trace.overhead_ratio".into(), ratio));
    let merged = Recorder::new();
    for rec in last_rec.iter().flatten() {
        merged.merge_from(rec);
    }
    let tree = PhaseTree::build(&merged.spans());
    let attributed = tree.attributed_fraction();
    m.push(("trace.attributed_frac".into(), attributed));
    report_gap(&tree, attributed);
    Ok((tally, m))
}

/// Names where the traced wall time outside leaf spans went: the phases
/// with the most self time that have instrumented children.
fn report_gap(tree: &PhaseTree, attributed: f64) {
    let root = tree.root_total_ns().max(1) as f64;
    let mut gaps: Vec<(u128, &str)> = tree
        .nodes
        .iter()
        .filter(|n| !n.children.is_empty() && n.self_ns > 0)
        .map(|n| (n.self_ns, n.path.as_str()))
        .collect();
    gaps.sort_unstable_by(|a, b| b.cmp(a));
    let mut line = format!("  attributed {:.3}; unattributed self time:", attributed);
    for (ns, path) in gaps.iter().take(5) {
        let _ = write!(line, " {path} {:.1}%", *ns as f64 / root * 100.0);
    }
    eprintln!("{line}");
}

const BASELINES: &str = include_str!("../baselines.json");

/// The committed quality of `label` on `workload` at `seed`, if
/// `baselines.json` records one.
fn baseline(workload: &str, seed: u64, label: &str) -> Option<Quality> {
    let doc = parse(BASELINES).ok()?;
    let row = doc.get("baselines")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("seed").and_then(Value::as_num) == Some(seed as f64)
            && r.get("strategy").and_then(Value::as_str) == Some(label)
    })?;
    let num = |k: &str| row.get(k).and_then(Value::as_num).map(|n| n as u64);
    Some(Quality {
        cycles: num("cycles")?,
        registers: num("registers")?,
        false_deps: num("false_deps")?,
        mem_ops: num("mem_ops")?,
        spills: num("spills")?,
        degraded: 0,
    })
}

/// Prints one pass of quality per strategy (the baseline table).
fn print_quality(args: &Args) -> Result<(), String> {
    let b = setup(&args.workload, args.seed)?;
    for (label, _, d) in &b.drivers {
        let (q, failed) = batch_quality(&d.compile_module(&b.w.funcs, &NullTelemetry));
        println!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"strategy\": \"{label}\", \"cycles\": {}, \"registers\": {}, \"false_deps\": {}, \"mem_ops\": {}, \"spills\": {}, \"degraded\": {}, \"failed\": {failed}}}",
            b.w.name, args.seed, q.cycles, q.registers, q.false_deps, q.mem_ops, q.spills, q.degraded
        );
    }
    Ok(())
}

fn result_line(tally: &Tally, values: &[(String, f64)], trace: bool) -> Result<String, String> {
    let expected = metrics::listed(if trace { "per_layer" } else { "end_to_end" })?;
    if trace {
        let mapped = metrics::layers()?;
        if let Some((name, _)) = expected
            .iter()
            .find(|(n, _)| !mapped.iter().any(|l| l.metric == *n))
        {
            return Err(format!("metric `{name}` is missing from layer_map.json"));
        }
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (k, (name, unit)) in expected.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("metric `{name}` is missing from BENCHMARK.json"));
    }
    out.push_str("}}");
    Ok(out)
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    if args.quality {
        print_quality(&args)?;
        return Ok(String::new());
    }
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (tally, values) = if args.trace {
        run_traced(&args)?
    } else {
        run_end_to_end(&args)?
    };
    for note in tally.notes.iter().take(20) {
        eprintln!("  failure: {note}");
    }
    result_line(&tally, &values, args.trace)
}

fn main() {
    match run() {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_cover_both_seeds_of_every_workload() {
        for w in corpus::WORKLOADS {
            for seed in [0, 7919] {
                for label in compile::STRATEGY_LABELS {
                    assert!(baseline(w, seed, label).is_some(), "{w}/{seed}/{label}");
                }
            }
        }
    }
}
