//! Metric names, units, and the layer map.
//!
//! `BENCHMARK.json` at the repository root is the one table of metric
//! names and units; it is compiled in. `layer_map.json` adds, for each
//! per-layer metric, the layer it measures and the end-to-end metrics it
//! should move, so later changes can cite the map and the tests can check
//! that every name it references exists.

use crate::compile::STRATEGY_LABELS;
use parsched::telemetry::json::{parse, Value};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const LAYER_MAP: &str = include_str!("../layer_map.json");

/// The metrics `BENCHMARK.json` lists under `key` (`end_to_end` or
/// `per_layer`), as (name, unit) in file order.
///
/// # Errors
/// A description of the first malformed entry.
pub fn listed(key: &str) -> Result<Vec<(String, String)>, String> {
    benchmark_entries(key)?
        .iter()
        .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
        .collect()
}

fn benchmark_entries(key: &str) -> Result<Vec<Value>, String> {
    let doc = parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get(key)
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))
}

/// One expanded per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name, `{s}` expanded.
    pub metric: String,
    /// (end-to-end metric, workload) pairs predicted to move with it.
    pub moves: Vec<(String, String)>,
    /// (end-to-end metric, workload) pairs predicted to hold still.
    pub holds: Vec<(String, String)>,
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("entry without `{key}`"))
}

fn pairs(v: &Value, key: &str, s: &str) -> Result<Vec<(String, String)>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("layer map: entry without `{key}`"))?;
    arr.iter()
        .map(|p| Ok((text(p, "metric")?.replace("{s}", s), text(p, "workload")?)))
        .collect()
}

/// The per-layer metrics, in map order with each `{s}` entry expanded
/// over the strategies. Every `moves`/`holds` pair must name an
/// end-to-end metric and a workload of `BENCHMARK.json`.
///
/// # Errors
/// A description of the first malformed or dangling entry.
pub fn layers() -> Result<Vec<Layer>, String> {
    let doc = parse(LAYER_MAP).map_err(|e| format!("layer map: {e}"))?;
    let entries = doc
        .get("layers")
        .and_then(Value::as_arr)
        .ok_or("layer map: no `layers` array")?;
    let end_to_end = listed("end_to_end")?;
    let workloads: Vec<String> = benchmark_entries("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let mut out: Vec<Layer> = Vec::new();
    for e in entries {
        let name = text(e, "metric")?;
        let expansions: Vec<&str> = if name.contains("{s}") {
            STRATEGY_LABELS.to_vec()
        } else {
            vec![""]
        };
        for s in expansions {
            text(e, "layer")?;
            let layer = Layer {
                metric: name.replace("{s}", s),
                moves: pairs(e, "moves", s)?,
                holds: pairs(e, "holds", s)?,
            };
            for (m, w) in layer.moves.iter().chain(&layer.holds) {
                if !end_to_end.iter().any(|(n, _)| n == m) {
                    return Err(format!("{}: `{m}` is no end-to-end metric", layer.metric));
                }
                if !workloads.contains(w) {
                    return Err(format!("{}: `{w}` is no workload", layer.metric));
                }
            }
            if out.iter().any(|l| l.metric == layer.metric) {
                return Err(format!("layer map: `{}` listed twice", layer.metric));
            }
            out.push(layer);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::WORKLOADS;

    #[test]
    fn layer_map_covers_exactly_the_per_layer_metrics() {
        let mapped: Vec<String> = layers().unwrap().into_iter().map(|l| l.metric).collect();
        let listed: Vec<String> = listed("per_layer")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(mapped, listed);
    }

    #[test]
    fn benchmark_json_names_the_workloads_this_program_builds() {
        let names: Vec<String> = benchmark_entries("workloads")
            .unwrap()
            .iter()
            .map(|w| text(w, "name").unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        assert!(!listed("end_to_end").unwrap().is_empty());
    }
}
