//! The service half: one closed-loop client against an in-process `pscd`.
//!
//! Each pass starts a fresh `Service` with one worker (plus this client
//! thread: two threads, one per core of a two-core host), sends the
//! workload's request stream through `handle_line`, and waits for each
//! reply before sending the next request. A fresh service per pass means
//! every pass sees the same cold-then-hot cache pattern. Replies are kept
//! and audited after the pass, outside the timed loop.

use crate::corpus::Workload;
use parsched::telemetry::json::{parse, Value};
use parsched_pscd::{Service, ServiceConfig, ServiceStats, CODE_OK};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// How long the client waits for one reply before counting it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One pass over the stream.
pub struct Pass {
    /// Per-request latency in milliseconds, in stream order.
    pub latency_ms: Vec<f64>,
    /// Whether each reply said `cached: true`.
    pub cached: Vec<bool>,
    /// Wall time of the request loop.
    pub wall_s: f64,
    /// The service's counters at drain.
    pub stats: ServiceStats,
    /// Requests whose reply was missing, duplicated, not code 0, or not
    /// byte-identical to the cold reply of the same source.
    pub failed: u64,
    /// One note per failure, for the report.
    pub notes: Vec<String>,
}

/// Sends `requests` requests of the stream (all of them when `None`).
pub fn run_pass(w: &Workload, requests: Option<usize>) -> Pass {
    let reqs = &w.requests[..requests.unwrap_or(w.requests.len()).min(w.requests.len())];
    let lines: Vec<String> = reqs.iter().enumerate().map(|(i, r)| r.line(i)).collect();
    let svc = Service::start(ServiceConfig {
        workers: 1,
        cache_capacity: w.sources() + 16,
        ..ServiceConfig::default()
    });
    let (tx, rx) = channel();
    let mut replies: Vec<Option<String>> = Vec::with_capacity(lines.len());
    let mut latency_ms = Vec::with_capacity(lines.len());
    let started = Instant::now();
    for line in &lines {
        let t0 = Instant::now();
        svc.handle_line(line, &tx);
        let reply = rx.recv_timeout(REPLY_TIMEOUT).ok();
        latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replies.push(reply);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let stats = svc.shutdown_and_join().stats;
    drop(tx);
    let extra = rx.try_iter().count() as u64;
    let mut pass = Pass {
        latency_ms,
        cached: Vec::with_capacity(replies.len()),
        wall_s,
        stats,
        failed: extra,
        notes: Vec::new(),
    };
    if extra > 0 {
        pass.notes
            .push(format!("{extra} replies beyond one per request"));
    }
    audit(w, &replies, &mut pass);
    pass
}

/// Checks every reply: one per request, its own id, code 0, the cached
/// flag the stream predicts, and a body byte-identical to the cold reply
/// of the same source.
fn audit(w: &Workload, replies: &[Option<String>], pass: &mut Pass) {
    let mut cold: Vec<Option<&str>> = vec![None; w.sources()];
    for (i, reply) in replies.iter().enumerate() {
        let req = &w.requests[i];
        let problem = match reply {
            None => {
                pass.cached.push(false);
                Some("no reply".to_string())
            }
            Some(line) => {
                let doc = parse(line).ok();
                let id = doc
                    .as_ref()
                    .and_then(|d| d.get("id"))
                    .and_then(Value::as_num);
                let code = doc
                    .as_ref()
                    .and_then(|d| d.get("code"))
                    .and_then(Value::as_num);
                let cached = doc.as_ref().and_then(|d| d.get("cached")) == Some(&Value::Bool(true));
                pass.cached.push(cached);
                let body = line.split_once(",\"body\":").map(|(_, b)| b);
                if id != Some(i as f64) {
                    Some(format!("reply id {id:?}"))
                } else if code != Some(f64::from(CODE_OK)) {
                    Some(format!("code {code:?}: {line:.160}"))
                } else if cached != req.repeat {
                    Some(format!("cached={cached} but repeat={}", req.repeat))
                } else {
                    match (cold[req.source], body) {
                        (_, None) => Some("reply without body".to_string()),
                        (None, Some(b)) => {
                            cold[req.source] = Some(b);
                            None
                        }
                        (Some(c), Some(b)) if c != b => {
                            Some("cached body differs from the cold reply".to_string())
                        }
                        _ => None,
                    }
                }
            }
        };
        if let Some(p) = problem {
            pass.failed += 1;
            pass.notes.push(format!("request {i}: {p}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_pass_is_answered_and_audited() {
        let w = Workload::build("pressure", 3).unwrap();
        let p = run_pass(&w, Some(24));
        assert_eq!(p.failed, 0, "{:?}", p.notes);
        assert_eq!(p.latency_ms.len(), 24);
        let hits = p.cached.iter().filter(|&&c| c).count() as u64;
        assert_eq!(hits, p.stats.cache_hits);
        assert_eq!(p.stats.completed, 24);
    }
}
