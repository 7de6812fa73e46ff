//! Host-speed calibration.
//!
//! On a shared host the same work runs 10–30 % slower for seconds or
//! minutes at a time while neighbours are busy, which swamps any change
//! to the program. So every timed pass is bracketed by a short kernel
//! that does not touch the compiler — random reads and writes over a
//! 4 MiB table, then a sort — and the pass time is scaled by how much
//! slower than [`REFERENCE_S`] that kernel ran around it. The kernel runs
//! twice and only the second run is timed, so the reading does not depend
//! on how much of the table the pass evicted from the caches: a change to
//! the program cannot move the divisor. Reported times are therefore
//! seconds at the reference host speed; standard error also reports the
//! raw medians.

use std::time::Instant;

/// Kernel time the reported seconds are scaled to; about its time on an
/// idle 2-core x86-64 host.
pub const REFERENCE_S: f64 = 0.003;

const TABLE_WORDS: usize = 1 << 19;
const PROBES: usize = 800_000;
const SORTED: u64 = 40_000;

/// Tracks host speed between timed passes.
pub struct HostSpeed {
    tables: [Vec<u64>; 2],
    before: f64,
}

impl HostSpeed {
    /// Allocates the tables and takes the first reading.
    pub fn new() -> HostSpeed {
        let table = || (0..TABLE_WORDS as u64).collect::<Vec<u64>>();
        let mut h = HostSpeed {
            tables: [table(), table()],
            before: 0.0,
        };
        h.before = kernel(&mut h.tables[0]);
        h
    }

    /// Takes a new reading and returns the factor that scales a time
    /// measured since the previous reading to the reference speed. With
    /// `both_cores` the kernel runs on two threads at once and the reading
    /// is their mean: the service pass runs on two threads, and a slow
    /// spell on the core the worker used must count too.
    pub fn factor(&mut self, both_cores: bool) -> f64 {
        let after = if both_cores {
            let [a, b] = &mut self.tables;
            std::thread::scope(|s| {
                let other = s.spawn(|| kernel(b));
                let mine = kernel(a);
                (mine + other.join().unwrap_or(mine)) / 2.0
            })
        } else {
            kernel(&mut self.tables[0])
        };
        let f = 2.0 * REFERENCE_S / (self.before + after);
        self.before = after;
        f
    }
}

/// Times the second of two runs of [`probe`]; the first warms the table.
fn kernel(table: &mut [u64]) -> f64 {
    probe(table);
    let t = Instant::now();
    probe(table);
    t.elapsed().as_secs_f64()
}

fn probe(table: &mut [u64]) {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..PROBES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % TABLE_WORDS as u64) as usize;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
    }
    let mut v: Vec<u64> = (0..SORTED).map(|i| i.wrapping_mul(x) ^ acc).collect();
    v.sort_unstable();
    std::hint::black_box(&v);
}
