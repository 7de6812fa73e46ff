//! Golden outputs: every `examples/*.psc` and `ci/fuzz-corpus/*.psc`
//! module, compiled by each heuristic rung on the paper machine and a
//! 4-wide machine at 3, 6 and 32 registers, must reproduce the committed
//! table `tests/golden/outputs.tsv` exactly.
//!
//! Each row sums, over the functions of one module, the schedule length,
//! the registers used, the introduced false dependences and the inserted
//! memory operations, and hashes (FNV-1a, 64-bit) the printed code of every
//! compiled function. A compile error is recorded as `error` with a hash of
//! its message. A performance change must leave the table untouched; a
//! deliberate change to the emitted code is reviewed by copying the fresh
//! table this test prints on a mismatch into the committed file.

use parsched::ir::{parse_module, print_function};
use parsched::machine::{presets, MachineDesc};
use parsched::telemetry::NullTelemetry;
use parsched::{Pipeline, Strategy};
use std::path::{Path, PathBuf};

const STRATEGIES: [&str; 5] = [
    "alloc-first",
    "sched-first",
    "linear-scan",
    "combined",
    "spill-everything",
];
const REGS: [u32; 3] = [3, 6, 32];
const HEADER: &str =
    "# file\tstrategy\tmachine\tregs\tcycles\tregisters\tfalse_deps\tmem_ops\ttext_fnv1a\n";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn modules() -> Vec<String> {
    let mut files = Vec::new();
    for dir in ["examples", "ci/fuzz-corpus"] {
        let entries = std::fs::read_dir(root().join(dir)).expect("module directory exists");
        for entry in entries {
            let name = entry.expect("readable directory entry").file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".psc") {
                files.push(format!("{dir}/{name}"));
            }
        }
    }
    files.sort();
    files
}

fn machine(name: &str, regs: u32) -> MachineDesc {
    match name {
        "paper" => presets::paper_machine(regs),
        _ => presets::wide(4, regs),
    }
}

/// One row of the table for `funcs` compiled under one configuration.
fn row(funcs: &[parsched::ir::Function], strategy: &Strategy, machine: MachineDesc) -> String {
    let pipeline = Pipeline::new(machine);
    let (mut cycles, mut registers, mut false_deps, mut mem_ops) = (0u64, 0u64, 0u64, 0u64);
    let mut text = String::new();
    let mut failed = false;
    for f in funcs {
        match pipeline.compile(f, strategy, &NullTelemetry) {
            Ok(r) => {
                cycles += u64::from(r.stats.cycles);
                registers += u64::from(r.stats.registers_used);
                false_deps += r.stats.introduced_false_deps as u64;
                mem_ops += r.stats.inserted_mem_ops as u64;
                text.push_str(&print_function(&r.function));
            }
            Err(e) => {
                failed = true;
                text.push_str(&format!("error in @{}: {e}\n", f.name()));
            }
        }
    }
    let hash = fnv1a(text.as_bytes());
    if failed {
        format!("error\terror\terror\terror\t{hash:016x}")
    } else {
        format!("{cycles}\t{registers}\t{false_deps}\t{mem_ops}\t{hash:016x}")
    }
}

fn render() -> String {
    let mut table = String::from(HEADER);
    for file in modules() {
        let src = std::fs::read_to_string(root().join(&file)).expect("module is readable");
        let funcs = parse_module(&src).expect("committed modules parse");
        for name in STRATEGIES {
            let strategy = Strategy::parse(name).expect("known strategy");
            for machine_name in ["paper", "wide4"] {
                for regs in REGS {
                    let cols = row(&funcs, &strategy, machine(machine_name, regs));
                    table.push_str(&format!("{file}\t{name}\t{machine_name}\t{regs}\t{cols}\n"));
                }
            }
        }
    }
    table
}

#[test]
fn emitted_code_matches_committed_table() {
    let fresh = render();
    let path = root().join("tests/golden/outputs.tsv");
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    if fresh != committed {
        println!("---- fresh golden table ----\n{fresh}---- end of table ----");
        panic!(
            "emitted code differs from {}; if the change is deliberate, review \
             the fresh table printed above and copy it into that file",
            path.display()
        );
    }
}
