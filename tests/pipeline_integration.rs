//! Cross-crate integration: the full pipeline over the kernel corpus and
//! machine presets, checking the paper-level invariants end to end.

use parsched::machine::presets;
use parsched::telemetry::NullTelemetry;
use parsched::{Pipeline, Strategy};
use parsched_workload::{kernels, random_dag_function, straight_line_kernels, DagParams};

const STRATEGIES: [Strategy; 3] = [
    Strategy::AllocThenSched,
    Strategy::SchedThenAlloc,
    Strategy::Combined(parsched::regalloc::PinterConfig {
        edge_policy: parsched::regalloc::EdgeRemovalPolicy::LeastBenefit,
        spill_metric: parsched::regalloc::SpillMetric::HStar {
            interference_weight: 1.0,
            shared_weight: 2.0,
            parallel_weight: 1.5,
        },
        ep_prepass: true,
    }),
];

#[test]
fn all_kernels_compile_under_all_strategies() {
    let machines = [
        presets::single_issue(16),
        presets::paper_machine(16),
        presets::rs6000(16),
        presets::wide(4, 16),
    ];
    for machine in machines {
        let p = Pipeline::new(machine.clone());
        for (name, f) in kernels() {
            for s in STRATEGIES {
                let r = p
                    .compile(&f, &s, &NullTelemetry)
                    .unwrap_or_else(|e| panic!("{name} on {machine} via {}: {e}", s.label()));
                assert!(
                    r.stats.registers_used <= machine.num_regs(),
                    "{name}: {} regs > {}",
                    r.stats.registers_used,
                    machine.num_regs()
                );
                assert_eq!(
                    r.function.num_sym_regs(),
                    0,
                    "{name} fully allocated under {}",
                    s.label()
                );
                assert!(r.stats.cycles > 0);
            }
        }
    }
}

#[test]
fn combined_introduces_no_false_deps_when_registers_suffice() {
    let machine = presets::paper_machine(32);
    let p = Pipeline::new(machine);
    for (name, f) in straight_line_kernels() {
        let r = p
            .compile(&f, &Strategy::combined(), &NullTelemetry)
            .unwrap();
        assert_eq!(
            r.stats.spilled_values, 0,
            "{name} should not spill at 32 regs"
        );
        assert_eq!(
            r.stats.introduced_false_deps, 0,
            "{name}: Theorem 1 violated"
        );
        assert_eq!(r.stats.removed_false_edges, 0, "{name}: nothing given up");
    }
}

#[test]
fn combined_at_least_matches_alloc_first_on_cycles() {
    // Aggregate comparison over the corpus on the paper machine with a
    // moderately tight register file — the headline claim.
    let machine = presets::paper_machine(8);
    let p = Pipeline::new(machine);
    let mut combined_total = 0u32;
    let mut naive_total = 0u32;
    for (_name, f) in straight_line_kernels() {
        combined_total += p
            .compile(&f, &Strategy::combined(), &NullTelemetry)
            .unwrap()
            .stats
            .cycles;
        naive_total += p
            .compile(&f, &Strategy::AllocThenSched, &NullTelemetry)
            .unwrap()
            .stats
            .cycles;
    }
    assert!(
        combined_total <= naive_total,
        "combined {combined_total} cycles vs alloc-first {naive_total}"
    );
}

#[test]
fn single_issue_machines_see_no_combined_penalty_in_registers() {
    // On a single-issue machine Ef is empty, so — with the EP pre-pass
    // disabled so live ranges are measured over identical code — the
    // combined allocator degenerates to exactly Chaitin coloring.
    let machine = presets::single_issue(16);
    let p = Pipeline::new(machine);
    let no_prepass = Strategy::Combined(parsched::regalloc::PinterConfig {
        ep_prepass: false,
        ..Default::default()
    });
    for (name, f) in straight_line_kernels() {
        let c = p.compile(&f, &no_prepass, &NullTelemetry).unwrap();
        let a = p
            .compile(&f, &Strategy::AllocThenSched, &NullTelemetry)
            .unwrap();
        assert_eq!(
            c.stats.registers_used, a.stats.registers_used,
            "{name}: combined must not use extra registers without parallelism"
        );
        assert_eq!(c.stats.removed_false_edges, 0, "{name}: nothing to remove");
    }
}

#[test]
fn random_dags_compile_across_pressure() {
    let params = DagParams {
        size: 30,
        load_fraction: 0.3,
        float_fraction: 0.4,
        window: 6,
    };
    for seed in 0..8 {
        let f = random_dag_function(seed, &params);
        for regs in [4, 8, 16] {
            let p = Pipeline::new(presets::paper_machine(regs));
            for s in STRATEGIES {
                let r = p
                    .compile(&f, &s, &NullTelemetry)
                    .unwrap_or_else(|e| panic!("seed {seed}, {regs} regs, {}: {e}", s.label()));
                assert!(r.stats.registers_used <= regs);
            }
        }
    }
}

#[test]
fn tighter_register_files_never_reduce_spills() {
    let f = random_dag_function(42, &DagParams::default());
    let spills_at = |regs: u32| {
        Pipeline::new(presets::paper_machine(regs))
            .compile(&f, &Strategy::combined(), &NullTelemetry)
            .unwrap()
            .stats
            .spilled_values
    };
    let s4 = spills_at(4);
    let s8 = spills_at(8);
    let s32 = spills_at(32);
    assert!(s32 <= s8 && s8 <= s4, "{s4} >= {s8} >= {s32} expected");
    assert_eq!(s32, 0);
}

#[test]
fn wide_machine_rewards_parallelism_preservation() {
    // On a 4-wide uniform machine, high-ILP trees must schedule near their
    // critical path under the combined strategy.
    use parsched_workload::expr_tree_function;
    let f = expr_tree_function(9, 4, 0.5); // 16 loads + 15 ops, depth 4
    let machine = presets::wide(4, 32);
    let p = Pipeline::new(machine);
    let r = p
        .compile(&f, &Strategy::combined(), &NullTelemetry)
        .unwrap();
    // 31 instructions on a 4-wide machine: ≥ ceil(31/4) = 8 issue cycles;
    // the dependence depth adds little. Loose bound: at most 2× lower bound.
    assert!(
        r.stats.cycles <= 2 * 9,
        "combined left parallelism unused: {} cycles",
        r.stats.cycles
    );
}

#[test]
fn extreme_pressure_fails_gracefully_or_converges() {
    // One register cannot hold two simultaneous operands: the allocators
    // must either converge (via spilling everything) or return a clean
    // error — never panic or loop forever.
    let f = random_dag_function(
        3,
        &DagParams {
            size: 12,
            ..DagParams::default()
        },
    );
    for s in STRATEGIES {
        let p = Pipeline::new(presets::paper_machine(1));
        match p.compile(&f, &s, &NullTelemetry) {
            Ok(r) => assert!(r.stats.registers_used <= 1, "{}", s.label()),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("converge"),
                    "{}: unexpected error {msg}",
                    s.label()
                );
            }
        }
    }
}

/// Stress: ~400-instruction blocks through every strategy.
#[test]
fn stress_large_blocks() {
    let params = DagParams {
        size: 400,
        load_fraction: 0.25,
        float_fraction: 0.4,
        window: 12,
    };
    let f = random_dag_function(77, &params);
    for regs in [8, 32] {
        let p = Pipeline::new(presets::paper_machine(regs));
        for s in STRATEGIES {
            let r = p.compile(&f, &s, &NullTelemetry).unwrap();
            assert!(r.stats.registers_used <= regs);
        }
    }
}
