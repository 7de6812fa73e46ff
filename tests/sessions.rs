//! Session contracts: the PIG an [`AllocSession`] derives from its closure
//! rows is **edge-identical** to the dense [`Pig::build`] construction at
//! every spill round, and a session reused across functions produces
//! byte-identical output to fresh sessions.

use parsched::ir::liveness::Liveness;
use parsched::ir::{print_function, BlockId, Reg};
use parsched::machine::{presets, MachineDesc};
use parsched::regalloc::combined::combined_color;
use parsched::regalloc::spill::insert_spill_code;
use parsched::regalloc::{
    allocate_single_block, allocate_single_block_in, AllocLimits, AllocSession, BlockAllocProblem,
    BlockStrategy, Pig, PinterConfig,
};
use parsched::sched::DepGraph;
use parsched::telemetry::NullTelemetry;
use parsched_workload::{random_dag_function, DagParams};

fn edge_set(g: &parsched::graph::UnGraph) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    edges.sort_unstable();
    edges
}

fn matrix_edge_set(m: &parsched::graph::BitMatrix) -> Vec<(usize, usize)> {
    m.edges().collect()
}

fn assert_pigs_identical(session: &Pig, reference: &Pig, context: &str) {
    assert_eq!(
        edge_set(session.graph()),
        edge_set(reference.graph()),
        "PIG edge sets diverge: {context}"
    );
    assert_eq!(
        matrix_edge_set(session.false_only()),
        matrix_edge_set(reference.false_only()),
        "false-only edge sets diverge: {context}"
    );
    assert_eq!(
        matrix_edge_set(session.shared()),
        matrix_edge_set(reference.shared()),
        "shared edge sets diverge: {context}"
    );
}

/// Mirrors the allocator's Pinter spill loop on one function, one
/// session for the whole loop, asserting after **every** round that the
/// session's PIG matches the dense construction. Returns how many rounds
/// ran on a spill-rewritten block.
fn check_spill_loop(func: &parsched::ir::Function, machine: &MachineDesc, case: &str) -> usize {
    let block_id = BlockId(0);
    let k = machine.num_regs();
    let mut session = AllocSession::new();
    let mut current = func.clone();
    let mut next_slot = 0i64;
    let protected_from = current.num_sym_regs();
    let mut rewritten_rounds = 0;

    for round in 0..8 {
        let liveness = Liveness::compute(&current, &[]);
        let problem = match BlockAllocProblem::build(&current, block_id, &liveness) {
            Ok(p) => p,
            Err(_) => return rewritten_rounds,
        };
        session
            .begin(current.block(block_id), &NullTelemetry)
            .expect("no deadline set, build cannot trip");
        if round > 0 {
            rewritten_rounds += 1;
        }
        let pig = session
            .build_pig(&problem, machine, &NullTelemetry)
            .expect("no deadline set, PIG walk cannot trip")
            .expect("session was begun, PIG must build");

        let deps = DepGraph::build(current.block(block_id), &NullTelemetry);
        let reference = Pig::build(&problem, &deps, machine, &NullTelemetry);
        assert_pigs_identical(&pig, &reference, &format!("{case}, round {round}"));

        // Drive the next spill round exactly as the allocator would.
        let costs: Vec<f64> = (0..problem.len())
            .map(|n| match problem.nodes()[n] {
                Reg::Sym(s) if s.0 >= protected_from => 1e12,
                _ => problem.spill_cost(n),
            })
            .collect();
        let heights = deps.heights(machine).expect("block bodies are acyclic");
        let priority: Vec<u32> = (0..problem.len())
            .map(|n| problem.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        let out = combined_color(
            &pig,
            k,
            &costs,
            &priority,
            &PinterConfig::default(),
            &NullTelemetry,
        );
        if out.spilled.is_empty() {
            return rewritten_rounds;
        }
        let spill_regs: Vec<Reg> = out.spilled.iter().map(|&n| problem.nodes()[n]).collect();
        let (rewritten, _inserted) = insert_spill_code(
            &current,
            block_id,
            &spill_regs,
            &mut next_slot,
            &NullTelemetry,
        );
        current = rewritten;
    }
    rewritten_rounds
}

/// ≥200 seeded cases across machine sizes and DAG shapes. Starved
/// register files force multi-round spill loops, so sessions rebuilt on
/// spill-rewritten blocks (not just the first build) are what's compared.
#[test]
fn session_pig_matches_from_scratch_across_spill_rounds() {
    let mut cases = 0;
    let mut rewritten_rounds = 0;
    for seed in 0..70u64 {
        let params = DagParams {
            size: 12 + (seed as usize % 5) * 7,
            load_fraction: 0.2,
            float_fraction: 0.3,
            // Wide windows keep many values live, forcing spills on the
            // smaller machines below.
            window: 8 + (seed as usize % 3) * 8,
        };
        let func = random_dag_function(seed * 13 + 1, &params);
        for machine in [
            presets::paper_machine(4),
            presets::paper_machine(6),
            presets::single_issue(8),
        ] {
            rewritten_rounds +=
                check_spill_loop(&func, &machine, &format!("seed {seed}, {machine}"));
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} property cases ran");
    // If no case ever spilled, no rewritten block was compared and the
    // test is vacuous — fail loudly instead.
    assert!(
        rewritten_rounds >= 50,
        "only {rewritten_rounds} spill-rewritten rounds exercised; \
         workload no longer forces spilling"
    );
}

/// One session reused across two different functions must produce output
/// byte-identical to two fresh sessions: `begin` is a full reset.
#[test]
fn session_reuse_across_functions_is_byte_identical() {
    let machine = presets::paper_machine(6);
    let params_a = DagParams {
        size: 30,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 16,
    };
    let params_b = DagParams {
        size: 22,
        load_fraction: 0.3,
        float_fraction: 0.5,
        window: 24,
    };
    let f1 = random_dag_function(11, &params_a);
    let f2 = random_dag_function(42, &params_b);
    let strategy = BlockStrategy::Pinter(PinterConfig::default());
    let limits = AllocLimits::default();

    let fresh1 = allocate_single_block(&f1, &machine, strategy, &limits, &NullTelemetry).unwrap();
    let fresh2 = allocate_single_block(&f2, &machine, strategy, &limits, &NullTelemetry).unwrap();

    let mut session = AllocSession::new();
    let reused1 = allocate_single_block_in(
        &mut session,
        &f1,
        &machine,
        strategy,
        &limits,
        &NullTelemetry,
    )
    .unwrap();
    let reused2 = allocate_single_block_in(
        &mut session,
        &f2,
        &machine,
        strategy,
        &limits,
        &NullTelemetry,
    )
    .unwrap();

    assert_eq!(
        print_function(&fresh1.function),
        print_function(&reused1.function)
    );
    assert_eq!(
        print_function(&fresh2.function),
        print_function(&reused2.function)
    );
    assert_eq!(fresh1.spilled_values, reused1.spilled_values);
    assert_eq!(fresh2.spilled_values, reused2.spilled_values);
    assert_eq!(fresh1.colors_used, reused1.colors_used);
    assert_eq!(fresh2.colors_used, reused2.colors_used);
}
