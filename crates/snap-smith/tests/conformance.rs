//! Bounded differential conformance sweep — the in-tree smoke version
//! of the `snap-smith` fuzzing binary. Every generated program must
//! behave bit-identically under the naive oracle and all three
//! `snap-core` configurations (stepped, and batched under each
//! translation tier).

use snap_smith::diff::{check_source, run_program, Runner};
use snap_smith::gen::generate;

#[test]
fn generated_programs_agree_across_all_configurations() {
    for seed in 0..40u64 {
        let case = generate(seed);
        if let Some(d) = check_source(&case.source, &case.script) {
            panic!(
                "seed {seed} diverged in {}:\n{}\n--- program ---\n{}",
                d.config, d.detail, case.source
            );
        }
    }
}

#[test]
fn sweep_exercises_substantial_execution() {
    // Guard against the generator regressing into trivial programs
    // that agree vacuously: the sweep must execute real work.
    let mut instructions = 0u64;
    let mut handlers = 0u64;
    let mut actions = 0usize;
    for seed in 0..40u64 {
        let case = generate(seed);
        let program = snap_asm::assemble(&case.source).expect("generated programs assemble");
        if let Ok(out) = run_program(&program, &case.script, Runner::Oracle) {
            instructions += out.observed.instructions;
            handlers += out.observed.handlers;
            actions += out.observed.actions.len();
        }
    }
    assert!(
        instructions > 20_000,
        "sweep executed only {instructions} instructions"
    );
    assert!(
        handlers > 1_000,
        "sweep dispatched only {handlers} handlers"
    );
    assert!(actions > 50, "sweep performed only {actions} env actions");
}

#[test]
fn divergence_detection_is_live() {
    // End-to-end mutation check: a program whose behaviour is patched
    // to differ between runs must be reported. Here we instead check
    // the negative control's machinery by diffing a program against a
    // script long enough to execute it — and then asserting that a
    // *deliberately different* observation is flagged by `compare`.
    use snap_smith::diff::compare;
    let case = generate(7);
    let program = snap_asm::assemble(&case.source).unwrap();
    let a = run_program(&program, &case.script, Runner::Oracle);
    let b = run_program(&program, &case.script, Runner::CoreStep);
    assert!(compare(&a, &b).is_none(), "seed 7 should agree");
    // Tamper with one register and require detection.
    let mut tampered = b.unwrap();
    tampered.observed.regs[3] ^= 1;
    let detail = compare(&a, &Ok(tampered)).expect("tampered run must diverge");
    assert!(detail.contains("regs"), "unexpected detail: {detail}");
}
