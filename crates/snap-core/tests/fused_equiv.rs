//! Bit-identity of the translation tiers, including under `isw`
//! self-modification of a hot (fused) region and a timer expiring
//! inside one.
//!
//! The broad conformance net is snap-smith's differential matrix; this
//! suite pins the specific contract the fused tier was built around —
//! the same program run under [`Engine::Interp`] and [`Engine::Fused`]
//! must agree on every architectural register, both memories, the
//! final pc and simulated time, every statistic down to the raw `f64`
//! bits of the energy total, and each dispatch's queue wait — with
//! deterministic regressions for the invalidation path (a loop that
//! rewrites its own body after getting hot) and for a timer token
//! stamped mid-loop, and a property test over the loop shape and the
//! timer phase.

use proptest::prelude::*;
use snap_core::{CoreConfig, Engine, Processor};
use snap_isa::{AluOp, Instruction, Reg};

/// Everything the tiers must agree on, in bit-comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    regs: Vec<u16>,
    carry: bool,
    pc: u16,
    now_ps: u64,
    dmem: Vec<u16>,
    imem: Vec<u16>,
    instructions: u64,
    cycles: u64,
    energy_bits: u64,
    busy_ps: u64,
    sleep_ps: u64,
    wakeups: u64,
    handlers: u64,
    /// Per dispatch, in order: how long its token waited in the queue.
    /// A token stamped late (a timer polled after its expiry) shows up
    /// here even when the dispatch order does not change.
    queue_waits_ps: Vec<u64>,
}

fn run(source: &str, engine: Engine, max_steps: u64) -> Snapshot {
    let program = snap_asm::assemble(source).expect("test program assembles");
    let mut cpu = Processor::new(CoreConfig {
        engine,
        ..CoreConfig::default()
    });
    cpu.enable_sampling(64);
    cpu.load_image(0, &program.imem_image()).unwrap();
    cpu.load_data(0, &program.dmem_image()).unwrap();
    cpu.run_to_halt(max_steps).unwrap();
    let stats = cpu.stats();
    Snapshot {
        // r15 is the message FIFO; reading it pops, so observe r0–r14.
        regs: Reg::ALL[..15].iter().map(|&r| cpu.regs().read(r)).collect(),
        carry: cpu.regs().carry(),
        pc: cpu.pc(),
        now_ps: cpu.now().as_ps(),
        dmem: (0..64).map(|a| cpu.dmem().read(a)).collect(),
        imem: (0..64).map(|a| cpu.imem().read(a)).collect(),
        instructions: stats.instructions,
        cycles: stats.cycles,
        energy_bits: stats.energy.as_pj().to_bits(),
        busy_ps: stats.busy_time.as_ps(),
        sleep_ps: stats.sleep_time.as_ps(),
        wakeups: stats.wakeups,
        handlers: stats.handlers_dispatched,
        queue_waits_ps: cpu
            .sampler()
            .unwrap()
            .samples()
            .iter()
            .map(|s| s.queue_wait.as_ps())
            .collect(),
    }
}

/// Run under both engines and insist on bit-equality; returns the
/// agreed snapshot for scenario-specific assertions.
fn assert_engines_agree(source: &str, max_steps: u64) -> Snapshot {
    let interp = run(source, Engine::Interp, max_steps);
    let fused = run(source, Engine::Fused, max_steps);
    assert_eq!(interp, fused, "interp vs fused");
    interp
}

/// A counter loop that rewrites its own body once it has run hot:
/// phase 1 accumulates into `r2`, then the loop's first instruction
/// (`add r2, r1`) is overwritten via `isw` with `add rd, r1` for a
/// caller-chosen `rd`, and the same loop re-runs as phase 2. The
/// fused trace covering the loop must be invalidated by the store —
/// silently replaying the stale body would accumulate phase 2 into
/// `r2`. Timer 0 is armed for `ticks` µs at boot; its handler halts,
/// so the expiry may land before, inside or after either loop.
fn self_modifying_loop(phase1: u16, phase2: u16, rd: Reg, ticks: u16) -> String {
    let patched = Instruction::AluReg {
        op: AluOp::Add,
        rd,
        rs: Reg::R1,
    };
    let word = patched.encode().first();
    format!(
        "\
boot:
    li      r10, tick
    setaddr r0, r10
    li      r10, {ticks}
    schedlo r0, r10
    li      r1, {phase1}
loop:
    add     r2, r1
    subi    r1, 1
    bnez    r1, loop
    bnez    r7, end
    li      r7, 1
    li      r4, loop
    li      r5, {word}
    isw     r5, 0(r4)
    li      r1, {phase2}
    jmp     loop
end:
    done
tick:
    halt
"
    )
}

/// Timer 0 armed for `ticks` µs, then a hot counted loop, then a `swev`
/// right before `done`. Each handler appends its number to a dispatch
/// log at DMEM 32: 1 for the timer, 2 for the soft event, which halts.
/// If the timer expires inside the loop, the interpreter queues its
/// token mid-loop, ahead of the soft token. A replay that ran past the
/// expiry would poll it only after the `swev`, reversing the order.
fn timer_in_hot_loop(iterations: u16, ticks: u16) -> String {
    format!(
        "\
boot:
    li      r10, tick
    setaddr r0, r10
    li      r10, 7
    li      r11, soft
    setaddr r10, r11
    li      r6, 32
    li      r5, 7
    li      r11, {ticks}
    schedlo r0, r11
    li      r1, {iterations}
loop:
    add     r2, r1
    add     r3, r2
    subi    r1, 1
    bnez    r1, loop
    swev    r5
    done
tick:
    li      r4, 1
    sw      r4, 0(r6)
    addi    r6, 1
    done
soft:
    li      r4, 2
    sw      r4, 0(r6)
    addi    r6, 1
    halt
"
    )
}

#[test]
fn hot_loop_agrees_across_engines() {
    let src = "\
boot:
    li      r1, 200
loop:
    add     r2, r1
    add     r3, r2
    subi    r1, 1
    bnez    r1, loop
    halt
";
    let snap = assert_engines_agree(src, 10_000);
    // 200 + 199 + ... + 1.
    assert_eq!(snap.regs[2], 20_100u32 as u16);
    assert!(snap.instructions > 800);
}

#[test]
fn isw_into_hot_region_invalidates_and_agrees() {
    let snap = assert_engines_agree(&self_modifying_loop(60, 40, Reg::R9, 1), 10_000);
    // Phase 1 summed 60..=1 into r2; phase 2 must land in r9, not r2.
    assert_eq!(snap.regs[2], (1..=60u16).sum::<u16>());
    assert_eq!(snap.regs[9], (1..=40u16).sum::<u16>());
}

#[test]
fn isw_redirecting_to_self_still_terminates() {
    // Patching the target with the identical instruction is the
    // degenerate invalidation: nothing observable changes, but the
    // caches must still drop and rebuild the region.
    let snap = assert_engines_agree(&self_modifying_loop(25, 30, Reg::R2, 1), 10_000);
    assert_eq!(
        snap.regs[2],
        (1..=25u16).sum::<u16>() + (1..=30u16).sum::<u16>()
    );
}

#[test]
fn timer_expiring_in_a_hot_loop_is_stamped_exactly() {
    let snap = assert_engines_agree(&timer_in_hot_loop(600, 3), 10_000);
    // The timer fired inside the loop, so its token was queued ahead of
    // the soft event's: both handlers ran, timer first.
    assert_eq!(snap.dmem[32..35], [1, 2, 0]);
    assert_eq!(snap.handlers, 2);
    assert_eq!(snap.queue_waits_ps.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine bit-identity holds across loop lengths, patch targets and
    /// timer phases, including phases short enough that the trace
    /// never gets hot, lengths that cross the budget boundary mid-loop,
    /// and expiries before, inside and after either loop.
    #[test]
    fn self_modifying_loops_agree(
        phase1 in 1u16..120,
        phase2 in 1u16..120,
        rd in prop_oneof![Just(Reg::R2), Just(Reg::R3), Just(Reg::R8), Just(Reg::R9)],
        ticks in 0u16..5,
    ) {
        assert_engines_agree(&self_modifying_loop(phase1, phase2, rd, ticks), 20_000);
    }
}
