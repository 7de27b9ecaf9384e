//! Golden-trace regression tests for the paper benchmarks.
//!
//! Each app runs under the `snap-smith` differential driver with a
//! fixed environment script; the full executed-instruction trace plus
//! the final architectural state is rendered to text and compared
//! against a checked-in golden file. Any change to decode, timing,
//! energy accounting, the event queue, or the apps themselves shows up
//! as a readable diff of *which instruction* first went differently —
//! not just a changed aggregate.
//!
//! Regenerating after an intentional behaviour change:
//!
//! ```text
//! SNAP_BLESS=1 cargo test -p snap-apps --test golden_traces
//! ```
//!
//! then review the golden-file diff like any other code change.

use snap_apps::blink::blink_program;
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_apps::sense::sense_program;
use snap_asm::Program;
use snap_smith::diff::{run_program, RunOutput, Runner};
use snap_smith::gen::{Script, Stimulus, StimulusKind};

fn script(stimuli: Vec<Stimulus>, max_instructions: u64) -> Script {
    Script {
        stimuli,
        max_instructions,
    }
}

fn render(out: &RunOutput) -> String {
    let mut s = String::new();
    for (addr, ins) in out.trace.as_ref().expect("step runner records a trace") {
        s.push_str(&format!("{addr:#05x}: {ins}\n"));
    }
    let o = &out.observed;
    s.push_str(&format!(
        "-- instructions {} cycles {} energy_bits {:#018x}\n",
        o.instructions, o.cycles, o.energy_bits
    ));
    s.push_str(&format!(
        "-- busy_ps {} sleep_ps {} now_ps {} wakeups {} handlers {}\n",
        o.busy_ps, o.sleep_ps, o.now_ps, o.wakeups, o.handlers
    ));
    s.push_str(&format!(
        "-- regs {:?} carry {} pc {:#05x} state {}\n",
        o.regs, o.carry, o.pc, o.state
    ));
    s.push_str(&format!(
        "-- port {:#06x} timers {:?} msg_words {:?} actions {}\n",
        o.port,
        o.timers,
        o.msg_words,
        o.actions.len()
    ));
    s
}

fn check(name: &str, program: &Program, sc: &Script) {
    // The trace is recorded from the real core in step mode; the
    // oracle must render identically (the differential fuzzer covers
    // this broadly, the goldens pin it for the benchmark apps
    // specifically).
    let stepped = run_program(program, sc, Runner::CoreStep)
        .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
    let oracle = run_program(program, sc, Runner::Oracle)
        .unwrap_or_else(|e| panic!("{name}: oracle run failed: {e}"));
    let text = render(&stepped);
    assert_eq!(
        text,
        render(&oracle),
        "{name}: the oracle traced differently"
    );

    // The batched translation tiers expose no per-instruction trace,
    // but their final observation — registers, memories, event
    // counters, energy *bits* — must match the stepped run that the
    // golden file pins, for each benchmark app specifically.
    for runner in Runner::CORE_CONFIGS {
        if matches!(runner, Runner::CoreStep) {
            continue;
        }
        let burst = run_program(program, sc, runner)
            .unwrap_or_else(|e| panic!("{name}: {} run failed: {e}", runner.label()));
        assert_eq!(
            stepped.observed,
            burst.observed,
            "{name}: {} diverged from the golden stepped run",
            runner.label()
        );
    }

    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SNAP_BLESS").is_some() {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot bless {path}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name}: cannot read golden file {path}: {e}\n(run with SNAP_BLESS=1 to create it)")
    });
    if text != golden {
        let mismatch = text
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or("length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{name}: trace differs from golden file at {mismatch}.\n\
             If the change is intentional, regenerate with:\n\
             SNAP_BLESS=1 cargo test -p snap-apps --test golden_traces\n\
             and review the diff of {path}."
        );
    }
}

#[test]
fn blink_golden_trace() {
    let program = blink_program().unwrap();
    check("blink", &program, &script(vec![], 300));
}

#[test]
fn sense_golden_trace() {
    let program = sense_program().unwrap();
    check("sense", &program, &script(vec![], 600));
}

#[test]
fn mac_golden_trace() {
    let extra = install_handler("EV_IRQ", "app_send_irq");
    let app = format!("{}{}", send_on_irq_app(2), RX_DISPATCH_STUB);
    let program = mac_program(1, &extra, &app).unwrap();
    let stimuli = vec![
        Stimulus {
            at: 40,
            kind: StimulusKind::SensorIrq,
        },
        Stimulus {
            at: 220,
            kind: StimulusKind::RadioRx(0x2107),
        },
        Stimulus {
            at: 380,
            kind: StimulusKind::SensorIrq,
        },
    ];
    check("mac", &program, &script(stimuli, 700));
}
