//! The bisector, validated against a divergence whose first instant is
//! known by construction: two identical legs, one driven by a script
//! with an extra sensor IRQ seeded at a fixed executed-instruction
//! count. The bisector must (a) localize the split to exactly that
//! instruction, and (b) do it by replaying from a mid-run checkpoint,
//! not from t = 0.

use snap_core::Engine;
use snap_smith::bisect::{bisect, mutate_script, BisectOutcome, LegSpec};
use snap_smith::diff::Runner;
use snap_smith::gen::{generate, parse_script, script_header, Script};

/// A program that never quiesces: a self-re-arming timer handler plus
/// a sensor-IRQ handler, so any executed-instruction count inside the
/// script budget is reachable and an injected IRQ always lands in a
/// live run.
const METRONOME_S: &str = "\
boot:
    li r1, 0
    li r2, tick
    setaddr r1, r2
    li r1, 5
    li r2, sense
    setaddr r1, r2
    li r1, 0
    schedhi r1, r0
    li r2, 40
    schedlo r1, r2
    done
tick:
    lw r3, 0(r0)
    addi r3, 1
    sw r3, 0(r0)
    li r1, 0
    schedhi r1, r0
    li r2, 40
    schedlo r1, r2
    done
sense:
    lw r4, 1(r0)
    addi r4, 1
    sw r4, 1(r0)
    done
";

const MUTATION_AT: u64 = 1234;
const INTERVAL: u64 = 256;

fn metronome() -> (snap_asm::Program, Script) {
    let program = snap_asm::assemble(METRONOME_S).expect("metronome assembles");
    let script = Script {
        stimuli: Vec::new(),
        max_instructions: 2_000,
    };
    (program, script)
}

#[test]
fn seeded_mutation_is_localized_to_the_exact_instruction() {
    let (program, script) = metronome();
    let mutated = mutate_script(&script, MUTATION_AT);
    let runner = Runner::CoreBurst {
        engine: Engine::Fused,
    };
    let reference = LegSpec {
        program: &program,
        script: &script,
        runner,
    };
    let suspect = LegSpec {
        program: &program,
        script: &mutated,
        runner,
    };
    let report = match bisect(&reference, &suspect, INTERVAL).unwrap() {
        BisectOutcome::Diverged(r) => r,
        BisectOutcome::Agree => panic!("mutated legs must diverge"),
    };

    // The window brackets the seeded instant with one interval.
    assert!(
        report.window.0 < MUTATION_AT && MUTATION_AT <= report.window.1,
        "window {:?} does not bracket the mutation at {MUTATION_AT}",
        report.window
    );
    assert_eq!(report.window.1 - report.window.0, INTERVAL);
    // Time travel actually happened: the replay resumed from the
    // checkpoint at the window start, not from zero.
    assert_eq!(report.replayed_from, report.window.0);
    assert_eq!(report.replayed_from, (MUTATION_AT / INTERVAL) * INTERVAL);
    assert!(report.replayed_from > 0);
    // ... and it pinned the split to the exact instruction: the extra
    // IRQ is first visible in the post-injection state at MUTATION_AT.
    assert_eq!(report.first_divergence, MUTATION_AT);
    // The first differing field is the injected event token (queued,
    // or — if the core was mid-handler — already dispatched state).
    assert!(!report.detail.is_empty());
}

#[test]
fn bisect_is_insensitive_to_the_checkpoint_interval() {
    let (program, script) = metronome();
    let mutated = mutate_script(&script, MUTATION_AT);
    let runner = Runner::CoreBurst {
        engine: Engine::Fused,
    };
    for interval in [64u64, 100, 1000] {
        let report = match bisect(
            &LegSpec {
                program: &program,
                script: &script,
                runner,
            },
            &LegSpec {
                program: &program,
                script: &mutated,
                runner,
            },
            interval,
        )
        .unwrap()
        {
            BisectOutcome::Diverged(r) => r,
            BisectOutcome::Agree => panic!("interval {interval}: mutated legs must diverge"),
        };
        assert_eq!(
            report.first_divergence, MUTATION_AT,
            "interval {interval} mislocalized the split"
        );
    }
}

/// Cross-configuration agreement on generated programs: the stepped
/// interpreter checkpointed against every batched tier must come back
/// [`BisectOutcome::Agree`] — this exercises the config-blind state
/// comparison and restore.
#[test]
fn generated_programs_agree_across_tiers_under_checkpointing() {
    for seed in [3u64, 11, 29] {
        let case = generate(seed);
        let program = snap_asm::assemble(&case.source).expect("generated program assembles");
        let reference = LegSpec {
            program: &program,
            script: &case.script,
            runner: Runner::CoreStep,
        };
        for engine in [Engine::Interp, Engine::Fused] {
            let suspect = LegSpec {
                program: &program,
                script: &case.script,
                runner: Runner::CoreBurst { engine },
            };
            match bisect(&reference, &suspect, 128).unwrap() {
                BisectOutcome::Agree => {}
                BisectOutcome::Diverged(r) => panic!(
                    "seed {seed} {engine:?}: {}",
                    snap_smith::bisect::format_report(&r)
                ),
            }
        }
    }
}

#[test]
fn oracle_legs_are_rejected() {
    let (program, script) = metronome();
    let leg = LegSpec {
        program: &program,
        script: &script,
        runner: Runner::Oracle,
    };
    let err = bisect(&leg, &leg, INTERVAL).unwrap_err();
    assert!(err.contains("oracle"), "unexpected error: {err}");
}

/// The CLI surface: `--bisect` on a clean reproducer exits 0;
/// `--bisect --mutate N` prints a report naming the seeded instant and
/// exits 1.
#[test]
fn bisect_cli_reports_the_seeded_mutation() {
    let dir = std::env::temp_dir().join(format!("smith-bisect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metronome.sasm");
    let script = Script {
        stimuli: Vec::new(),
        max_instructions: 2_000,
    };
    let source = format!("{}{METRONOME_S}", script_header(&script));
    assert_eq!(parse_script(&source), script, "header round trip");
    std::fs::write(&path, &source).unwrap();
    let path = path.to_str().unwrap();

    let clean = std::process::Command::new(env!("CARGO_BIN_EXE_snap-smith"))
        .args(["--bisect", path])
        .output()
        .expect("spawn snap-smith");
    assert!(
        clean.status.success(),
        "clean bisect failed: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
    assert!(String::from_utf8_lossy(&clean.stdout).contains("agree"));

    let mutated = std::process::Command::new(env!("CARGO_BIN_EXE_snap-smith"))
        .args(["--bisect", path, "--mutate", "1234", "--every", "256"])
        .output()
        .expect("spawn snap-smith");
    assert_eq!(mutated.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&mutated.stdout);
    assert!(
        stdout.contains("first divergent state at instruction 1234"),
        "report did not localize the mutation:\n{stdout}"
    );
    assert!(stdout.contains("replayed from the checkpoint at 1024"));

    let _ = std::fs::remove_dir_all(&dir);
}
