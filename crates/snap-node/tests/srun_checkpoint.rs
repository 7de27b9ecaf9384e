//! `srun --checkpoint-every` / `--restore` end to end: checkpointing a
//! run must not perturb it, and resuming from a mid-run checkpoint must
//! land on the uninterrupted run's exact final state.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A self-contained periodic-timer blink: installs an `EV_TIMER0`
/// handler that counts ticks, re-arms itself and writes the LED port.
/// Keeps the node waking every 500 µs for as long as it runs.
const BLINK_S: &str = "\
boot:
    li      r1, 0
    li      r2, tick
    setaddr r1, r2
    li      r1, 0
    schedhi r1, r0
    li      r2, 500
    schedlo r1, r2
    done
tick:
    lw      r3, 0(r0)
    addi    r3, 1
    sw      r3, 0(r0)
    li      r1, 0
    schedhi r1, r0
    li      r2, 500
    schedlo r1, r2
    li      r5, 0x4000
    or      r5, r3
    mov     r15, r5
    done
";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srun-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_srun(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_srun"))
        .args(args)
        .output()
        .expect("spawn srun");
    assert!(
        out.status.success(),
        "srun {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The final statistics block — state, clock, instruction count,
/// handler count, energy, busy/sleep split. Identical stats means the
/// runs were observably identical.
fn stats(stdout: &str) -> Vec<String> {
    let lines: Vec<String> = stdout
        .lines()
        .skip_while(|l| *l != "---")
        .map(String::from)
        .collect();
    assert!(!lines.is_empty(), "no stats block in output:\n{stdout}");
    lines
}

fn checkpoint_equivalence(engine: &str, tag: &str) {
    let dir = scratch_dir(tag);
    let src = dir.join("blink.s");
    std::fs::write(&src, BLINK_S).unwrap();
    let src = src.to_str().unwrap();

    let straight = run_srun(&["--ms", "10", "--engine", engine, src]);

    // Checkpointing must not perturb the run.
    let observed = run_srun(&[
        "--ms",
        "10",
        "--engine",
        engine,
        "--checkpoint-every",
        "2",
        src,
    ]);
    assert_eq!(
        stats(&observed),
        stats(&straight),
        "checkpointing changed the run"
    );
    for ms in [2u64, 4, 6, 8, 10] {
        assert!(
            Path::new(&format!("{src}.ckpt.{ms}ms.snap")).exists(),
            "missing checkpoint at {ms} ms"
        );
    }

    // Resuming from the 4 ms checkpoint and running the remaining 6 ms
    // must land exactly on the straight run.
    let resumed = run_srun(&["--restore", &format!("{src}.ckpt.4ms.snap"), "--ms", "6"]);
    assert_eq!(
        stats(&resumed),
        stats(&straight),
        "restore diverged from the straight run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_restore_matches_straight_run_fused() {
    checkpoint_equivalence("fused", "fused");
}

#[test]
fn restore_rejects_garbage() {
    let dir = scratch_dir("garbage");
    let bad = dir.join("bad.snap");
    std::fs::write(&bad, b"not a snapshot").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_srun"))
        .args(["--restore", bad.to_str().unwrap(), "--ms", "1"])
        .output()
        .expect("spawn srun");
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
