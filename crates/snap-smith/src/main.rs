//! Differential conformance fuzzer for the SNAP pipeline.
//!
//! ```text
//! snap-smith [--seed N] [--iters N] [--repro FILE] [--keep-going]
//!            [--soundness N] [--bisect FILE] [--every N] [--mutate N]
//! ```
//!
//! Fuzz mode generates one program per iteration (iteration `i` uses
//! seed `seed + i`, so any failure names its exact seed), assembles it,
//! and diffs the oracle against every core configuration (stepped and
//! batched, across translation tiers). On a
//! divergence the case is shrunk and written to
//! `snap-smith-repro-<seed>.sasm`; the process exits nonzero.
//!
//! Repro mode re-runs a previously written `.sasm` file (the embedded
//! `; !snap-smith` header restores the environment script).
//!
//! `--soundness N` runs the `snap-lint` soundness cross-check instead:
//! N generated programs are statically analyzed and then executed, and
//! every executed pc, completed dispatch and measured cost is checked
//! against the static reachability/termination/bound claims.
//!
//! `--bisect FILE` localizes *when* a `.sasm` reproducer's universes
//! split: both legs run once with a core snapshot taken every `--every`
//! instructions (default 256), the checkpoints are binary-searched for
//! the first disagreeing boundary, and the window is replayed from the
//! last agreeing checkpoint — not from t = 0 — down to the exact
//! instruction. `--mutate N` injects an extra sensor IRQ at executed
//! count N into the suspect leg only: a known-divergent mutation for
//! validating the bisector against a split whose instant is known.

use snap_smith::bisect::{bisect, mutate_script, BisectOutcome, LegSpec, DEFAULT_INTERVAL};
use snap_smith::diff::{check_source, compare, run_program, Runner};
use snap_smith::gen::{generate, parse_script};
use snap_smith::shrink::shrink;

struct Options {
    seed: u64,
    iters: u64,
    repro: Option<String>,
    keep_going: bool,
    soundness: Option<u64>,
    bisect: Option<String>,
    every: u64,
    mutate: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: snap-smith [--seed N] [--iters N] [--repro FILE] [--keep-going] [--soundness N]\n\
         \x20                 [--bisect FILE] [--every N] [--mutate N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 1,
        iters: 100,
        repro: None,
        keep_going: false,
        soundness: None,
        bisect: None,
        every: DEFAULT_INTERVAL,
        mutate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--iters" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.iters = v.parse().unwrap_or_else(|_| usage());
            }
            "--repro" => {
                opts.repro = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--keep-going" => opts.keep_going = true,
            "--soundness" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.soundness = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--bisect" => {
                opts.bisect = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--every" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.every = v.parse().unwrap_or_else(|_| usage());
                if opts.every == 0 {
                    usage();
                }
            }
            "--mutate" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.mutate = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// The stepped interpreter: the trusted leg every bisection resumes
/// its reference side from.
const REFERENCE: Runner = Runner::CoreStep;

fn run_bisect(path: &str, every: u64, mutate: Option<u64>) -> i32 {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snap-smith: cannot read {path}: {e}");
            return 2;
        }
    };
    let script = parse_script(&source);
    let program = match snap_asm::assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("snap-smith: {path} does not assemble: {e}");
            return 2;
        }
    };

    // A seeded mutation pits one configuration against itself under a
    // perturbed environment; the split instant is known by construction.
    if let Some(at) = mutate {
        let mutated = mutate_script(&script, at);
        let runner = Runner::CoreBurst {
            engine: snap_core::Engine::Fused,
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
        println!("bisecting {path} against itself with an extra IRQ at instruction {at}");
        return print_bisect(&reference, &suspect, every);
    }

    // Otherwise find which core configuration actually diverges.
    let reference_run = run_program(&program, &script, Runner::Oracle);
    let mut diverging = None;
    for runner in Runner::CORE_CONFIGS {
        let got = run_program(&program, &script, runner);
        if let Some(detail) = compare(&reference_run, &got) {
            diverging = Some((runner, detail));
            break;
        }
    }
    let Some((runner, detail)) = diverging else {
        println!("{path}: all configurations agree — nothing to bisect");
        return 0;
    };
    println!("{path}: DIVERGENCE in {}", runner.label());
    println!("{detail}");
    if runner == REFERENCE {
        println!(
            "the stepped interpreter itself diverges from the oracle; \
             its trace diff above already names the first instruction"
        );
        return 1;
    }
    let reference = LegSpec {
        program: &program,
        script: &script,
        runner: REFERENCE,
    };
    let suspect = LegSpec {
        program: &program,
        script: &script,
        runner,
    };
    print_bisect(&reference, &suspect, every)
}

fn print_bisect(reference: &LegSpec<'_>, suspect: &LegSpec<'_>, every: u64) -> i32 {
    match bisect(reference, suspect, every) {
        Ok(BisectOutcome::Agree) => {
            println!(
                "bisect: the legs agree at instruction granularity — the divergence \
                 is only visible against the oracle (core-family-wide)"
            );
            1
        }
        Ok(BisectOutcome::Diverged(r)) => {
            println!("{}", snap_smith::bisect::format_report(&r));
            1
        }
        Err(e) => {
            eprintln!("snap-smith: bisect failed: {e}");
            2
        }
    }
}

fn run_repro(path: &str) -> i32 {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snap-smith: cannot read {path}: {e}");
            return 2;
        }
    };
    let script = parse_script(&source);
    match check_source(&source, &script) {
        None => {
            println!("{path}: all configurations agree");
            0
        }
        Some(d) => {
            println!("{path}: DIVERGENCE in {}", d.config);
            println!("{}", d.detail);
            1
        }
    }
}

fn main() {
    let opts = parse_args();
    if let Some(path) = &opts.bisect {
        std::process::exit(run_bisect(path, opts.every, opts.mutate));
    }
    if let Some(path) = &opts.repro {
        std::process::exit(run_repro(path));
    }
    if let Some(iters) = opts.soundness {
        match snap_smith::soundness::run(opts.seed, iters) {
            Ok(r) => {
                println!(
                    "{} seeds: lint soundness holds ({} pcs, {} samples, {} pure \
                     bursts / {} flow samples checked; max queue depth {}; \
                     {} run failures, {} degraded analyses)",
                    r.seeds,
                    r.pcs_checked,
                    r.samples_checked,
                    r.bursts_checked,
                    r.flow_samples_checked,
                    r.max_queue_depth,
                    r.run_failures,
                    r.degraded
                );
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("LINT SOUNDNESS VIOLATION: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut divergences = 0u64;
    for i in 0..opts.iters {
        let seed = opts.seed.wrapping_add(i);
        let case = generate(seed);
        if let Some(d) = check_source(&case.source, &case.script) {
            divergences += 1;
            eprintln!("seed {seed}: DIVERGENCE in {}", d.config);
            eprintln!("{}", d.detail);
            eprintln!("shrinking...");
            let small = shrink(&case.source, &case.script);
            let out = format!("snap-smith-repro-{seed}.sasm");
            match std::fs::write(&out, &small) {
                Ok(()) => eprintln!("reproducer written to {out}"),
                Err(e) => eprintln!("could not write {out}: {e}"),
            }
            if !opts.keep_going {
                std::process::exit(1);
            }
        }
        if (i + 1) % 100 == 0 {
            println!(
                "{}/{} cases, {divergences} divergences (seeds {}..={seed})",
                i + 1,
                opts.iters,
                opts.seed
            );
        }
    }
    if divergences > 0 {
        eprintln!("{divergences} divergent cases");
        std::process::exit(1);
    }
    println!(
        "{} cases, 0 divergences across oracle + {} core configurations",
        opts.iters,
        snap_smith::diff::Runner::CORE_CONFIGS.len()
    );
}
