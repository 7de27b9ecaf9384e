//! Time-travel bisection of differential failures via checkpoints.
//!
//! The fuzzer's end-of-run diff ([`crate::diff::compare`]) names the
//! first differing *field*, but for batched runners (no per-instruction
//! trace) it says nothing about *when* the two universes split. This
//! module localizes that instant:
//!
//! 1. **Checkpoint pass** — both legs run once under one driver,
//!    keeping a copy of the core every `interval` executed
//!    instructions. The core's snapshot encoding *is* the canonical
//!    architectural observation: two cores agree at a boundary iff
//!    their encodings are equal past the config header (the engine
//!    legitimately differs between legs; caches are never encoded, so
//!    warm-vs-cold state cannot leak in).
//! 2. **Binary search** — over the aligned checkpoint boundaries for
//!    the first one where the states differ, giving a divergence
//!    window of at most `interval` instructions.
//! 3. **Replay** — both legs are rebuilt *from a snapshot of their
//!    checkpoint at the last agreeing boundary* (not from t = 0) and
//!    re-driven one instruction at a time, comparing state after every
//!    executed instruction, down to the exact count where the
//!    universes split.
//!
//! The replay step is also an end-to-end exercise of the snapshot
//! layer: it only finds the same divergence the straight runs showed
//! if restore is bit-exact.
//!
//! Bisection needs snapshot-capable targets, so both legs are core
//! configurations ([`Runner::Oracle`] is rejected). The usual pairing
//! is the stepped interpreter as reference against the diverging
//! batched configuration; [`mutate_script`] supports the other mode —
//! same configuration, deliberately perturbed environment — used to
//! validate the bisector itself against a divergence whose first
//! instant is known by construction.

use crate::diff::{CoreTarget, Cursor, Runner};
use crate::gen::{Script, Stimulus, StimulusKind};
use snap_asm::Program;
use snap_core::Processor;
use snap_isa::EventKind;
use snap_snapshot::Encode;

/// Default checkpoint interval, in executed instructions.
pub const DEFAULT_INTERVAL: u64 = 256;

/// One leg of a bisection: a program and environment script run under
/// a snapshot-capable core configuration.
#[derive(Clone)]
pub struct LegSpec<'a> {
    /// The assembled program this leg executes.
    pub program: &'a Program,
    /// The environment script driving this leg.
    pub script: &'a Script,
    /// Core configuration (must not be [`Runner::Oracle`]).
    pub runner: Runner,
}

/// Where and how two legs first split.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// Checkpoints captured per leg during the first pass.
    pub checkpoints: usize,
    /// Checkpoint interval used, in executed instructions.
    pub interval: u64,
    /// `(last agreeing boundary, first differing boundary)` in executed
    /// instructions; the divergence lies inside this half-open window.
    pub window: (u64, u64),
    /// Executed-instruction count of the checkpoint the replay resumed
    /// from — equals `window.0`, recorded separately as proof the
    /// replay did not start over from zero.
    pub replayed_from: u64,
    /// Exact executed-instruction count at which the two states first
    /// differ (post-injection state, before the next instruction).
    pub first_divergence: u64,
    /// First differing field at that instant, with both values.
    pub detail: String,
}

/// Result of a bisection: either the legs never diverged, or a
/// localized report.
#[derive(Debug, Clone)]
pub enum BisectOutcome {
    /// Both legs ran to completion in bit-identical states.
    Agree,
    /// The legs split; here is where.
    Diverged(BisectReport),
}

/// Insert an extra sensor IRQ at executed-instruction count `at`: a
/// seeded, known-divergent mutation. Two otherwise identical legs
/// driven by `script` and `mutate_script(script, at)` are guaranteed to
/// first differ exactly at `at` (the injected event token lands in the
/// queue snapshot), which is what the bisector's own regression test
/// pins down.
pub fn mutate_script(script: &Script, at: u64) -> Script {
    let mut s = script.clone();
    s.stimuli.push(Stimulus {
        at,
        kind: StimulusKind::SensorIrq,
    });
    s.stimuli.sort_by_key(|s| s.at);
    s
}

/// One checkpoint: the core at a boundary plus the driver cursor
/// needed to resume the script there.
struct Checkpoint {
    executed: u64,
    idx: usize,
    cpu: Processor,
}

/// How a leg's first pass ended.
struct LegEnd {
    executed: u64,
    cpu: Processor,
    error: Option<String>,
}

/// A leg at the start of its script or, the time-travel entry point,
/// at a checkpoint. Legs run on [`crate::diff`]'s own cursor, so they
/// inject, respond and quiesce exactly as the straight differential
/// runs do. A resumed core goes through a snapshot, so every replay
/// exercises restore.
fn leg_at<'a>(
    spec: &LegSpec<'a>,
    from: Option<&Checkpoint>,
) -> Result<Cursor<'a, CoreTarget>, String> {
    let Some(ck) = from else {
        let target = CoreTarget::load(spec.runner, spec.program)?;
        return Ok(Cursor::new(target, spec.script));
    };
    let mut leg = Cursor::new(CoreTarget::restore(spec.runner, &ck.cpu)?, spec.script);
    leg.executed = ck.executed;
    leg.idx = ck.idx;
    Ok(leg)
}

/// First pass: run a leg to completion, checkpointing at every
/// multiple of `interval`. A leg that errors mid-run keeps its
/// checkpoints; the error becomes part of the end observation (errors
/// must be deterministic too).
fn run_with_checkpoints(
    spec: &LegSpec<'_>,
    interval: u64,
) -> Result<(Vec<Checkpoint>, LegEnd), String> {
    let mut leg = leg_at(spec, None)?;
    let mut cks = Vec::new();
    let mut boundary = 0u64;
    loop {
        match leg.advance_to(boundary) {
            Ok(true) => {
                cks.push(Checkpoint {
                    executed: leg.executed,
                    idx: leg.idx,
                    cpu: leg.target.cpu.clone(),
                });
                boundary += interval;
            }
            Ok(false) => {
                return Ok((
                    cks,
                    LegEnd {
                        executed: leg.executed,
                        cpu: leg.target.cpu,
                        error: None,
                    },
                ));
            }
            Err(e) => {
                return Ok((
                    cks,
                    LegEnd {
                        executed: leg.executed,
                        cpu: leg.target.cpu,
                        error: Some(e),
                    },
                ));
            }
        }
    }
}

/// Architectural equality: the cores' snapshot encodings past the
/// config header, which legitimately differs between legs (the engine)
/// without being observable state.
fn arch_eq(a: &Processor, b: &Processor) -> bool {
    let arch = |cpu: &Processor| cpu.encoded().split_off(cpu.config().encoded().len());
    arch(a) == arch(b)
}

/// The architectural state field by field, in report order, memories
/// excepted: each field's name and its `Debug` rendering.
fn fields(cpu: &Processor) -> [(&'static str, String); 16] {
    let handlers: Vec<u16> = EventKind::ALL.iter().map(|&e| cpu.handler(e)).collect();
    let stats = cpu.stats();
    [
        ("pc", format!("{:?}", cpu.pc())),
        ("regs", format!("{:?}", cpu.regs())),
        ("state", format!("{:?}", cpu.state())),
        ("now", format!("{:?}", cpu.now())),
        ("queue", format!("{:?}", cpu.event_queue())),
        ("current_event", format!("{:?}", cpu.current_event())),
        ("handler_table", format!("{handlers:?}")),
        ("lfsr", format!("{:#06x}", cpu.lfsr_state())),
        ("timers", format!("{:?}", cpu.timers())),
        ("msg", format!("{:?}", cpu.msg())),
        ("acct", format!("{:?}", cpu.acct())),
        ("profile", format!("{:?}", cpu.profile())),
        ("sleep_time", format!("{:?}", stats.sleep_time)),
        // Execution plus wake-up latency; `acct` holds the former.
        ("busy_time", format!("{:?}", stats.busy_time)),
        ("wakeups", format!("{}", stats.wakeups)),
        (
            "handlers_dispatched",
            format!("{}", stats.handlers_dispatched),
        ),
    ]
}

/// First differing architectural field, with both values. `None` when
/// the states agree. [`arch_eq`] decides; the field list only names
/// the difference (falling back to a generic message for one `Debug`
/// cannot show, such as a NaN payload).
fn snapshot_diff(a: &Processor, b: &Processor) -> Option<String> {
    if arch_eq(a, b) {
        return None;
    }
    for ((name, x), (_, y)) in fields(a).into_iter().zip(fields(b)) {
        if x != y {
            return Some(format!(
                "{name} mismatch:\n  reference: {x}\n  suspect:   {y}"
            ));
        }
    }
    for (bank, x, y) in [("dmem", a.dmem(), b.dmem()), ("imem", a.imem(), b.imem())] {
        let mut words = x.words().zip(y.words()).enumerate();
        if let Some((i, (x, y))) = words.find(|(_, (x, y))| x != y) {
            return Some(format!(
                "{bank}[{i:#05x}] mismatch: reference {x:#06x}, suspect {y:#06x}"
            ));
        }
    }
    Some("architectural state differs".into())
}

/// Bisect two legs down to the first executed-instruction count where
/// their architectural states differ.
///
/// # Errors
///
/// Infrastructure failures only (un-snapshotable runner, corrupt
/// restore, image load): a divergence between the legs — including one
/// leg erroring while the other runs on — is a [`BisectOutcome`], not
/// an `Err`.
pub fn bisect(
    reference: &LegSpec<'_>,
    suspect: &LegSpec<'_>,
    interval: u64,
) -> Result<BisectOutcome, String> {
    let interval = interval.max(1);
    let (ref_cks, ref_end) = run_with_checkpoints(reference, interval)?;
    let (sus_cks, sus_end) = run_with_checkpoints(suspect, interval)?;
    let common = ref_cks.len().min(sus_cks.len());

    // Binary search the aligned boundaries for the first disagreement.
    // (Divergence is monotone here: once the states split, re-merging
    // would itself be a determinism bug.)
    let mut lo = 0usize; // boundaries [0, lo) agree
    let mut hi = common; // first disagreement is < hi, if any
    let mut found = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if arch_eq(&ref_cks[mid].cpu, &sus_cks[mid].cpu) {
            lo = mid + 1;
        } else {
            found = Some(mid);
            hi = mid;
        }
    }

    let (from_ck, window_hi) = match found {
        Some(0) => {
            // Split before the first boundary: nothing to resume from.
            let detail = snapshot_diff(&ref_cks[0].cpu, &sus_cks[0].cpu)
                .unwrap_or_else(|| "initial states differ".into());
            return Ok(BisectOutcome::Diverged(BisectReport {
                checkpoints: common,
                interval,
                window: (0, ref_cks[0].executed),
                replayed_from: 0,
                first_divergence: ref_cks[0].executed,
                detail,
            }));
        }
        Some(k) => (k - 1, ref_cks[k].executed),
        None => {
            // Every common boundary agrees. The runs can still differ
            // past the last one: in length, in final state, or in
            // error status.
            let ends_agree = ref_cks.len() == sus_cks.len()
                && ref_end.executed == sus_end.executed
                && ref_end.error == sus_end.error
                && arch_eq(&ref_end.cpu, &sus_end.cpu);
            if ends_agree {
                return Ok(BisectOutcome::Agree);
            }
            if common == 0 {
                return Ok(BisectOutcome::Diverged(BisectReport {
                    checkpoints: 0,
                    interval,
                    window: (0, ref_end.executed.max(sus_end.executed)),
                    replayed_from: 0,
                    first_divergence: ref_end.executed.min(sus_end.executed),
                    detail: end_detail(&ref_end, &sus_end),
                }));
            }
            (common - 1, ref_end.executed.max(sus_end.executed))
        }
    };

    // Replay from the last agreeing checkpoint, one instruction at a
    // time. Small slack past the window guards the boundary case where
    // the split lands exactly on `window_hi`.
    let start = ref_cks[from_ck].executed;
    let mut r = leg_at(reference, Some(&ref_cks[from_ck]))?;
    let mut s = leg_at(suspect, Some(&sus_cks[from_ck]))?;
    let cap = window_hi + interval;
    let mut e = start;
    let (first_divergence, detail) = loop {
        e += 1;
        if e > cap {
            break (
                window_hi,
                "divergence seen at the checkpoint boundary but not reproduced in replay \
                 (non-deterministic leg?)"
                    .into(),
            );
        }
        let ra = r.advance_to(e);
        let sa = s.advance_to(e);
        match (ra, sa) {
            (Err(re), Err(se)) if re == se => {
                break (e, format!("both legs failed identically: {re}"));
            }
            (Err(re), sb) => {
                break (
                    e,
                    format!("reference failed ({re}) but suspect {}", advance_desc(&sb)),
                );
            }
            (ra, Err(se)) => {
                break (
                    e,
                    format!("suspect failed ({se}) but reference {}", advance_desc(&ra)),
                );
            }
            (Ok(ca), Ok(cb)) => {
                if let Some(d) = snapshot_diff(&r.target.cpu, &s.target.cpu) {
                    break (r.executed.max(s.executed), d);
                }
                if ca != cb {
                    break (
                        e,
                        format!(
                            "run length mismatch: reference {} at {}, suspect {} at {}",
                            end_word(ca),
                            r.executed,
                            end_word(cb),
                            s.executed
                        ),
                    );
                }
                if !ca {
                    // Both ended, states equal: the boundary diff must
                    // have come from later end-of-run observations.
                    break (e, end_detail(&ref_end, &sus_end));
                }
            }
        }
    };

    Ok(BisectOutcome::Diverged(BisectReport {
        checkpoints: common,
        interval,
        window: (start, window_hi),
        replayed_from: start,
        first_divergence,
        detail,
    }))
}

fn advance_desc(r: &Result<bool, String>) -> String {
    match r {
        Ok(true) => "kept running".into(),
        Ok(false) => "ended".into(),
        Err(e) => format!("failed ({e})"),
    }
}

fn end_word(still_running: bool) -> &'static str {
    if still_running {
        "still running"
    } else {
        "ended"
    }
}

fn end_detail(a: &LegEnd, b: &LegEnd) -> String {
    if a.error != b.error {
        return format!(
            "end error mismatch:\n  reference: {:?}\n  suspect:   {:?}",
            a.error, b.error
        );
    }
    if a.executed != b.executed {
        return format!(
            "run length mismatch: reference ended at {}, suspect at {}",
            a.executed, b.executed
        );
    }
    snapshot_diff(&a.cpu, &b.cpu).unwrap_or_else(|| "final states differ".into())
}

/// Render a report the way the CLI prints it.
pub fn format_report(r: &BisectReport) -> String {
    format!(
        "bisect: {} checkpoints every {} instructions\n\
         bisect: divergence window ({}, {}] — replayed from the checkpoint at {}, not from 0\n\
         bisect: first divergent state at instruction {}\n\
         {}",
        r.checkpoints,
        r.interval,
        r.window.0,
        r.window.1,
        r.replayed_from,
        r.first_divergence,
        r.detail
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::{CoreConfig, Engine};
    use snap_snapshot::{fnv1a, Snapshot};

    /// A core that armed timer 0 and went to sleep: timer, energy and
    /// profile state are all live.
    fn booted(config: CoreConfig) -> Processor {
        let boot = "li r1, 0\nschedhi r1, r0\nli r2, 40\nschedlo r1, r2\ndone";
        let mut cpu = Processor::new(config);
        cpu.load_image(0, &snap_asm::assemble(boot).unwrap().imem_image())
            .unwrap();
        cpu.run_until_idle(100).unwrap();
        cpu
    }

    /// The field the bisector names for two cores it must tell apart.
    fn named(a: &Processor, b: &Processor) -> String {
        assert!(!arch_eq(a, b));
        snapshot_diff(a, b).expect("a difference is named")
    }

    /// `cpu` restored from its snapshot bytes with the one field past
    /// the config header that holds `from` rewritten to `to` (checksum
    /// recomputed).
    fn patched(cpu: &Processor, from: &[u8], to: &[u8]) -> Processor {
        let mut bytes = Snapshot::Core(Box::new(cpu.export_snapshot())).to_bytes();
        let arch_at = 17 + cpu.config().encoded().len();
        let hits: Vec<usize> = (arch_at..bytes.len() - from.len())
            .filter(|&i| bytes[i..i + from.len()] == *from)
            .collect();
        assert_eq!(hits.len(), 1, "{from:x?} must name exactly one field");
        bytes[hits[0]..hits[0] + to.len()].copy_from_slice(to);
        let sum = fnv1a(&bytes[17..]);
        bytes[9..17].copy_from_slice(&sum.to_le_bytes());
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        Processor::from_snapshot(snap.as_core().unwrap()).unwrap()
    }

    /// The bisector compares the whole architectural state, not just
    /// what `diff::Observed` carries: LFSR state, timer expiries and
    /// per-class energy bits all split universes and are named. Only
    /// the config (the engine) is ignored.
    #[test]
    fn comparison_covers_state_the_observed_diff_does_not() {
        let base = booted(CoreConfig::default());
        assert!(arch_eq(&base, &base.clone()) && snapshot_diff(&base, &base).is_none());

        let lfsr = base.lfsr_state();
        let other_lfsr = patched(&base, &lfsr.to_le_bytes(), &0x1234u16.to_le_bytes());
        assert!(named(&base, &other_lfsr).starts_with("lfsr"));

        let expiry = base.next_timer_expiry().unwrap().as_ps();
        let later = patched(&base, &expiry.to_le_bytes(), &(expiry + 1).to_le_bytes());
        assert!(named(&base, &later).starts_with("timers"));

        // The low mantissa bit of one class's energy; the total keeps
        // its bits. (The instruction-class stats sum to the total, so
        // with several classes each has its own pattern.)
        let (_, class) = base.acct().per_class().last().unwrap();
        let bits = class.energy.as_pj().to_bits();
        let flipped = patched(&base, &bits.to_le_bytes(), &(bits ^ 1).to_le_bytes());
        assert!(named(&base, &flipped).starts_with("acct"));

        // The engine is config, not state.
        let interp = booted(CoreConfig {
            engine: Engine::Interp,
            ..CoreConfig::default()
        });
        let fused = booted(CoreConfig {
            engine: Engine::Fused,
            ..CoreConfig::default()
        });
        assert!(arch_eq(&interp, &fused) && snapshot_diff(&interp, &fused).is_none());
    }
}
