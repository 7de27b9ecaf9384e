//! Tier-1 translation: superinstruction fusion over the predecoded IMEM.
//!
//! The interpreter pays a fixed dispatch tax per dynamic instruction:
//! cache probe, 20-way opcode match, operand plumbing that must be
//! ready for `r15` coprocessor traffic, and a `StepOutcome` round-trip.
//! Most handler code is short runs of *closed* instructions — register
//! ALU ops, shifts, DMEM loads/stores — that cannot fault, cannot
//! produce an [`crate::EnvAction`], and cannot touch the event machinery.
//! This module rewrites such runs (plus an optional `jmp`/branch
//! terminator) into a [`FusedTrace`] of compact micro-ops that a single
//! dispatch replays back-to-back, the software analogue of threaded
//! code with a computed-goto loop.
//!
//! Fusion covers the hot multi-word idioms the paper's handlers lean
//! on — compare-and-branch pairs, `add`/`addc` carry chains,
//! load-op-store sequences, and counted-loop back-edges.
//!
//! Correctness contract: replaying a trace is **bit-identical** to
//! interpreting its constituent instructions. Instructions that *can*
//! fault, act on the environment, or end a handler (`r15` operands,
//! `done`, `halt`, calls, timer/event ops, `isw`/`ilw`, `rand`/`seed`)
//! are never fused; the trace hands control back to the interpreter at
//! those points.
//! One fit rule, [`FusedTrace::fits`], decides every replay: the whole
//! trace must fit the caller's step budget, its time limit, and the
//! next timer expiry (`expiry > now + total_latency`). Then none of
//! the interpreter's per-instruction boundary checks could have
//! stopped the burst and none of its post-instruction timer polls
//! could have fired, so no intermediate state is observable. A trace
//! that does not fit is not replayed: the burst loop interprets that
//! one instruction instead, and the interpreter stamps any expiry at
//! its exact instant.

use crate::energy_acct::{EnergyAccountant, InstrCosts};
use crate::memory::MemBank;
use crate::profile::HandlerStats;
use crate::regfile::RegFile;
use dess::{SimDuration, SimTime};
use snap_isa::{
    Addr, AluImmOp, AluOp, BranchCond, Instruction, InstructionClass, Reg, ShiftOp, Word,
};

/// Maximum micro-ops in one trace.
pub(crate) const MAX_FUSED_OPS: usize = 6;

/// Maximum IMEM words a trace can span: `MAX_FUSED_OPS` two-word
/// instructions plus a two-word branch/jump terminator. The decode
/// cache invalidates this span below an `isw` write.
pub(crate) const MAX_TRACE_WORDS: usize = 2 * MAX_FUSED_OPS + 2;

/// A closed micro-op: no faults, no environment actions, no `r15`, no
/// control flow, no event/timer/IMEM side effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum UOp {
    /// Register ALU op (`rd = rd op rs`; `mov`/`not`/`neg` read `rs` only).
    AluReg { op: AluOp, rd: Reg, rs: Reg },
    /// Immediate ALU op (`rd = rd op imm`; `li` writes only).
    AluImm { op: AluImmOp, rd: Reg, imm: Word },
    /// Shift by register amount (low 4 bits).
    ShiftReg { op: ShiftOp, rd: Reg, rs: Reg },
    /// Shift by immediate amount.
    ShiftImm { op: ShiftOp, rd: Reg, amount: u8 },
    /// DMEM load.
    Load { rd: Reg, base: Reg, offset: Word },
    /// DMEM store.
    Store { rs: Reg, base: Reg, offset: Word },
    /// Bit-field set.
    Bfs { rd: Reg, rs: Reg, mask: Word },
    /// No operation (still charged).
    Nop,
}

/// How a fused trace transfers control when its micro-ops are done.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FusedTerm {
    /// Hand the PC to the next dispatch (fallthrough past the last
    /// micro-op, or an unfusable instruction the interpreter must run).
    Fall { to: Addr },
    /// An unconditional `jmp` folded into the trace.
    Jmp { costs: InstrCosts, to: Addr },
    /// A conditional branch folded into the trace.
    Branch {
        costs: InstrCosts,
        cond: BranchCond,
        ra: Reg,
        rb: Reg,
        taken: Addr,
        fall: Addr,
    },
}

/// A fused superinstruction: a straight-line run of micro-ops plus an
/// optional control-flow terminator, all charged per constituent
/// exactly as the interpreter would.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FusedTrace {
    /// The micro-ops with their precomputed per-execution costs.
    pub ops: Box<[(UOp, InstrCosts)]>,
    /// Control transfer after the micro-ops.
    pub term: FusedTerm,
    /// Dynamic instructions this trace replays (ops, plus one for a
    /// `Jmp`/`Branch` terminator).
    pub len: u64,
    /// Sum of the latencies of every replayed instruction *except the
    /// last*. The interpreter checks its time limit before each
    /// instruction; entering the trace with `now + prefix < limit`
    /// guarantees every one of those checks would have passed.
    pub prefix: SimDuration,
    /// Sum of the latencies of *every* replayed instruction: the
    /// interpreter's last timer poll in the trace runs at
    /// `now + total_latency`. Latencies are integer picoseconds, so
    /// this equals the serial per-instruction sum exactly and lets a
    /// replay batch its time advance (see [`exec_trace_burst`]).
    pub total_latency: SimDuration,
    /// Sum of the occupancy cycles of every replayed instruction.
    pub total_cycles: u64,
    /// Dynamic instruction count per class, for batch-updating the
    /// per-class histogram (integer counts commute).
    pub counts: Box<[(InstructionClass, u32)]>,
}

impl FusedTrace {
    /// The fit rule: one whole replay starting at `now` stays within
    /// `budget` instructions, starts its last instruction before
    /// `limit` (the burst loop checks the limit before each
    /// instruction), and ends before `next_expiry`, so no timer poll
    /// inside it could fire.
    #[inline]
    pub(crate) fn fits(
        &self,
        budget: u64,
        now: SimTime,
        limit: SimTime,
        next_expiry: Option<SimTime>,
    ) -> bool {
        self.len <= budget
            && now + self.prefix < limit
            && next_expiry.is_none_or(|at| at > now + self.total_latency)
    }
}

/// The fusion verdict for one entry address.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) enum FusedSlot {
    /// Not yet examined.
    #[default]
    Unknown,
    /// Examined; nothing worth fusing starts here.
    NoFuse,
    /// A fused trace starts here.
    Trace(Box<FusedTrace>),
}

/// Map an instruction to its closed micro-op, or `None` if it can
/// fault, act on the environment, or transfer control. Any `r15`
/// operand (message-port FIFO) disqualifies.
pub(crate) fn uop_of(ins: &Instruction) -> Option<UOp> {
    let ok = |r: Reg| !r.is_msg_port();
    match *ins {
        Instruction::AluReg { op, rd, rs } if ok(rd) && ok(rs) => Some(UOp::AluReg { op, rd, rs }),
        Instruction::AluImm { op, rd, imm } if ok(rd) => Some(UOp::AluImm { op, rd, imm }),
        Instruction::ShiftReg { op, rd, rs } if ok(rd) && ok(rs) => {
            Some(UOp::ShiftReg { op, rd, rs })
        }
        Instruction::ShiftImm { op, rd, amount } if ok(rd) => {
            Some(UOp::ShiftImm { op, rd, amount })
        }
        Instruction::Load { rd, base, offset } if ok(rd) && ok(base) => {
            Some(UOp::Load { rd, base, offset })
        }
        Instruction::Store { rs, base, offset } if ok(rs) && ok(base) => {
            Some(UOp::Store { rs, base, offset })
        }
        Instruction::Bfs { rd, rs, mask } if ok(rd) && ok(rs) => Some(UOp::Bfs { rd, rs, mask }),
        Instruction::Nop => Some(UOp::Nop),
        _ => None,
    }
}

/// Try to build a fused trace whose first instruction is at `at`:
/// up to [`MAX_FUSED_OPS`] closed micro-ops, folding in a trailing
/// branch/`jmp` terminator when one follows. `decode` supplies the
/// predecoded instruction and costs at an address, or `None` where no
/// valid instruction starts. Runs of fewer than two instructions are
/// [`FusedSlot::NoFuse`] — the interpreter handles them at no extra
/// cost.
pub(crate) fn build_trace(
    at: Addr,
    decode: impl Fn(Addr) -> Option<(Instruction, InstrCosts)>,
) -> FusedSlot {
    let mut ops: Vec<(UOp, InstrCosts)> = Vec::new();
    let mut lats: Vec<SimDuration> = Vec::new();
    let mut cursor = at;
    let mut term: Option<FusedTerm> = None;
    while ops.len() < MAX_FUSED_OPS {
        let Some((ins, costs)) = decode(cursor) else {
            break;
        };
        let next = cursor.wrapping_add(ins.word_count() as Addr);
        if let Some(u) = uop_of(&ins) {
            lats.push(costs.latency);
            ops.push((u, costs));
            cursor = next;
            continue;
        }
        match ins {
            Instruction::Branch {
                cond,
                ra,
                rb,
                target,
            } if !ra.is_msg_port() && (cond.is_unary() || !rb.is_msg_port()) => {
                lats.push(costs.latency);
                term = Some(FusedTerm::Branch {
                    costs,
                    cond,
                    ra,
                    rb,
                    taken: target,
                    fall: next,
                });
            }
            Instruction::Jmp { target } => {
                lats.push(costs.latency);
                term = Some(FusedTerm::Jmp { costs, to: target });
            }
            _ => {}
        }
        break;
    }
    let len = lats.len() as u64;
    if len < 2 {
        return FusedSlot::NoFuse;
    }
    let prefix = lats[..lats.len() - 1]
        .iter()
        .fold(SimDuration::ZERO, |acc, &l| acc + l);
    let total_latency = prefix + lats[lats.len() - 1];
    let term = term.unwrap_or(FusedTerm::Fall { to: cursor });
    let mut total_cycles = 0u64;
    let mut counts: Vec<(InstructionClass, u32)> = Vec::new();
    {
        let mut note = |c: &InstrCosts| {
            total_cycles += c.cycles;
            match counts.iter_mut().find(|(class, _)| *class == c.class) {
                Some((_, n)) => *n += 1,
                None => counts.push((c.class, 1)),
            }
        };
        for (_, c) in &ops {
            note(c);
        }
        match &term {
            FusedTerm::Jmp { costs, .. } | FusedTerm::Branch { costs, .. } => note(costs),
            FusedTerm::Fall { .. } => {}
        }
    }
    FusedSlot::Trace(Box::new(FusedTrace {
        ops: ops.into_boxed_slice(),
        term,
        len,
        prefix,
        total_latency,
        total_cycles,
        counts: counts.into_boxed_slice(),
    }))
}

/// The mutable processor fields a trace replay touches. Split out of
/// [`crate::Processor`] so the trace can stay borrowed from the decode
/// cache while execution mutates the rest of the core.
/// `bucket` is the profile bucket for the running handler — the current
/// event cannot change inside a trace, so the dispatcher resolves it
/// once per replay instead of once per instruction.
pub(crate) struct ExecCtx<'a> {
    pub regs: &'a mut RegFile,
    pub dmem: &'a mut MemBank,
    pub acct: &'a mut EnergyAccountant,
    pub bucket: &'a mut HandlerStats,
    pub now: &'a mut SimTime,
    pub pc: &'a mut Addr,
}

/// Replay the fused trace that starts at `*cx.pc` for as long as the
/// next replay [fits](FusedTrace::fits) and the trace's own back-edge
/// re-enters it. Returns the number of dynamic instructions executed
/// (a multiple of `trace.len`); zero means the trace does not fit and
/// the caller must interpret the instruction at the pc instead.
///
/// Closed micro-ops cannot schedule or cancel a timer, so
/// `next_expiry` holds for the whole loop, and no poll inside a
/// fitting replay fires: nothing can observe intermediate state. The
/// f64 accumulators are held in locals (registers) for the whole loop —
/// the identical value sequence in the identical order, written back
/// once — and every integer counter collapses to a single `reps ×`
/// update at exit (each iteration adds the same integer totals, and
/// integer addition is associative). The in-place loop is what makes
/// counted loops cheap: the dispatch tax (cache probe, slot match,
/// context set-up) is paid once per *loop*, not once per iteration.
pub(crate) fn exec_trace_burst(
    trace: &FusedTrace,
    budget_left: u64,
    limit: SimTime,
    next_expiry: Option<SimTime>,
    cx: &mut ExecCtx<'_>,
) -> u64 {
    let mut executed = 0u64;
    let mut reps = 0u64;
    let mut now = *cx.now;
    let entry = *cx.pc;
    let mut pc = entry;
    let mut bucket_energy = cx.bucket.energy;
    let (components, per_class, total_ref) = cx.acct.hot_parts();
    let comps = components.as_array_mut();
    let mut total = *total_ref;
    // The f64 half of the interpreter's accounting, on the local
    // accumulators, in its exact order: component merge, per-class
    // energy, running total, handler attribution of the post-sum delta.
    macro_rules! charge_local {
        ($costs:expr) => {{
            let costs: &InstrCosts = $costs;
            for (into, from) in comps.iter_mut().zip(costs.components.as_array()) {
                *into += *from;
            }
            per_class[costs.class as usize].energy += costs.energy;
            let before = total;
            total += costs.energy;
            bucket_energy += total - before;
        }};
    }
    while pc == entry && trace.fits(budget_left - executed, now, limit, next_expiry) {
        for (op, costs) in trace.ops.iter() {
            charge_local!(costs);
            exec_uop(op, cx.regs, cx.dmem);
        }
        match &trace.term {
            FusedTerm::Fall { to } => pc = *to,
            FusedTerm::Jmp { costs, to } => {
                charge_local!(costs);
                pc = *to;
            }
            FusedTerm::Branch {
                costs,
                cond,
                ra,
                rb,
                taken,
                fall,
            } => {
                charge_local!(costs);
                let a = cx.regs.read(*ra);
                let b = if cond.is_unary() {
                    0
                } else {
                    cx.regs.read(*rb)
                };
                pc = if cond.eval(a, b) { *taken } else { *fall };
            }
        }
        now += trace.total_latency;
        executed += trace.len;
        reps += 1;
    }
    *total_ref = total;
    *cx.now = now;
    *cx.pc = pc;
    cx.bucket.energy = bucket_energy;
    cx.acct.record_batch(
        &trace.counts,
        trace.total_latency,
        trace.total_cycles,
        trace.len,
        reps,
    );
    cx.bucket.instructions += trace.len * reps;
    cx.bucket.busy_time += trace.total_latency * reps;
    executed
}

/// Execute one closed micro-op. Semantics are copied line-for-line from
/// the interpreter arms in [`crate::Processor`] (which call the same
/// [`alu_binary`]/[`shift`] helpers), minus the `r15` plumbing that
/// fusion excludes.
#[inline]
pub(crate) fn exec_uop(op: &UOp, regs: &mut RegFile, dmem: &mut MemBank) {
    match *op {
        UOp::AluReg { op, rd, rs } => {
            let b = regs.read(rs);
            let result = match op {
                AluOp::Mov => b,
                AluOp::Not => !b,
                AluOp::Neg => b.wrapping_neg(),
                _ => {
                    let a = regs.read(rd);
                    alu_binary(regs, op, a, b)
                }
            };
            regs.write(rd, result);
        }
        UOp::AluImm { op, rd, imm } => {
            let result = match op {
                AluImmOp::Li => imm,
                _ => {
                    let a = regs.read(rd);
                    match op {
                        AluImmOp::Addi => alu_binary(regs, AluOp::Add, a, imm),
                        AluImmOp::Subi => alu_binary(regs, AluOp::Sub, a, imm),
                        AluImmOp::Andi => a & imm,
                        AluImmOp::Ori => a | imm,
                        AluImmOp::Xori => a ^ imm,
                        AluImmOp::Slti => ((a as i16) < (imm as i16)) as Word,
                        AluImmOp::Sltiu => (a < imm) as Word,
                        AluImmOp::Li => unreachable!(),
                    }
                }
            };
            regs.write(rd, result);
        }
        UOp::ShiftReg { op, rd, rs } => {
            let amount = (regs.read(rs) & 0xf) as u32;
            let a = regs.read(rd);
            regs.write(rd, shift(op, a, amount));
        }
        UOp::ShiftImm { op, rd, amount } => {
            let a = regs.read(rd);
            regs.write(rd, shift(op, a, amount as u32));
        }
        UOp::Load { rd, base, offset } => {
            let addr = regs.read(base).wrapping_add(offset);
            let value = dmem.read(addr);
            regs.write(rd, value);
        }
        UOp::Store { rs, base, offset } => {
            let addr = regs.read(base).wrapping_add(offset);
            let value = regs.read(rs);
            dmem.write(addr, value);
        }
        UOp::Bfs { rd, rs, mask } => {
            let field = regs.read(rs);
            let a = regs.read(rd);
            regs.write(rd, (a & !mask) | (field & mask));
        }
        UOp::Nop => {}
    }
}

/// Binary ALU op with carry-flag effects — the single implementation
/// shared by the interpreter and fused replay.
#[inline]
pub(crate) fn alu_binary(regs: &mut RegFile, op: AluOp, a: Word, b: Word) -> Word {
    match op {
        AluOp::Add => {
            let (r, c) = a.overflowing_add(b);
            regs.set_carry(c);
            r
        }
        AluOp::Addc => {
            let sum = a as u32 + b as u32 + regs.carry() as u32;
            regs.set_carry(sum > 0xffff);
            sum as Word
        }
        AluOp::Sub => {
            let (r, borrow) = a.overflowing_sub(b);
            regs.set_carry(borrow);
            r
        }
        AluOp::Subc => {
            let diff = a as i32 - b as i32 - regs.carry() as i32;
            regs.set_carry(diff < 0);
            diff as Word
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Slt => ((a as i16) < (b as i16)) as Word,
        AluOp::Sltu => (a < b) as Word,
        AluOp::Mov | AluOp::Not | AluOp::Neg => unreachable!("unary ops handled by caller"),
    }
}

/// Shift helper shared by the interpreter and fused replay.
#[inline]
pub(crate) fn shift(op: ShiftOp, a: Word, amount: u32) -> Word {
    match op {
        ShiftOp::Sll => a << amount,
        ShiftOp::Srl => a >> amount,
        ShiftOp::Sra => ((a as i16) >> amount) as Word,
        ShiftOp::Rol => a.rotate_left(amount),
        ShiftOp::Ror => a.rotate_right(amount),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_energy::OperatingPoint;

    fn costs(ins: &Instruction) -> InstrCosts {
        EnergyAccountant::new(OperatingPoint::V1_8).cost_of(ins)
    }

    fn decoder(prog: &[Instruction]) -> impl Fn(Addr) -> Option<(Instruction, InstrCosts)> + '_ {
        // Lay the program out from address 0 like the loader would.
        let mut map = std::collections::BTreeMap::new();
        let mut at: Addr = 0;
        for ins in prog {
            map.insert(at, (*ins, costs(ins)));
            at += ins.word_count() as Addr;
        }
        move |a| map.get(&a).copied()
    }

    fn li(rd: Reg, imm: Word) -> Instruction {
        Instruction::AluImm {
            op: AluImmOp::Li,
            rd,
            imm,
        }
    }

    #[test]
    fn loop_body_fuses_to_loop_edge() {
        // add r2, r1; subi r1, 1; bnez r1, 0 — the counted-loop idiom.
        let prog = [
            Instruction::AluReg {
                op: AluOp::Add,
                rd: Reg::R2,
                rs: Reg::R1,
            },
            Instruction::AluImm {
                op: AluImmOp::Subi,
                rd: Reg::R1,
                imm: 1,
            },
            Instruction::Branch {
                cond: BranchCond::Nez,
                ra: Reg::R1,
                rb: Reg::R0,
                target: 0,
            },
        ];
        let FusedSlot::Trace(t) = build_trace(0, decoder(&prog)) else {
            panic!("expected a trace");
        };
        assert_eq!(t.len, 3);
        assert_eq!(t.ops.len(), 2);
        assert!(matches!(
            t.term,
            FusedTerm::Branch {
                taken: 0,
                fall: 5,
                ..
            }
        ));
        // prefix covers everything but the branch itself.
        let expect = t.ops[0].1.latency + t.ops[1].1.latency;
        assert_eq!(t.prefix, expect);
    }

    #[test]
    fn single_instruction_does_not_fuse() {
        let prog = [Instruction::Jmp { target: 0 }];
        assert_eq!(build_trace(0, decoder(&prog)), FusedSlot::NoFuse);
        let prog = [li(Reg::R1, 1), Instruction::Done];
        // li followed by done: only one fusable instruction.
        assert_eq!(build_trace(0, decoder(&prog)), FusedSlot::NoFuse);
    }

    #[test]
    fn r15_operands_disqualify() {
        let prog = [li(Reg::R15, 0x4001), li(Reg::R1, 1)];
        // First instruction writes the message port: can't fuse from 0.
        assert_eq!(build_trace(0, decoder(&prog)), FusedSlot::NoFuse);
    }

    #[test]
    fn carry_chain_is_recognized() {
        let prog = [
            Instruction::AluReg {
                op: AluOp::Add,
                rd: Reg::R1,
                rs: Reg::R2,
            },
            Instruction::AluReg {
                op: AluOp::Addc,
                rd: Reg::R3,
                rs: Reg::R4,
            },
            Instruction::Halt,
        ];
        let FusedSlot::Trace(t) = build_trace(0, decoder(&prog)) else {
            panic!("expected a trace");
        };
        assert_eq!(t.ops.len(), 2);
        assert!(matches!(t.term, FusedTerm::Fall { to: 2 }));
    }

    #[test]
    fn cmp_branch_pair_is_recognized() {
        let prog = [
            Instruction::AluReg {
                op: AluOp::Slt,
                rd: Reg::R1,
                rs: Reg::R2,
            },
            Instruction::Branch {
                cond: BranchCond::Nez,
                ra: Reg::R1,
                rb: Reg::R0,
                target: 40,
            },
        ];
        let FusedSlot::Trace(t) = build_trace(0, decoder(&prog)) else {
            panic!("expected a trace");
        };
        assert_eq!(t.len, 2);
        assert_eq!(t.ops.len(), 1);
        assert!(matches!(
            t.term,
            FusedTerm::Branch {
                taken: 40,
                fall: 3,
                ..
            }
        ));
    }

    #[test]
    fn load_op_store_is_recognized() {
        let prog = [
            Instruction::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Instruction::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::R1,
                imm: 1,
            },
            Instruction::Store {
                rs: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Instruction::Done,
        ];
        let FusedSlot::Trace(t) = build_trace(0, decoder(&prog)) else {
            panic!("expected a trace");
        };
        assert_eq!(t.len, 3);
        assert_eq!(t.ops.len(), 3);
        assert!(matches!(t.term, FusedTerm::Fall { to: 6 }));
    }

    #[test]
    fn op_cap_bounds_trace_span() {
        let prog: Vec<Instruction> = (0..10).map(|i| li(Reg::R1, i)).collect();
        let FusedSlot::Trace(t) = build_trace(0, decoder(&prog)) else {
            panic!("expected a trace");
        };
        assert_eq!(t.ops.len(), MAX_FUSED_OPS);
        // Fall lands on the first unfused li (two words each).
        assert!(matches!(t.term, FusedTerm::Fall { to } if to == 2 * MAX_FUSED_OPS as Addr));
        const { assert!(2 * MAX_FUSED_OPS <= MAX_TRACE_WORDS) };
    }
}
