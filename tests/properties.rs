//! Property-based tests on the core data structures and toolchain
//! invariants.

use proptest::prelude::*;
use snap_asm::{assemble, disassemble};
use snap_core::{CoreConfig, Processor};
use snap_isa::{AluImmOp, AluOp, BranchCond, Instruction, Reg, ShiftOp, Word};

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(|i| Reg::from_index(i).unwrap())
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::ALL.to_vec())
}

fn instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (alu_op(), reg(), reg()).prop_map(|(op, rd, rs)| Instruction::AluReg { op, rd, rs }),
        (
            prop::sample::select(AluImmOp::ALL.to_vec()),
            reg(),
            any::<u16>()
        )
            .prop_map(|(op, rd, imm)| Instruction::AluImm { op, rd, imm }),
        (prop::sample::select(ShiftOp::ALL.to_vec()), reg(), reg())
            .prop_map(|(op, rd, rs)| Instruction::ShiftReg { op, rd, rs }),
        (prop::sample::select(ShiftOp::ALL.to_vec()), reg(), 0u8..16)
            .prop_map(|(op, rd, amount)| Instruction::ShiftImm { op, rd, amount }),
        (reg(), reg(), any::<u16>()).prop_map(|(rd, base, offset)| Instruction::Load {
            rd,
            base,
            offset
        }),
        (reg(), reg(), any::<u16>()).prop_map(|(rs, base, offset)| Instruction::Store {
            rs,
            base,
            offset
        }),
        (reg(), reg(), any::<u16>()).prop_map(|(rd, base, offset)| Instruction::ImemLoad {
            rd,
            base,
            offset
        }),
        (reg(), reg(), any::<u16>()).prop_map(|(rs, base, offset)| Instruction::ImemStore {
            rs,
            base,
            offset
        }),
        (
            prop::sample::select(BranchCond::ALL.to_vec()),
            reg(),
            reg(),
            any::<u16>()
        )
            .prop_map(|(cond, ra, rb, target)| {
                let rb = if cond.is_unary() { Reg::R0 } else { rb };
                Instruction::Branch {
                    cond,
                    ra,
                    rb,
                    target,
                }
            }),
        any::<u16>().prop_map(|target| Instruction::Jmp { target }),
        (reg(), any::<u16>()).prop_map(|(rd, target)| Instruction::Jal { rd, target }),
        reg().prop_map(|rs| Instruction::Jr { rs }),
        (reg(), reg()).prop_map(|(rd, rs)| Instruction::Jalr { rd, rs }),
        (reg(), reg()).prop_map(|(rt, rv)| Instruction::SchedHi { rt, rv }),
        (reg(), reg()).prop_map(|(rt, rv)| Instruction::SchedLo { rt, rv }),
        reg().prop_map(|rt| Instruction::Cancel { rt }),
        (reg(), reg(), any::<u16>()).prop_map(|(rd, rs, mask)| Instruction::Bfs { rd, rs, mask }),
        reg().prop_map(|rd| Instruction::Rand { rd }),
        reg().prop_map(|rs| Instruction::Seed { rs }),
        Just(Instruction::Done),
        (reg(), reg()).prop_map(|(rev, raddr)| Instruction::SetAddr { rev, raddr }),
        Just(Instruction::Nop),
        Just(Instruction::Halt),
        reg().prop_map(|rn| Instruction::SwEvent { rn }),
    ]
}

proptest! {
    /// Binary encode → decode is the identity on every instruction.
    #[test]
    fn encode_decode_round_trip(ins in instruction()) {
        let words = ins.encode();
        let back = Instruction::decode(words.first(), words.second()).unwrap();
        prop_assert_eq!(back, ins);
    }

    /// The fetch unit's two-word predicate agrees with the decoder.
    #[test]
    fn two_word_predicate_agrees(ins in instruction()) {
        let words = ins.encode();
        prop_assert_eq!(
            Instruction::first_word_is_two_word(words.first()),
            ins.is_two_word()
        );
        prop_assert_eq!(words.len(), ins.word_count());
    }

    /// Display output is valid assembly that assembles back to the
    /// identical binary encoding (Display ↔ assembler ↔ encoder
    /// coherence across three crates).
    #[test]
    fn display_assembles_to_same_encoding(ins in instruction()) {
        let text = ins.to_string();
        let program = assemble(&text)
            .unwrap_or_else(|e| panic!("`{text}` failed to assemble: {e}"));
        let expect: Vec<Word> = ins.encode().into_iter().collect();
        prop_assert_eq!(program.imem_image(), expect, "{}", text);
    }

    /// Disassembling any encoded instruction stream never panics, and
    /// decoding recovers every instruction in order.
    #[test]
    fn disassemble_round_trip(instructions in prop::collection::vec(instruction(), 1..40)) {
        let words: Vec<Word> = instructions.iter().flat_map(|i| i.encode()).collect();
        let lines = disassemble(0, &words);
        let decoded: Vec<Instruction> =
            lines.iter().filter_map(|l| l.instruction).collect();
        prop_assert_eq!(decoded, instructions);
    }

    /// Arbitrary word soup never panics the disassembler.
    #[test]
    fn disassembler_handles_garbage(words in prop::collection::vec(any::<u16>(), 0..64)) {
        let _ = disassemble(0, &words);
    }

    /// ALU semantics match a Rust reference model (runs on the core).
    #[test]
    fn alu_matches_reference(a in any::<u16>(), b in any::<u16>(), op in alu_op()) {
        let prog = [
            Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R1, imm: a },
            Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R2, imm: b },
            Instruction::AluReg { op, rd: Reg::R1, rs: Reg::R2 },
            Instruction::Halt,
        ];
        let mut cpu = Processor::new(CoreConfig::default());
        cpu.load_program(&prog).unwrap();
        cpu.run_to_halt(100).unwrap();
        let got = cpu.regs().read(Reg::R1);
        let expect = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Addc => a.wrapping_add(b), // carry starts clear
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Subc => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Not => !b,
            AluOp::Mov => b,
            AluOp::Neg => b.wrapping_neg(),
            AluOp::Slt => ((a as i16) < (b as i16)) as u16,
            AluOp::Sltu => (a < b) as u16,
        };
        prop_assert_eq!(got, expect, "{} a={:#x} b={:#x}", op.mnemonic(), a, b);
    }

    /// 32-bit addition via add/addc matches u32 arithmetic (the ISA's
    /// multi-precision story, paper §3.4).
    #[test]
    fn carry_chain_matches_u32(x in any::<u32>(), y in any::<u32>()) {
        let prog = [
            Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R1, imm: x as u16 },
            Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R2, imm: (x >> 16) as u16 },
            Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R3, imm: y as u16 },
            Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R4, imm: (y >> 16) as u16 },
            Instruction::AluReg { op: AluOp::Add, rd: Reg::R1, rs: Reg::R3 },
            Instruction::AluReg { op: AluOp::Addc, rd: Reg::R2, rs: Reg::R4 },
            Instruction::Halt,
        ];
        let mut cpu = Processor::new(CoreConfig::default());
        cpu.load_program(&prog).unwrap();
        cpu.run_to_halt(100).unwrap();
        let got = (cpu.regs().read(Reg::R2) as u32) << 16 | cpu.regs().read(Reg::R1) as u32;
        prop_assert_eq!(got, x.wrapping_add(y));
    }

    /// Packet encode/decode round trip for arbitrary payloads.
    #[test]
    fn packet_round_trip(
        dst in any::<u8>(),
        src in any::<u8>(),
        payload in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        use snap_apps::packet::Packet;
        let p = Packet::data(dst, src, payload);
        prop_assert_eq!(Packet::decode(&p.encode()), Some(p));
    }

    /// Arbitrary word soup never decodes as a valid packet unless the
    /// checksum happens to hold — and never panics.
    #[test]
    fn packet_decode_never_panics(words in prop::collection::vec(any::<u16>(), 0..20)) {
        let _ = snap_apps::packet::Packet::decode(&words);
    }

    /// DMEM addresses wrap modulo the bank size, like the hardware's
    /// 11-bit address decoder.
    #[test]
    fn membank_wraps(addr in any::<u16>(), value in any::<u16>()) {
        let mut m = snap_core::MemBank::new(snap_core::Bank::Dmem);
        m.write(addr, value);
        prop_assert_eq!(m.read(addr & 0x7ff), value);
        prop_assert_eq!(m.read(addr | 0x0800), m.read(addr & 0x7ff));
    }

    /// The LFSR never reaches the all-zero lock state from any seed.
    #[test]
    fn lfsr_never_locks(seed in any::<u16>(), steps in 1usize..2000) {
        let mut l = dess::Lfsr16::new(seed);
        for _ in 0..steps {
            prop_assert_ne!(l.step(), 0);
        }
    }

    /// Energy accounting is additive: running A then B on one core
    /// equals the sum of running them separately.
    #[test]
    fn energy_is_additive(n_a in 1usize..40, n_b in 1usize..40) {
        fn arith_prog(n: usize) -> Vec<Instruction> {
            let mut v = vec![
                Instruction::AluReg { op: AluOp::Add, rd: Reg::R1, rs: Reg::R2 };
                n
            ];
            v.push(Instruction::Halt);
            v
        }
        let run = |n: usize| {
            let mut cpu = Processor::new(CoreConfig::default());
            cpu.load_program(&arith_prog(n)).unwrap();
            cpu.run_to_halt(10_000).unwrap();
            cpu.stats().energy.as_pj()
        };
        let halt_cost = run(0); // a lone halt — subtract it once
        let sum = run(n_a) + run(n_b) - halt_cost;
        let together = run(n_a + n_b);
        prop_assert!((sum - together).abs() < 1e-6);
    }
}

proptest! {
    /// The decoder never panics on arbitrary word pairs, and decoding
    /// is stable under canonical re-encoding (re-encoding may zero
    /// don't-care fields, e.g. the unused rs field of `cancel`, but
    /// never changes the decoded meaning).
    #[test]
    fn decode_never_panics_and_is_stable(first in any::<u16>(), second in any::<u16>()) {
        if let Ok(ins) = Instruction::decode(first, Some(second)) {
            let enc = ins.encode();
            let again = Instruction::decode(enc.first(), enc.second()).expect("canonical form");
            prop_assert_eq!(again, ins);
            if ins.is_two_word() {
                prop_assert_eq!(enc.second(), Some(second), "immediates are never don't-care");
            }
        }
        let _ = Instruction::decode(first, None);
    }

    /// Simulated-time arithmetic obeys the obvious laws.
    #[test]
    fn time_arithmetic_laws(a in 0u64..1_000_000, b in 0u64..1_000_000, k in 1u64..50) {
        use dess::{SimDuration, SimTime};
        let da = SimDuration::from_ps(a);
        let db = SimDuration::from_ps(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!(da * k, SimDuration::from_ps(a * k));
        prop_assert_eq!((da * k) / k, SimDuration::from_ps(a * k / k));
        let t = SimTime::ZERO + da;
        prop_assert_eq!((t + db) - t, db);
        prop_assert_eq!(t.saturating_since(t + db), SimDuration::ZERO);
    }

    /// Energy accounting is linear in instruction count for a fixed
    /// instruction, at every operating point.
    #[test]
    fn energy_linear_in_count(k in 1u64..20) {
        use snap_energy::model::{InstrShape, SnapEnergyModel};
        use snap_energy::OperatingPoint;
        for point in OperatingPoint::PAPER_POINTS {
            let m = SnapEnergyModel::new(point);
            let one = m.instruction_energy(InstrShape::simple(snap_isa::InstructionClass::ArithReg));
            let many = one * k;
            prop_assert!((many.as_pj() - one.as_pj() * k as f64).abs() < 1e-9);
        }
    }
}

// ---- decode-cache coherence under self-modifying code ----

/// A 1-word instruction safe to patch into the execution zone: it
/// touches only r1–r3 (never the message port, never control flow), so
/// a patched zone always runs through to its terminating `jr`.
fn patch_instruction() -> impl Strategy<Value = Instruction> {
    fn r(i: u8) -> Reg {
        Reg::from_index(i).unwrap()
    }
    prop_oneof![
        (alu_op(), 1u8..4, 1u8..4).prop_map(|(op, rd, rs)| Instruction::AluReg {
            op,
            rd: r(rd),
            rs: r(rs)
        }),
        (prop::sample::select(ShiftOp::ALL.to_vec()), 1u8..4, 0u8..16).prop_map(
            |(op, rd, amount)| Instruction::ShiftImm {
                op,
                rd: r(rd),
                amount
            }
        ),
        Just(Instruction::Nop),
    ]
}

/// Step `program` on the default core and on snap-smith's oracle,
/// which decodes on every fetch and shares no code with snap-core,
/// asserting the same executed instruction, identical architectural
/// state and bit-identical energy after every step.
fn assert_lockstep(program: &[Instruction], max_steps: usize) {
    use snap_core::StepOutcome;
    use snap_smith::oracle::{Oracle, OracleOutcome};
    let mut cpu = Processor::new(CoreConfig::default());
    cpu.load_program(program).unwrap();
    let mut oracle = Oracle::new(dess::Lfsr16::default().state());
    let image: Vec<Word> = program.iter().flat_map(|i| i.encode()).collect();
    oracle.load_image(0, &image);
    let mut halted = false;
    for step in 0..max_steps {
        let executed = match cpu.step() {
            Ok(StepOutcome::Executed { at, ins, .. }) => Some((at, ins)),
            Ok(StepOutcome::Halted) => None,
            other => panic!("generated program must not fault: {other:?} at step {step}"),
        };
        let reference = match oracle.step() {
            Ok(OracleOutcome::Executed { at, ins, .. }) => Some((at, ins)),
            Ok(OracleOutcome::Halted) => None,
            other => panic!("oracle: {other:?} at step {step}"),
        };
        assert_eq!(executed, reference, "outcome diverged at step {step}");
        assert_eq!(cpu.pc(), oracle.pc(), "pc diverged at step {step}");
        assert_eq!(cpu.now(), oracle.now(), "time diverged at step {step}");
        let regs: [Word; 15] = std::array::from_fn(|i| cpu.regs().read(Reg::ALL[i]));
        assert_eq!(
            (regs, cpu.regs().carry()),
            (*oracle.regs(), oracle.carry()),
            "registers diverged at step {step}"
        );
        assert_eq!(
            cpu.acct().total_energy().as_pj().to_bits(),
            oracle.total_energy().as_pj().to_bits(),
            "energy not bit-identical at step {step}"
        );
        if executed.is_none() {
            halted = true;
            break;
        }
    }
    assert!(
        halted,
        "generated program must halt within {max_steps} steps"
    );
    assert_eq!(cpu.imem().to_vec(), oracle.imem());
    assert_eq!(cpu.acct().instructions(), oracle.instructions());
    assert_eq!(cpu.acct().busy_time(), oracle.busy_time());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decode cache stays coherent under random write/execute
    /// interleavings of `isw` self-modifying code: each round patches a
    /// random zone slot with a random 1-word instruction, then executes
    /// the zone. The cached core must match the oracle exactly — state,
    /// trace of executed instructions, and bit-identical energy.
    #[test]
    fn decode_cache_coherent_under_isw(
        patches in prop::collection::vec((0u16..12, patch_instruction()), 1..8),
        zone_len in 12u16..16,
    ) {
        // Layout: [per-patch: li r4,word; li r5,addr; isw; jal r6,zone]
        // (8 words each), halt (1 word), then the zone: `zone_len` nops
        // and a `jr r6` back.
        let zone = patches.len() as u16 * 8 + 1;
        let mut prog = Vec::new();
        for &(slot, ins) in &patches {
            let word = ins.encode().first();
            prog.push(Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R4, imm: word });
            prog.push(Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R5, imm: zone + slot });
            prog.push(Instruction::ImemStore { rs: Reg::R4, base: Reg::R5, offset: 0 });
            prog.push(Instruction::Jal { rd: Reg::R6, target: zone });
        }
        prog.push(Instruction::Halt);
        for _ in 0..zone_len {
            prog.push(Instruction::Nop);
        }
        prog.push(Instruction::Jr { rs: Reg::R6 });
        assert_lockstep(&prog, 4_000);
    }

    /// Patching the *immediate* word of a cached two-word instruction
    /// must also invalidate it (the write lands at `addr`, the cached
    /// entry starts at `addr - 1`). The zone is six `li r2, 0`
    /// instructions; patches overwrite only their immediate words, so
    /// every zone pass is valid code with different constants.
    #[test]
    fn decode_cache_invalidates_immediate_words(
        patches in prop::collection::vec((0u16..6, any::<u16>()), 1..8),
    ) {
        let zone = patches.len() as u16 * 8 + 1;
        let mut prog = Vec::new();
        for &(slot, imm) in &patches {
            prog.push(Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R4, imm });
            // Immediate word of the slot-th `li r2, _`: zone + 2*slot + 1.
            prog.push(Instruction::AluImm {
                op: AluImmOp::Li,
                rd: Reg::R5,
                imm: zone + 2 * slot + 1,
            });
            prog.push(Instruction::ImemStore { rs: Reg::R4, base: Reg::R5, offset: 0 });
            prog.push(Instruction::Jal { rd: Reg::R6, target: zone });
        }
        prog.push(Instruction::Halt);
        for _ in 0..6 {
            prog.push(Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R2, imm: 0 });
        }
        prog.push(Instruction::Jr { rs: Reg::R6 });
        assert_lockstep(&prog, 4_000);
    }
}
