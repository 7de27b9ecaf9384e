//! # snap-isa — the SNAP instruction-set architecture
//!
//! This crate defines the SNAP ISA from *An Ultra Low-Power Processor for
//! Sensor Networks* (Ekanayake, Kelly, Manohar — ASPLOS 2004): a 16-bit
//! RISC instruction set with extensions for event-driven execution
//! (`done`, `setaddr`), timer scheduling (`schedhi`, `schedlo`, `cancel`),
//! network-protocol support (`bfs`, `rand`, `seed`) and a register-mapped
//! message-coprocessor port (`r15`).
//!
//! The paper does not publish binary encodings, so this crate defines a
//! concrete encoding (documented on [`Instruction`]) that preserves every
//! architectural property the paper relies on: one- and two-word
//! instructions (two-word instructions cost an extra fetch cycle), fifteen
//! physical registers plus the `r15` FIFO port, separate 4 KB instruction
//! and data memories, and an 8-entry event-handler table.
//!
//! ## Example
//!
//! ```
//! use snap_isa::{Instruction, Reg, AluOp};
//!
//! let add = Instruction::AluReg { op: AluOp::Add, rd: Reg::R1, rs: Reg::R2 };
//! let words = add.encode();
//! assert_eq!(words.len(), 1);
//! let back = Instruction::decode(words.first(), None).unwrap();
//! assert_eq!(back, add);
//! ```

#![warn(missing_docs)]

mod decode;
mod encode;
pub mod event;
pub mod instr;
pub mod msgcmd;
pub mod reg;

pub use event::{EventKind, EventToken, EVENT_QUEUE_DEPTH, EVENT_TABLE_ENTRIES};
pub use instr::{
    AluImmOp, AluOp, BranchCond, EncodedWords, Instruction, InstructionClass, ShiftOp,
};
pub use msgcmd::MsgCommand;
pub use reg::{Reg, NUM_PHYSICAL_REGS};

/// One machine word: the SNAP datapath is 16 bits wide.
pub type Word = u16;

/// A word address into one of the two on-chip memories.
///
/// Both memories are word-addressed; a 4 KB bank holds 2048 words, so any
/// valid address fits in 11 bits.
pub type Addr = u16;

/// Size of each on-chip memory bank (IMEM and DMEM) in 16-bit words.
///
/// The paper specifies two 4 KB banks, i.e. 2048 words each.
pub const MEM_WORDS: usize = 2048;

/// Errors produced when decoding a binary instruction word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The major opcode / function-code combination is not assigned.
    IllegalInstruction {
        /// The offending first instruction word.
        word: Word,
    },
    /// The first word indicates a two-word instruction but no second word
    /// was available (e.g. the instruction sits on the last IMEM word).
    MissingImmediate {
        /// The offending first instruction word.
        word: Word,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::IllegalInstruction { word } => {
                write!(f, "illegal instruction word {word:#06x}")
            }
            DecodeError::MissingImmediate { word } => {
                write!(
                    f,
                    "two-word instruction {word:#06x} is missing its immediate word"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}
