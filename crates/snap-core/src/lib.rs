//! # snap-core — the SNAP/LE processor simulator
//!
//! An instruction-level, energy- and latency-accurate simulator of the
//! SNAP/LE event-driven asynchronous processor (paper §3):
//!
//! * [`event_queue`] — the hardware event queue: the FIFO of event
//!   tokens that replaces an operating system's task scheduler.
//! * [`timer_cop`] — the timer coprocessor: three self-decrementing
//!   24-bit timer registers scheduled with `schedhi`/`schedlo` and
//!   cancelled with `cancel`.
//! * [`msg_cop`] — the message coprocessor: the two 16-bit FIFOs mapped
//!   to `r15` that interface the core to the radio and sensors.
//! * [`memory`], [`regfile`] — the 4 KB IMEM/DMEM banks and the
//!   fifteen-entry register file with its carry flag.
//! * [`decode_cache`] — the simulator's predecoded-IMEM fast path:
//!   decode and model costs computed once per address, invalidated on
//!   self-modifying `isw` stores; also holds the tier-1 superinstruction
//!   fusion verdicts.
//! * [`energy_acct`] — per-instruction energy/latency accounting against
//!   the calibrated `snap-energy` model, attributed per component and
//!   per instruction class (reproducing Fig. 4 and §4.4).
//! * [`profile`] — per-handler attribution: instructions, energy and
//!   time bucketed by the event whose handler was running (Table 1's
//!   per-task accounting, generalized).
//! * [`sampler`] — opt-in per-dispatch samples (handler length, energy,
//!   queue wait) feeding the `snap-telemetry` distributions; strictly
//!   observation-only.
//! * [`processor`] — the core itself: boot, handler dispatch, sleep and
//!   wake-up, and the execution of every instruction.
//!
//! ## Example: run a handler and read its energy
//!
//! ```
//! use snap_core::{CoreConfig, Processor};
//! use snap_isa::{AluImmOp, Instruction, Reg};
//!
//! // A boot program: r1 = 7, then halt.
//! let prog = [
//!     Instruction::AluImm { op: AluImmOp::Li, rd: Reg::R1, imm: 7 },
//!     Instruction::Halt,
//! ];
//! let mut cpu = Processor::new(CoreConfig::default());
//! cpu.load_program(&prog).unwrap();
//! cpu.run_to_halt(100).unwrap();
//! assert_eq!(cpu.regs().read(Reg::R1), 7);
//! assert!(cpu.stats().energy.as_pj() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod decode_cache;
pub mod energy_acct;
pub mod event_queue;
mod fuse;
pub mod memory;
pub mod msg_cop;
pub mod processor;
pub mod profile;
pub mod regfile;
pub mod sampler;
pub mod snapshot;
pub mod timer_cop;

pub use decode_cache::DecodeCache;
pub use energy_acct::EnergyAccountant;
pub use event_queue::EventQueue;
pub use memory::{Bank, MemBank};
pub use msg_cop::{EnvAction, MsgCoprocessor};
pub use processor::{
    AotRegion, CoreConfig, CoreState, CoreStats, Engine, Processor, StepError, StepOutcome,
};
pub use profile::{HandlerProfile, HandlerStats};
pub use regfile::RegFile;
pub use sampler::{HandlerSample, HandlerSampler};
pub use timer_cop::TimerCoprocessor;
