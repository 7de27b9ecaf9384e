//! snap-smith: randomized program generation and an independent
//! oracle for differential conformance testing of the SNAP pipeline.
//!
//! The crate has three moving parts:
//!
//! * [`gen`] — a seeded random generator emitting well-formed SNAP
//!   handler programs as assembly text, plus a deterministic
//!   environment [`gen::Script`] (sensor IRQs and radio words pinned
//!   to executed-instruction counts) serialized into the program
//!   header so a `.sasm` file is a self-contained reproducer.
//! * [`oracle`] — a deliberately naive interpreter over `snap-isa`
//!   that shares no code with `snap-core`'s processor, decode cache,
//!   or burst loop. Simplicity over speed: it is the independent
//!   second opinion.
//! * [`diff`] — the differential driver: assemble with `snap-asm`,
//!   run the oracle and `snap_core::Processor` single-stepped and
//!   under `run_burst` in every translation tier with the identical
//!   script, and demand bit-identical registers, memories, event-queue
//!   order, executed-instruction traces, and energy bit patterns. [`shrink`] reduces any divergence to a minimal `.sasm`
//!   reproducer.
//!
//! The `snap-smith` binary wraps this into a fuzzing loop
//! (`--seed`, `--iters`), a reproducer runner (`--repro <file>`), and
//! a checkpoint-based divergence localizer (`--bisect <file>`, see
//! [`bisect`]).

pub mod bisect;
pub mod diff;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod soundness;
