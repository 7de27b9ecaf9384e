//! # snap-asm — assembler, linker and disassembler for the SNAP ISA
//!
//! The paper's toolchain was "a complete custom assembler/linker
//! tool-chain" plus a port of the `lcc` C compiler (§4.2). This crate is
//! the assembler/linker half (the compiler lives in `snapcc`).
//!
//! ## Assembly language
//!
//! * One statement per line; comments start with `;`, `#` or `//`.
//! * Labels end with `:` and may share a line with an instruction.
//! * Mnemonics are those of [`snap_isa::Instruction`] plus the pseudo
//!   instructions `call` (→ `jal r14`), `ret` (→ `jr r14`) and the
//!   swapped-operand branches `bgt`/`ble`/`bgtu`/`bleu`.
//! * Registers are `r0`–`r15` with aliases `sp` = `r13`, `ra` = `r14`.
//! * Operands take full constant expressions: decimal/hex/binary/char
//!   literals, symbols, `+ - * & | ^ << >>` and parentheses.
//! * Directives: `.text` / `.data` select the IMEM or DMEM section,
//!   `.org <addr>` sets the location counter, `.word e, e, ...` emits
//!   words, `.space n` reserves zeroed words, `.ascii "s"` emits one
//!   character per word, `.equ name, expr` defines a constant, and
//!   `.global name` is accepted (and ignored — all symbols are global).
//! * Macros: `.macro name p1, p2` … `.endm` define module-local macros;
//!   bodies reference parameters as `\p1` and get a per-expansion
//!   unique suffix via `\@` for local labels.
//!
//! ## Example
//!
//! ```
//! use snap_asm::assemble;
//!
//! let program = assemble(
//!     r#"
//!         .equ  ANSWER, 6*7
//!     start:
//!         li    r1, ANSWER
//!         halt
//!     "#,
//! ).unwrap();
//! assert_eq!(program.symbol("start"), Some(0));
//! assert_eq!(program.imem_image().len(), 3); // li (2 words) + halt
//! ```

#![warn(missing_docs)]

pub mod assembler;
pub mod disasm;
pub mod error;
pub mod expr;
pub mod lexer;
pub mod program;

pub use assembler::{assemble, assemble_modules, Assembler};
pub use disasm::{disassemble, DisasmLine};
pub use error::AsmError;
pub use program::{Program, SourceLine};
