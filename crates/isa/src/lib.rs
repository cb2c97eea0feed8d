//! The Emerald shader instruction set.
//!
//! Emerald (ISCA 2019, §4.1) compiles Mesa TGSI shaders to PTX extended with
//! "several graphics specific instructions" so that graphics and GPGPU code
//! run on the *same* SIMT microarchitecture. This crate is the Rust analogue
//! of that layer: a small PTX-like register ISA plus Emerald's graphics
//! extensions (`tex2d`, `ztest`, `blend`, `fbwrite`), with
//!
//! * typed ALU/compare/select/convert instructions over 32-bit registers,
//! * predicate-guarded execution and explicit-reconvergence branches
//!   (consumed by the SIMT-stack model in `emerald-gpu`),
//! * memory instructions routed by address space to the matching L1 cache
//!   (global→L1D, constant/vertex→L1C, texture→L1T, depth→L1Z, per Table 2
//!   of the paper),
//! * a warp-wide functional executor ([`exec::execute_warp`]) over a
//!   register-major warp register file ([`reg::WarpRegs`]) that returns the
//!   per-lane memory accesses for the timing model to replay,
//! * a [text assembler](asm::assemble) for writing shaders and kernels.
//!
//! # Example
//!
//! ```
//! use emerald_isa::asm::assemble;
//!
//! let program = assemble(
//!     r#"
//!     // r1 = input0 * 2.0
//!     mov.b32   r0, %input0
//!     mul.f32   r1, r0, 2.0
//!     exit
//!     "#,
//! ).expect("valid program");
//! assert_eq!(program.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod exec;
pub mod op;
pub mod program;
pub mod reg;

pub use asm::{assemble, assemble_named};
pub use exec::{execute, execute_warp, ExecCtx, Outcome, StepResult};
pub use op::{AluKind, CmpOp, MemSpace, Op, UnaryKind};
pub use program::Program;
pub use reg::{DType, Operand, PReg, Reg, Special, ThreadState, WarpRegs};
