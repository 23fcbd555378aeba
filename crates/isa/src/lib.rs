//! # LevIR — the Leviathan intermediate representation
//!
//! `levi-isa` defines **LevIR**, a small RISC-like virtual instruction set
//! used throughout the Leviathan reproduction. Both *core threads* (the
//! application code running on the simulated multicore) and *near-data
//! actions* (the code Leviathan executes on engines next to cache banks) are
//! expressed as LevIR programs.
//!
//! The crate provides four things:
//!
//! 1. **The instruction set** ([`Inst`] and friends): ALU operations, memory
//!    accesses, control flow, and the NDC instructions from the paper's
//!    Table III (`invoke`, future send/wait, stream push/pop, atomic RMW,
//!    fences, and flushes).
//! 2. **Programs** ([`Program`], [`Function`]): validated containers of
//!    functions with resolved labels.
//! 3. **A builder** ([`ProgramBuilder`], [`FunctionBuilder`]): the one way
//!    to write LevIR, an API with labels used by all workloads, actions
//!    and tests. Programs otherwise come only from the snapshot
//!    [`codec`].
//! 4. **Execution semantics** ([`exec::step`]): a single-step functional
//!    semantics parameterized over a [`Memory`] and an [`NdcHost`]. The
//!    timing simulator in `levi-sim` wraps this function with a cycle model;
//!    the [`interp`] module wraps it into a plain run-to-completion
//!    interpreter for tests.
//!
//! # Example
//!
//! Build and run a function that sums the 64-bit integers in an array:
//!
//! ```
//! use levi_isa::{ProgramBuilder, Reg, interp::Interpreter, mem::{Memory, PagedMem}};
//!
//! # fn main() -> Result<(), levi_isa::ProgramError> {
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("sum");
//! // args: r0 = base address, r1 = element count; returns sum in r0.
//! let (base, n, acc, i, v) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
//! let loop_top = f.label();
//! let done = f.label();
//! f.imm(acc, 0).imm(i, 0);
//! f.bind(loop_top);
//! f.bge_u(i, n, done);
//! f.ld8(v, base, 0);
//! f.add(acc, acc, v);
//! f.addi(base, base, 8);
//! f.addi(i, i, 1);
//! f.jmp(loop_top);
//! f.bind(done);
//! f.mov(Reg(0), acc).ret();
//! let sum = f.finish();
//! let prog = pb.finish()?;
//!
//! let mut mem = PagedMem::new();
//! for (k, x) in [3u64, 5, 7].iter().enumerate() {
//!     mem.write_u64(0x1000 + 8 * k as u64, *x);
//! }
//! let mut interp = Interpreter::new(&prog);
//! let ret = interp.run(sum, &[0x1000, 3], &mut mem).unwrap();
//! assert_eq!(ret, 15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod codec;
pub mod exec;
pub mod fx;
pub mod inst;
pub mod interp;
pub mod mem;
pub mod program;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use exec::{
    Control, ExecCtx, ExecError, InlineArgs, MemEffect, NdcHost, NdcRequest, NoNdc, Poll, StepInfo,
    MAX_INVOKE_ARGS,
};
pub use inst::{
    Addr, AluOp, BrCond, Inst, InstClass, InstMeta, Label, Location, MemOrder, MemWidth, Reg,
    RmwOp, NUM_REGS,
};
pub use mem::{Memory, PagedMem};
pub use program::{ActionId, FuncId, Function, Program, ProgramError};
