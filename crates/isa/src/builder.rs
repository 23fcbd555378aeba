//! Assembler-style builders for LevIR programs.
//!
//! [`ProgramBuilder`] creates functions; each [`FunctionBuilder`] provides
//! one fluent method per instruction plus label management. Workloads and
//! near-data actions throughout the reproduction are written against this
//! API (the paper's pseudocode in Figs. 2, 15, 17, and 19 maps to it
//! line-for-line).

use std::collections::HashMap;

use crate::inst::{AluOp, BrCond, Inst, Label, Location, MemOrder, MemWidth, Reg, RmwOp};
use crate::program::{ActionId, FuncId, Function, Program, ProgramError};

/// Builds a [`Program`] out of one or more functions.
///
/// Function ids are assigned up front by [`ProgramBuilder::function`] (or
/// reserved with [`ProgramBuilder::declare`]), so mutually recursive
/// functions can call each other.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<Option<Function>>,
    names: Vec<String>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a function id without providing its body yet, enabling
    /// forward references (e.g. continuation-passing invokes of self).
    pub fn declare(&mut self, name: &str) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(None);
        self.names.push(name.to_string());
        id
    }

    /// Starts building a new function, reserving its id immediately.
    pub fn function(&mut self, name: &str) -> FunctionBuilder<'_> {
        let id = self.declare(name);
        FunctionBuilder::new(self, id)
    }

    /// Starts building the body of a previously [`declare`](Self::declare)d
    /// function.
    ///
    /// # Panics
    /// Panics if the function body was already provided.
    pub fn define(&mut self, id: FuncId) -> FunctionBuilder<'_> {
        assert!(
            self.funcs[id.index()].is_none(),
            "function {id:?} (`{}`) already defined",
            self.names[id.index()]
        );
        FunctionBuilder::new(self, id)
    }

    fn install(&mut self, id: FuncId, func: Function) {
        self.funcs[id.index()] = Some(func);
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    /// Returns a [`ProgramError`] if a branch label is out of range, a call
    /// targets an unknown function, a function can fall off its end, a
    /// register index is out of range, or an invoke has too many arguments.
    ///
    /// # Panics
    /// Panics if a function was [`declare`](Self::declare)d but never
    /// defined. (A *referenced-but-unbound label* panics earlier, in
    /// [`FunctionBuilder::finish`].)
    pub fn finish(self) -> Result<Program, ProgramError> {
        let names = self.names;
        let funcs: Vec<Function> = self
            .funcs
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                f.unwrap_or_else(|| {
                    panic!("function f{i} (`{}`) declared but never defined", names[i])
                })
            })
            .collect();

        Program::new(funcs)
    }
}

/// Builds a single function: emits instructions and manages labels.
///
/// Branch instructions may reference labels before they are bound; all
/// labels are resolved when [`finish`](Self::finish) is called.
#[derive(Debug)]
pub struct FunctionBuilder<'p> {
    parent: &'p mut ProgramBuilder,
    id: FuncId,
    insts: Vec<Inst>,
    /// `labels[i]` is the instruction index label `i` is bound to.
    bound: HashMap<u32, u32>,
    next_label: u32,
}

impl<'p> FunctionBuilder<'p> {
    fn new(parent: &'p mut ProgramBuilder, id: FuncId) -> Self {
        FunctionBuilder {
            parent,
            id,
            insts: Vec::new(),
            bound: HashMap::new(),
            next_label: 0,
        }
    }

    /// The id of the function being built.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the *next* instruction emitted.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let pos = self.insts.len() as u32;
        let prev = self.bound.insert(label.0, pos);
        assert!(prev.is_none(), "label {label:?} bound twice");
        self
    }

    /// Emits a raw instruction. Prefer the typed helpers below.
    pub fn emit(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    // ---- immediate / move ----

    /// `rd = val` (any 64-bit immediate; accepts signed or unsigned).
    pub fn imm(&mut self, rd: Reg, val: impl Into<ImmVal>) -> &mut Self {
        self.emit(Inst::Imm {
            rd,
            val: val.into().0,
        })
    }

    /// `rd = rs`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.emit(Inst::Mov { rd, rs })
    }

    // ---- ALU (register-register) ----

    /// `rd = ra + rb`.
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Add, rd, ra, rb)
    }

    /// `rd = ra - rb`.
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Sub, rd, ra, rb)
    }

    /// `rd = ra * rb`.
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Mul, rd, ra, rb)
    }

    /// `rd = ra / rb` (unsigned).
    pub fn divu(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::DivU, rd, ra, rb)
    }

    /// `rd = ra % rb` (unsigned).
    pub fn remu(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::RemU, rd, ra, rb)
    }

    /// `rd = ra & rb`.
    pub fn and(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::And, rd, ra, rb)
    }

    /// `rd = ra | rb`.
    pub fn or(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Or, rd, ra, rb)
    }

    /// `rd = ra ^ rb`.
    pub fn xor(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Xor, rd, ra, rb)
    }

    /// `rd = ra << rb`.
    pub fn shl(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Shl, rd, ra, rb)
    }

    /// `rd = ra >> rb` (logical).
    pub fn shr(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.alu(AluOp::Shr, rd, ra, rb)
    }

    /// Emits any register-register ALU op.
    pub fn alu(&mut self, op: AluOp, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.emit(Inst::Alu { op, rd, ra, rb })
    }

    // ---- ALU (register-immediate) ----

    /// `rd = ra + imm`.
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::Add, rd, ra, imm)
    }

    /// `rd = ra - imm`.
    pub fn subi(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::Sub, rd, ra, imm)
    }

    /// `rd = ra * imm`.
    pub fn muli(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::Mul, rd, ra, imm)
    }

    /// `rd = ra & imm`.
    pub fn andi(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::And, rd, ra, imm)
    }

    /// `rd = ra | imm`.
    pub fn ori(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::Or, rd, ra, imm)
    }

    /// `rd = ra << imm`.
    pub fn shli(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::Shl, rd, ra, imm)
    }

    /// `rd = ra >> imm` (logical).
    pub fn shri(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::Shr, rd, ra, imm)
    }

    /// `rd = (ra < imm)` unsigned.
    pub fn sltui(&mut self, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.alui(AluOp::SltU, rd, ra, imm)
    }

    /// Emits any register-immediate ALU op.
    pub fn alui(&mut self, op: AluOp, rd: Reg, ra: Reg, imm: impl Into<ImmVal>) -> &mut Self {
        self.emit(Inst::AluI {
            op,
            rd,
            ra,
            imm: imm.into().0,
        })
    }

    // ---- memory ----

    /// `rd = zext(mem[ra+off])`, 1 byte.
    pub fn ld1(&mut self, rd: Reg, ra: Reg, off: i32) -> &mut Self {
        self.ld(rd, ra, off, MemWidth::B1, false)
    }

    /// `rd = zext(mem[ra+off])`, 2 bytes.
    pub fn ld2(&mut self, rd: Reg, ra: Reg, off: i32) -> &mut Self {
        self.ld(rd, ra, off, MemWidth::B2, false)
    }

    /// `rd = zext(mem[ra+off])`, 4 bytes.
    pub fn ld4(&mut self, rd: Reg, ra: Reg, off: i32) -> &mut Self {
        self.ld(rd, ra, off, MemWidth::B4, false)
    }

    /// `rd = mem[ra+off]`, 8 bytes.
    pub fn ld8(&mut self, rd: Reg, ra: Reg, off: i32) -> &mut Self {
        self.ld(rd, ra, off, MemWidth::B8, false)
    }

    /// Emits a load with explicit width and sign-extension.
    pub fn ld(&mut self, rd: Reg, ra: Reg, off: i32, width: MemWidth, sext: bool) -> &mut Self {
        self.emit(Inst::Ld {
            rd,
            ra,
            off,
            width,
            sext,
        })
    }

    /// `mem[ra+off] = rs`, 1 byte.
    pub fn st1(&mut self, ra: Reg, off: i32, rs: Reg) -> &mut Self {
        self.st(ra, off, rs, MemWidth::B1)
    }

    /// `mem[ra+off] = rs`, 2 bytes.
    pub fn st2(&mut self, ra: Reg, off: i32, rs: Reg) -> &mut Self {
        self.st(ra, off, rs, MemWidth::B2)
    }

    /// `mem[ra+off] = rs`, 4 bytes.
    pub fn st4(&mut self, ra: Reg, off: i32, rs: Reg) -> &mut Self {
        self.st(ra, off, rs, MemWidth::B4)
    }

    /// `mem[ra+off] = rs`, 8 bytes.
    pub fn st8(&mut self, ra: Reg, off: i32, rs: Reg) -> &mut Self {
        self.st(ra, off, rs, MemWidth::B8)
    }

    /// Emits a store with explicit width.
    pub fn st(&mut self, ra: Reg, off: i32, rs: Reg, width: MemWidth) -> &mut Self {
        self.emit(Inst::St { rs, ra, off, width })
    }

    // ---- control flow ----

    /// Branch to `target` if `ra == rb`.
    pub fn beq(&mut self, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.br(BrCond::Eq, ra, rb, target)
    }

    /// Branch to `target` if `ra != rb`.
    pub fn bne(&mut self, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.br(BrCond::Ne, ra, rb, target)
    }

    /// Branch to `target` if `ra < rb` (unsigned).
    pub fn blt_u(&mut self, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.br(BrCond::LtU, ra, rb, target)
    }

    /// Branch to `target` if `ra < rb` (signed).
    pub fn blt_s(&mut self, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.br(BrCond::LtS, ra, rb, target)
    }

    /// Branch to `target` if `ra >= rb` (unsigned).
    pub fn bge_u(&mut self, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.br(BrCond::GeU, ra, rb, target)
    }

    /// Branch to `target` if `ra >= rb` (signed).
    pub fn bge_s(&mut self, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.br(BrCond::GeS, ra, rb, target)
    }

    /// Emits a conditional branch.
    pub fn br(&mut self, cond: BrCond, ra: Reg, rb: Reg, target: Label) -> &mut Self {
        self.emit(Inst::Br {
            cond,
            ra,
            rb,
            target,
        })
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, target: Label) -> &mut Self {
        self.emit(Inst::Jmp { target })
    }

    /// Calls another function (arguments in `r0..r7`, result in `r0`).
    pub fn call(&mut self, func: FuncId) -> &mut Self {
        self.emit(Inst::Call { func })
    }

    /// Returns from this function.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Inst::Ret)
    }

    /// Halts the executing context.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Inst::Halt)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Inst::Nop)
    }

    // ---- atomics / NDC ----

    /// Fenced atomic RMW (x86-like semantics): `rd = old; [addr] = op(old, rv)`.
    pub fn rmw_fenced(
        &mut self,
        op: RmwOp,
        rd: Reg,
        addr: Reg,
        rv: Reg,
        width: MemWidth,
    ) -> &mut Self {
        self.emit(Inst::AtomicRmw {
            op,
            rd,
            addr,
            rv,
            width,
            ordering: MemOrder::Fenced,
        })
    }

    /// Relaxed atomic RMW: atomic but unordered (Sec. IV-D's "tākō Relax").
    pub fn rmw_relaxed(
        &mut self,
        op: RmwOp,
        rd: Reg,
        addr: Reg,
        rv: Reg,
        width: MemWidth,
    ) -> &mut Self {
        self.emit(Inst::AtomicRmw {
            op,
            rd,
            addr,
            rv,
            width,
            ordering: MemOrder::Relaxed,
        })
    }

    /// Full memory fence.
    pub fn fence(&mut self) -> &mut Self {
        self.emit(Inst::Fence)
    }

    /// Offloads `action` to run on the actor pointed to by `actor`
    /// (fire-and-forget, no future).
    pub fn invoke(
        &mut self,
        actor: Reg,
        action: ActionId,
        args: &[Reg],
        loc: Location,
    ) -> &mut Self {
        self.emit(Inst::Invoke {
            actor,
            action,
            args: args.to_vec(),
            future: None,
            loc,
            exclusive: false,
        })
    }

    /// Offloads `action` with EXCLUSIVE (write-intent) scheduling hint.
    pub fn invoke_exclusive(
        &mut self,
        actor: Reg,
        action: ActionId,
        args: &[Reg],
        loc: Location,
    ) -> &mut Self {
        self.emit(Inst::Invoke {
            actor,
            action,
            args: args.to_vec(),
            future: None,
            loc,
            exclusive: true,
        })
    }

    /// Offloads `action` and ties its return value to the future whose
    /// address is in `future`.
    pub fn invoke_future(
        &mut self,
        actor: Reg,
        action: ActionId,
        args: &[Reg],
        future: Reg,
        loc: Location,
    ) -> &mut Self {
        self.emit(Inst::Invoke {
            actor,
            action,
            args: args.to_vec(),
            future: Some(future),
            loc,
            exclusive: false,
        })
    }

    /// Blocks until the future at `[rf]` is filled; `rd` receives the value.
    pub fn future_wait(&mut self, rd: Reg, rf: Reg) -> &mut Self {
        self.emit(Inst::FutureWait { rd, rf })
    }

    /// Fills the future at `[rf]` with `rv` (store-update).
    pub fn future_send(&mut self, rf: Reg, rv: Reg) -> &mut Self {
        self.emit(Inst::FutureSend { rf, rv })
    }

    /// Pushes `rs` onto the stream whose handle is in `stream` (blocking).
    pub fn push(&mut self, stream: Reg, rs: Reg) -> &mut Self {
        self.emit(Inst::Push { stream, rs })
    }

    /// Pops one entry from the stream whose handle is in `stream`.
    pub fn pop(&mut self, stream: Reg) -> &mut Self {
        self.emit(Inst::Pop { stream })
    }

    /// Flushes `[addr, addr+len)` from the caches.
    pub fn flush(&mut self, addr: Reg, len: Reg) -> &mut Self {
        self.emit(Inst::Flush { addr, len })
    }

    /// Emits a debug trace of `rs`.
    pub fn trace(&mut self, rs: Reg) -> &mut Self {
        self.emit(Inst::Trace { rs })
    }

    /// Resolves labels and installs the function into the program builder,
    /// returning its id.
    ///
    /// # Panics
    /// Panics if a referenced label was never bound (reported as a
    /// [`ProgramError`] at [`ProgramBuilder::finish`] time instead when the
    /// label simply is out of range).
    pub fn finish(self) -> FuncId {
        let name = self.parent.names[self.id.index()].clone();
        let bound = self.bound;
        let insts = self
            .insts
            .into_iter()
            .map(|inst| match inst {
                Inst::Br {
                    cond,
                    ra,
                    rb,
                    target,
                } => {
                    let pos = *bound.get(&target.0).unwrap_or_else(|| {
                        panic!("function `{name}`: label {target:?} never bound")
                    });
                    Inst::Br {
                        cond,
                        ra,
                        rb,
                        target: Label(pos),
                    }
                }
                Inst::Jmp { target } => {
                    let pos = *bound.get(&target.0).unwrap_or_else(|| {
                        panic!("function `{name}`: label {target:?} never bound")
                    });
                    Inst::Jmp { target: Label(pos) }
                }
                other => other,
            })
            .collect();
        let id = self.id;
        self.parent.install(id, Function::new(name, insts));
        id
    }
}

/// A 64-bit immediate accepted from several integer types.
///
/// Exists so builder methods accept `i32`, `u64`, `usize`, etc. without
/// casts at every call site.
#[derive(Clone, Copy, Debug)]
pub struct ImmVal(pub u64);

macro_rules! imm_from {
    ($($t:ty),*) => {
        $(impl From<$t> for ImmVal {
            fn from(v: $t) -> Self {
                ImmVal(v as i64 as u64)
            }
        })*
    };
}
imm_from!(i8, i16, i32, i64, isize);

macro_rules! imm_from_unsigned {
    ($($t:ty),*) => {
        $(impl From<$t> for ImmVal {
            fn from(v: $t) -> Self {
                ImmVal(v as u64)
            }
        })*
    };
}
imm_from_unsigned!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("loopy");
        let top = f.label();
        let out = f.label();
        f.imm(Reg(1), 0);
        f.bind(top);
        f.addi(Reg(1), Reg(1), 1);
        f.bge_u(Reg(1), Reg(0), out);
        f.jmp(top);
        f.bind(out);
        f.ret();
        f.finish();
        let prog = pb.finish().unwrap();
        let insts = prog.func(FuncId(0)).insts();
        // `jmp top` must point at index 1 (the addi), `bge out` at index 4 (ret).
        assert_eq!(insts[3], Inst::Jmp { target: Label(1) });
        match &insts[2] {
            Inst::Br { target, .. } => assert_eq!(*target, Label(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_at_finish() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("bad");
        let l = f.label();
        f.jmp(l);
        f.ret();
        f.finish();
    }

    #[test]
    fn falls_off_end_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("fall");
        f.imm(Reg(0), 1);
        f.finish();
        assert!(matches!(pb.finish(), Err(ProgramError::FallsOffEnd { .. })));
    }

    #[test]
    fn unknown_callee_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("caller");
        f.call(FuncId(99)).ret();
        f.finish();
        assert!(matches!(
            pb.finish(),
            Err(ProgramError::UnknownCallee { callee: 99, .. })
        ));
    }

    #[test]
    fn bad_register_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("badreg");
        f.imm(Reg(77), 1).ret();
        f.finish();
        assert!(matches!(
            pb.finish(),
            Err(ProgramError::BadRegister { reg: 77, .. })
        ));
    }

    #[test]
    fn too_many_invoke_args_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("fatinvoke");
        let args = [Reg(1), Reg(2), Reg(3), Reg(4), Reg(5)];
        f.invoke(Reg(0), ActionId(0), &args, Location::Dynamic)
            .ret();
        f.finish();
        assert!(matches!(
            pb.finish(),
            Err(ProgramError::TooManyInvokeArgs { count: 5, .. })
        ));
    }

    #[test]
    fn declare_then_define_supports_recursion() {
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare("recurse");
        let mut f = pb.define(fid);
        let done = f.label();
        f.beq(Reg(0), Reg(1), done);
        f.addi(Reg(0), Reg(0), 1);
        f.call(fid); // self-call
        f.bind(done);
        f.ret();
        f.finish();
        assert!(pb.finish().is_ok());
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("dup");
        let l = f.label();
        f.bind(l);
        f.nop();
        f.bind(l);
    }

    #[test]
    fn imm_accepts_signed_and_unsigned() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("imms");
        f.imm(Reg(0), -1i32);
        f.imm(Reg(1), 5usize);
        f.imm(Reg(2), u64::MAX);
        f.ret();
        f.finish();
        let prog = pb.finish().unwrap();
        let insts = prog.func(FuncId(0)).insts();
        assert_eq!(
            insts[0],
            Inst::Imm {
                rd: Reg(0),
                val: u64::MAX
            }
        );
        assert_eq!(insts[1], Inst::Imm { rd: Reg(1), val: 5 });
    }
}
