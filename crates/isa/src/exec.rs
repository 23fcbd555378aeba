//! Single-step functional semantics for LevIR.
//!
//! [`step`] executes exactly one instruction of a context against a
//! [`Memory`] and an [`NdcHost`]. It is deliberately *timing-free*: the
//! `levi-sim` crate wraps it with core and engine cycle models, while
//! [`crate::interp`] wraps it into a plain interpreter for tests. Keeping a
//! single copy of the semantics guarantees the timed and functional paths
//! can never disagree.
//!
//! `step` is [`fetch`] followed by [`execute`]. The timed loops call the
//! two halves themselves: they schedule the fetched instruction from its
//! [`InstMeta`] (decoded once, when its function was built) and then hand
//! the same instruction to `execute`, so no instruction is matched twice.

use std::fmt;

use crate::inst::{Addr, Inst, InstClass, InstMeta, Location, MemOrder, MemWidth, Reg, NUM_REGS};
use crate::mem::Memory;
use crate::program::{ActionId, FuncId, Program};

/// Maximum call depth before [`ExecError::StackOverflow`].
pub const MAX_CALL_DEPTH: usize = 1024;

/// Most arguments an `invoke` passes besides its actor; program validation
/// rejects more ([`crate::ProgramError::TooManyInvokeArgs`]).
pub const MAX_INVOKE_ARGS: usize = 4;

/// Most entry arguments a context takes (`r0..r7`).
pub const MAX_ENTRY_ARGS: usize = 8;

/// Up to `N` argument values held inline, so passing an invoke's
/// arguments along never touches the heap. Reads as a `&[u64]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InlineArgs<const N: usize> {
    vals: [u64; N],
    len: u8,
}

impl<const N: usize> InlineArgs<N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineArgs {
            vals: [0; N],
            len: 0,
        }
    }

    /// Appends `v`.
    ///
    /// # Panics
    /// Panics if the list already holds `N` values.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.vals[self.len as usize] = v;
        self.len += 1;
    }
}

impl<const N: usize> Default for InlineArgs<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> std::ops::Deref for InlineArgs<N> {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        &self.vals[..self.len as usize]
    }
}

impl<const N: usize> fmt::Debug for InlineArgs<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Result of a potentially blocking NDC host operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll<T> {
    /// The operation completed with a value.
    Ready(T),
    /// The operation cannot complete yet; the instruction will be retried.
    Pending,
}

/// A decoded `invoke` request handed to the [`NdcHost`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NdcRequest {
    /// Address of the actor (object) the action runs on.
    pub actor: Addr,
    /// Which action to execute.
    pub action: ActionId,
    /// Evaluated argument values.
    pub args: InlineArgs<MAX_INVOKE_ARGS>,
    /// Address of the future to fill with the action's return value, if any.
    pub future: Option<Addr>,
    /// Placement directive.
    pub loc: Location,
    /// EXCLUSIVE (write-intent) scheduling hint.
    pub exclusive: bool,
}

/// Host interface for the NDC instructions.
///
/// The Leviathan runtime in the `leviathan` crate implements this for the
/// timed simulation; [`crate::interp::SyncHost`] implements it synchronously
/// for functional tests. Methods that return [`Poll::Pending`] must have no
/// architectural effect, because the instruction will be re-executed.
pub trait NdcHost {
    /// Offload a task. `Pending` models a full invoke buffer.
    fn invoke(&mut self, mem: &mut dyn Memory, req: NdcRequest) -> Poll<()>;

    /// Wait for the future at `fut` to be filled; returns its value.
    fn future_wait(&mut self, mem: &mut dyn Memory, fut: Addr) -> Poll<u64>;

    /// Fill the future at `fut` with `val`, waking any waiter.
    fn future_send(&mut self, mem: &mut dyn Memory, fut: Addr, val: u64);

    /// Append `val` to stream `stream`. `Pending` models a full buffer.
    fn push(&mut self, mem: &mut dyn Memory, stream: u64, val: u64) -> Poll<()>;

    /// Retire one entry from stream `stream` (bump the head pointer).
    fn pop(&mut self, mem: &mut dyn Memory, stream: u64);

    /// Flush `[addr, addr+len)` from the caches.
    fn flush(&mut self, mem: &mut dyn Memory, addr: Addr, len: u64);

    /// Debug trace hook.
    fn trace(&mut self, val: u64) {
        let _ = val;
    }
}

/// An [`NdcHost`] that rejects every NDC instruction. Useful for code that
/// must be NDC-free (e.g. pure kernels under unit test).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoNdc;

impl NdcHost for NoNdc {
    fn invoke(&mut self, _mem: &mut dyn Memory, req: NdcRequest) -> Poll<()> {
        panic!("NDC `invoke` ({:?}) executed under NoNdc host", req.action)
    }
    fn future_wait(&mut self, _mem: &mut dyn Memory, fut: Addr) -> Poll<u64> {
        panic!("NDC `future_wait` at {fut:#x} executed under NoNdc host")
    }
    fn future_send(&mut self, _mem: &mut dyn Memory, fut: Addr, _val: u64) {
        panic!("NDC `future_send` at {fut:#x} executed under NoNdc host")
    }
    fn push(&mut self, _mem: &mut dyn Memory, stream: u64, _val: u64) -> Poll<()> {
        panic!("NDC `push` on stream {stream} executed under NoNdc host")
    }
    fn pop(&mut self, _mem: &mut dyn Memory, stream: u64) {
        panic!("NDC `pop` on stream {stream} executed under NoNdc host")
    }
    fn flush(&mut self, _mem: &mut dyn Memory, _addr: Addr, _len: u64) {
        panic!("NDC `flush` executed under NoNdc host")
    }
}

/// Program counter: a function and an instruction index within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pc {
    /// Current function.
    pub func: FuncId,
    /// Instruction index within the function.
    pub idx: u32,
}

/// The architectural state of one LevIR execution context (a core thread or
/// an engine task context).
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// Register file.
    pub regs: [u64; NUM_REGS],
    /// Current program counter.
    pub pc: Pc,
    /// Return-address stack for `call`/`ret`.
    pub callstack: Vec<Pc>,
    /// Set when the context has executed `halt` (or returned from its
    /// entry function).
    pub halted: bool,
    /// Number of instructions retired by this context.
    pub retired: u64,
}

impl ExecCtx {
    /// Creates a context poised at the entry of `func` with `args` loaded
    /// into `r0..`.
    ///
    /// # Panics
    /// Panics if more than [`MAX_ENTRY_ARGS`] arguments are supplied.
    pub fn new(func: FuncId, args: &[u64]) -> Self {
        let mut ctx = ExecCtx {
            regs: [0; NUM_REGS],
            pc: Pc { func, idx: 0 },
            callstack: Vec::new(),
            halted: false,
            retired: 0,
        };
        ctx.enter(func, args);
        ctx
    }

    /// Poises the context at the entry of `func` with `args` in `r0..r7`
    /// (zero past the last argument), an empty call stack that keeps its
    /// capacity, and no instructions retired. Registers from `r8` up keep
    /// their values: a caller reusing a context clears them first or knows
    /// them to be zero.
    ///
    /// # Panics
    /// Panics if more than [`MAX_ENTRY_ARGS`] arguments are supplied.
    #[inline]
    pub fn enter(&mut self, func: FuncId, args: &[u64]) {
        assert!(args.len() <= MAX_ENTRY_ARGS, "at most 8 arguments (r0..r7)");
        // A fixed trip count: a variable-length copy compiles to a
        // `memcpy` call.
        for (i, r) in self.regs[..MAX_ENTRY_ARGS].iter_mut().enumerate() {
            *r = args.get(i).copied().unwrap_or(0);
        }
        self.pc = Pc { func, idx: 0 };
        self.callstack.clear();
        self.halted = false;
        self.retired = 0;
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// The context's return value (`r0`), meaningful once halted.
    pub fn ret_val(&self) -> u64 {
        self.regs[0]
    }
}

/// How control transferred during a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Fell through to the next instruction.
    Next,
    /// A conditional branch executed; `taken` records its direction.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// An unconditional jump.
    Jump,
    /// Entered a callee.
    Call,
    /// Returned to a caller.
    Ret,
    /// The context halted.
    Halt,
    /// The instruction is blocked on the NDC host and did not retire; the
    /// PC is unchanged and the step must be retried later.
    Blocked,
}

/// Memory effect of a step, for the timing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemEffect {
    /// A load from `addr`.
    Load {
        /// Accessed address.
        addr: Addr,
        /// Access width.
        width: MemWidth,
        /// The value read (post extension).
        value: u64,
    },
    /// A store to `addr`.
    Store {
        /// Accessed address.
        addr: Addr,
        /// Access width.
        width: MemWidth,
        /// The value written.
        value: u64,
    },
    /// An atomic read-modify-write on `addr`.
    Rmw {
        /// Accessed address.
        addr: Addr,
        /// Access width.
        width: MemWidth,
        /// Ordering strength (drives fence modeling).
        ordering: MemOrder,
    },
    /// A full fence (no address).
    Fence,
}

/// Information about one executed (or blocked) instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct StepInfo {
    /// PC of the instruction that executed.
    pub pc: Pc,
    /// Timing class of the instruction.
    pub class: InstClass,
    /// Control-flow outcome.
    pub control: Control,
    /// Memory effect, if the instruction touched memory.
    pub mem: Option<MemEffect>,
}

impl StepInfo {
    /// True if the instruction retired (i.e. was not blocked).
    pub fn retired(&self) -> bool {
        self.control != Control::Blocked
    }
}

/// Errors from [`step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The context was already halted.
    Halted,
    /// The PC points outside its function (indicates a builder bug; cannot
    /// happen for validated programs).
    PcOutOfRange(Pc),
    /// Call depth exceeded [`MAX_CALL_DEPTH`].
    StackOverflow(Pc),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Halted => write!(f, "context is halted"),
            ExecError::PcOutOfRange(pc) => write!(f, "pc out of range: {pc:?}"),
            ExecError::StackOverflow(pc) => write!(f, "call stack overflow at {pc:?}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes one instruction of `ctx`: [`fetch`], then [`execute`].
///
/// On success the returned [`StepInfo`] describes what happened; if the
/// instruction blocked on the host ([`Control::Blocked`]) the PC is
/// unchanged and the caller should retry later.
///
/// # Errors
/// Returns [`ExecError::Halted`] if the context already halted,
/// [`ExecError::PcOutOfRange`] for a malformed PC, and
/// [`ExecError::StackOverflow`] if `call` nesting exceeds
/// [`MAX_CALL_DEPTH`].
pub fn step(
    prog: &Program,
    ctx: &mut ExecCtx,
    mem: &mut dyn Memory,
    host: &mut dyn NdcHost,
) -> Result<StepInfo, ExecError> {
    let (inst, meta) = fetch(prog, ctx)?;
    execute(ctx, inst, meta.class, mem, host)
}

/// Fetches the instruction at `ctx`'s PC with its decoded [`InstMeta`],
/// so a timing model can schedule it before [`execute`] runs it.
///
/// # Errors
/// Returns [`ExecError::Halted`] if the context already halted and
/// [`ExecError::PcOutOfRange`] for a malformed PC.
#[inline]
pub fn fetch<'p>(prog: &'p Program, ctx: &ExecCtx) -> Result<(&'p Inst, InstMeta), ExecError> {
    if ctx.halted {
        return Err(ExecError::Halted);
    }
    let pc = ctx.pc;
    let func = prog.func(pc.func);
    let idx = pc.idx as usize;
    match (func.insts().get(idx), func.metas().get(idx)) {
        (Some(inst), Some(meta)) => Ok((inst, *meta)),
        _ => Err(ExecError::PcOutOfRange(pc)),
    }
}

/// Executes `inst`, the instruction [`fetch`] returned for `ctx`'s current
/// PC, with `class` its [`InstMeta::class`]. This is the one
/// implementation of every instruction's semantics.
///
/// # Errors
/// Returns [`ExecError::StackOverflow`] if `call` nesting exceeds
/// [`MAX_CALL_DEPTH`].
pub fn execute(
    ctx: &mut ExecCtx,
    inst: &Inst,
    class: InstClass,
    mem: &mut dyn Memory,
    host: &mut dyn NdcHost,
) -> Result<StepInfo, ExecError> {
    let pc = ctx.pc;
    let mut control = Control::Next;
    let mut mem_effect = None;

    match inst {
        Inst::Imm { rd, val } => ctx.set_reg(*rd, *val),
        Inst::Mov { rd, rs } => {
            let v = ctx.reg(*rs);
            ctx.set_reg(*rd, v);
        }
        Inst::Alu { op, rd, ra, rb } => {
            let v = op.apply(ctx.reg(*ra), ctx.reg(*rb));
            ctx.set_reg(*rd, v);
        }
        Inst::AluI { op, rd, ra, imm } => {
            let v = op.apply(ctx.reg(*ra), *imm);
            ctx.set_reg(*rd, v);
        }
        Inst::Ld {
            rd,
            ra,
            off,
            width,
            sext,
        } => {
            let addr = ctx.reg(*ra).wrapping_add(*off as i64 as u64);
            let raw = mem.read(addr, *width);
            let value = if *sext { width.sign_extend(raw) } else { raw };
            ctx.set_reg(*rd, value);
            mem_effect = Some(MemEffect::Load {
                addr,
                width: *width,
                value,
            });
        }
        Inst::St { rs, ra, off, width } => {
            let addr = ctx.reg(*ra).wrapping_add(*off as i64 as u64);
            let value = width.truncate(ctx.reg(*rs));
            mem.write(addr, value, *width);
            mem_effect = Some(MemEffect::Store {
                addr,
                width: *width,
                value,
            });
        }
        Inst::Br {
            cond,
            ra,
            rb,
            target,
        } => {
            let taken = cond.eval(ctx.reg(*ra), ctx.reg(*rb));
            if taken {
                ctx.pc.idx = target.0;
            } else {
                ctx.pc.idx += 1;
            }
            control = Control::Branch { taken };
        }
        Inst::Jmp { target } => {
            ctx.pc.idx = target.0;
            control = Control::Jump;
        }
        Inst::Call { func: callee } => {
            if ctx.callstack.len() >= MAX_CALL_DEPTH {
                return Err(ExecError::StackOverflow(pc));
            }
            ctx.callstack.push(Pc {
                func: pc.func,
                idx: pc.idx + 1,
            });
            ctx.pc = Pc {
                func: *callee,
                idx: 0,
            };
            control = Control::Call;
        }
        Inst::Ret => match ctx.callstack.pop() {
            Some(ret_pc) => {
                ctx.pc = ret_pc;
                control = Control::Ret;
            }
            None => {
                ctx.halted = true;
                control = Control::Halt;
            }
        },
        Inst::Halt => {
            ctx.halted = true;
            control = Control::Halt;
        }
        Inst::Nop | Inst::Trace { .. } => {
            if let Inst::Trace { rs } = inst {
                host.trace(ctx.reg(*rs));
            }
        }
        Inst::AtomicRmw {
            op,
            rd,
            addr,
            rv,
            width,
            ordering,
        } => {
            let a = ctx.reg(*addr);
            let old = mem.read(a, *width);
            // Sub-word atomics operate on width-truncated operands
            // (RISC-V A-extension semantics).
            let new = width.truncate(op.apply(old, width.truncate(ctx.reg(*rv))));
            mem.write(a, new, *width);
            ctx.set_reg(*rd, old);
            mem_effect = Some(MemEffect::Rmw {
                addr: a,
                width: *width,
                ordering: *ordering,
            });
        }
        Inst::Fence => {
            mem_effect = Some(MemEffect::Fence);
        }
        Inst::Invoke {
            actor,
            action,
            args,
            future,
            loc,
            exclusive,
        } => {
            let mut vals = InlineArgs::new();
            for r in args {
                vals.push(ctx.reg(*r));
            }
            let req = NdcRequest {
                actor: ctx.reg(*actor),
                action: *action,
                args: vals,
                future: future.map(|rf| ctx.reg(rf)),
                loc: *loc,
                exclusive: *exclusive,
            };
            match host.invoke(mem, req) {
                Poll::Ready(()) => {}
                Poll::Pending => control = Control::Blocked,
            }
        }
        Inst::FutureWait { rd, rf } => {
            let fut = ctx.reg(*rf);
            match host.future_wait(mem, fut) {
                Poll::Ready(v) => ctx.set_reg(*rd, v),
                Poll::Pending => control = Control::Blocked,
            }
        }
        Inst::FutureSend { rf, rv } => {
            let fut = ctx.reg(*rf);
            let val = ctx.reg(*rv);
            host.future_send(mem, fut, val);
        }
        Inst::Push { stream, rs } => {
            let s = ctx.reg(*stream);
            let v = ctx.reg(*rs);
            match host.push(mem, s, v) {
                Poll::Ready(()) => {}
                Poll::Pending => control = Control::Blocked,
            }
        }
        Inst::Pop { stream } => {
            let s = ctx.reg(*stream);
            host.pop(mem, s);
        }
        Inst::Flush { addr, len } => {
            let a = ctx.reg(*addr);
            let l = ctx.reg(*len);
            host.flush(mem, a, l);
        }
    }

    // Advance the PC for straight-line instructions (control-flow
    // instructions updated it themselves; blocked instructions must not).
    match control {
        Control::Next => ctx.pc.idx += 1,
        Control::Blocked => {}
        _ => {}
    }
    if control != Control::Blocked {
        ctx.retired += 1;
    }

    Ok(StepInfo {
        pc,
        class,
        control,
        mem: mem_effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::RmwOp;
    use crate::mem::PagedMem;

    fn run_to_halt(prog: &Program, ctx: &mut ExecCtx, mem: &mut PagedMem) {
        let mut host = NoNdc;
        for _ in 0..100_000 {
            if ctx.halted {
                return;
            }
            step(prog, ctx, mem, &mut host).unwrap();
        }
        panic!("did not halt");
    }

    #[test]
    fn arithmetic_and_branches() {
        // Compute 10 * 3 via repeated addition.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("mul_by_add");
        let (acc, i, n, a) = (Reg(2), Reg(3), Reg(1), Reg(0));
        let top = f.label();
        let out = f.label();
        f.imm(acc, 0).imm(i, 0);
        f.bind(top);
        f.bge_u(i, n, out);
        f.add(acc, acc, a);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.mov(Reg(0), acc).ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(id, &[10, 3]);
        let mut mem = PagedMem::new();
        run_to_halt(&prog, &mut ctx, &mut mem);
        assert_eq!(ctx.ret_val(), 30);
    }

    #[test]
    fn loads_and_stores() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("swap");
        let (p, q, a, b) = (Reg(0), Reg(1), Reg(2), Reg(3));
        f.ld8(a, p, 0).ld8(b, q, 0);
        f.st8(p, 0, b).st8(q, 0, a);
        f.ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut mem = PagedMem::new();
        mem.write_u64(0x10, 111);
        mem.write_u64(0x20, 222);
        let mut ctx = ExecCtx::new(id, &[0x10, 0x20]);
        run_to_halt(&prog, &mut ctx, &mut mem);
        assert_eq!(mem.read_u64(0x10), 222);
        assert_eq!(mem.read_u64(0x20), 111);
    }

    #[test]
    fn signed_load_extension() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("sext");
        f.ld(Reg(0), Reg(0), 0, MemWidth::B1, true).ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut mem = PagedMem::new();
        mem.write_u8(0x8, 0xFF);
        let mut ctx = ExecCtx::new(id, &[0x8]);
        run_to_halt(&prog, &mut ctx, &mut mem);
        assert_eq!(ctx.ret_val() as i64, -1);
    }

    #[test]
    fn call_and_ret() {
        let mut pb = ProgramBuilder::new();
        let double = {
            let mut f = pb.function("double");
            f.add(Reg(0), Reg(0), Reg(0)).ret();
            f.finish()
        };
        let mut main = pb.function("main");
        main.imm(Reg(0), 21).call(double).ret();
        let main_id = main.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(main_id, &[]);
        let mut mem = PagedMem::new();
        run_to_halt(&prog, &mut ctx, &mut mem);
        assert_eq!(ctx.ret_val(), 42);
    }

    #[test]
    fn rmw_returns_old_value() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("faa");
        f.rmw_fenced(RmwOp::Add, Reg(0), Reg(0), Reg(1), MemWidth::B8);
        f.ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut mem = PagedMem::new();
        mem.write_u64(0x40, 7);
        let mut ctx = ExecCtx::new(id, &[0x40, 5]);
        run_to_halt(&prog, &mut ctx, &mut mem);
        assert_eq!(ctx.ret_val(), 7, "rmw yields the old value");
        assert_eq!(mem.read_u64(0x40), 12);
    }

    #[test]
    fn halted_context_errors() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("h");
        f.halt();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(id, &[]);
        let mut mem = PagedMem::new();
        let mut host = NoNdc;
        let info = step(&prog, &mut ctx, &mut mem, &mut host).unwrap();
        assert_eq!(info.control, Control::Halt);
        assert!(ctx.halted);
        assert_eq!(
            step(&prog, &mut ctx, &mut mem, &mut host),
            Err(ExecError::Halted)
        );
    }

    #[test]
    fn stack_overflow_detected() {
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare("inf");
        let mut f = pb.define(fid);
        f.call(fid).ret();
        f.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(fid, &[]);
        let mut mem = PagedMem::new();
        let mut host = NoNdc;
        let err = loop {
            match step(&prog, &mut ctx, &mut mem, &mut host) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, ExecError::StackOverflow(_)));
    }

    #[test]
    fn step_reports_branch_direction() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("b");
        let l = f.label();
        f.beq(Reg(0), Reg(1), l);
        f.bind(l);
        f.ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut mem = PagedMem::new();
        let mut host = NoNdc;

        let mut ctx = ExecCtx::new(id, &[1, 1]);
        let info = step(&prog, &mut ctx, &mut mem, &mut host).unwrap();
        assert_eq!(info.control, Control::Branch { taken: true });

        let mut ctx = ExecCtx::new(id, &[1, 2]);
        let info = step(&prog, &mut ctx, &mut mem, &mut host).unwrap();
        assert_eq!(info.control, Control::Branch { taken: false });
    }

    /// A [`Memory`] with word-sized `read`/`write` that counts every call
    /// of the byte accessors.
    #[derive(Default)]
    struct ByteCountingMem {
        inner: PagedMem,
        byte_reads: std::cell::Cell<u64>,
        byte_writes: u64,
    }

    impl Memory for ByteCountingMem {
        fn read_u8(&self, addr: Addr) -> u8 {
            self.byte_reads.set(self.byte_reads.get() + 1);
            self.inner.read_u8(addr)
        }
        fn write_u8(&mut self, addr: Addr, val: u8) {
            self.byte_writes += 1;
            self.inner.write_u8(addr, val)
        }
        fn read(&self, addr: Addr, width: MemWidth) -> u64 {
            self.inner.read(addr, width)
        }
        fn write(&mut self, addr: Addr, val: u64, width: MemWidth) {
            self.inner.write(addr, val, width)
        }
    }

    /// Through its `&mut dyn Memory`, `step` must reach an implementation's
    /// own word accessors. An `impl Memory for &mut M` would make
    /// `mem.read(..)` there autoref to the trait's default byte loop.
    #[test]
    fn word_accesses_make_no_byte_calls() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("words");
        let (p, v, w) = (Reg(0), Reg(1), Reg(2));
        f.ld8(v, p, 0);
        f.st8(p, 8, v);
        f.rmw_fenced(RmwOp::Add, w, p, v, MemWidth::B8);
        f.ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut mem = ByteCountingMem::default();
        mem.inner.write_u64(0x100, 5);
        let mut ctx = ExecCtx::new(id, &[0x100]);
        for name in ["ld", "st", "rmw"] {
            step(&prog, &mut ctx, &mut mem, &mut NoNdc).unwrap();
            assert_eq!(mem.byte_reads.get(), 0, "{name} read byte by byte");
            assert_eq!(mem.byte_writes, 0, "{name} wrote byte by byte");
        }
        assert_eq!(mem.inner.read_u64(0x108), 5);
        assert_eq!(mem.inner.read_u64(0x100), 10);
        assert_eq!(ctx.reg(w), 5);
    }

    #[test]
    fn step_is_fetch_then_execute() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("m");
        f.mul(Reg(0), Reg(0), Reg(1)).ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(id, &[6, 7]);
        let (inst, meta) = fetch(&prog, &ctx).unwrap();
        assert_eq!(*inst, prog.func(id).insts()[0]);
        assert_eq!(meta, InstMeta::of(inst));
        let info = execute(&mut ctx, inst, meta.class, &mut PagedMem::new(), &mut NoNdc).unwrap();
        assert_eq!(info.class, InstClass::Mul);
        assert_eq!(ctx.ret_val(), 42);
        ctx.pc.idx = 9;
        assert_eq!(
            fetch(&prog, &ctx).map(|_| ()),
            Err(ExecError::PcOutOfRange(ctx.pc))
        );
        ctx.halted = true;
        assert_eq!(fetch(&prog, &ctx).map(|_| ()), Err(ExecError::Halted));
    }

    #[test]
    fn entry_ret_halts_context() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("r");
        f.imm(Reg(0), 9).ret();
        let id = f.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(id, &[]);
        let mut mem = PagedMem::new();
        run_to_halt(&prog, &mut ctx, &mut mem);
        assert_eq!(ctx.ret_val(), 9);
        assert_eq!(ctx.retired, 2);
    }
}
