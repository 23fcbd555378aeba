//! LevIR instruction definitions.
//!
//! LevIR is a load/store register machine with 64 general-purpose 64-bit
//! registers per context, plus the near-data computing (NDC) instructions
//! that Leviathan adds to the baseline ISA (paper Sec. VI, Table III).

use std::fmt;

use crate::program::{ActionId, FuncId};

/// Number of architectural registers per execution context.
pub const NUM_REGS: usize = 64;

/// A 64-bit virtual address. The reproduction uses a flat address space
/// (virtual = physical); paging is modeled only as TLB/rTLB latency and area.
pub type Addr = u64;

/// A general-purpose register identifier (`r0`..`r63`).
///
/// By convention, function arguments are passed in `r0..r7` and a single
/// return value is produced in `r0`. There are no callee-saved registers;
/// LevIR functions are small, and builders allocate registers explicitly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Register holding the first argument / return value.
    pub const RET: Reg = Reg(0);

    /// Returns the register index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A branch target within a function.
///
/// Labels are created and bound by [`crate::FunctionBuilder`]; by the time a
/// [`crate::Program`] is finished every label has been resolved to an
/// instruction index, so `Label` values inside a validated program are plain
/// instruction offsets.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Integer ALU operations.
///
/// All operations are 64-bit. Division and remainder are unsigned and treat
/// division by zero as producing `u64::MAX` / the dividend respectively
/// (matching RISC-V semantics) rather than trapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Unsigned division (`x / 0 == u64::MAX`).
    DivU,
    /// Unsigned remainder (`x % 0 == x`).
    RemU,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Shl,
    /// Logical shift right (shift amount masked to 6 bits).
    Shr,
    /// Arithmetic shift right (shift amount masked to 6 bits).
    Sar,
    /// Set if less-than, signed (`1` or `0`).
    SltS,
    /// Set if less-than, unsigned (`1` or `0`).
    SltU,
    /// Set if equal (`1` or `0`).
    Seq,
    /// Set if not equal (`1` or `0`).
    Sne,
    /// Unsigned minimum.
    MinU,
    /// Unsigned maximum.
    MaxU,
}

impl AluOp {
    /// Applies the operation to two operand values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::DivU => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::RemU => a.checked_rem(b).unwrap_or(a),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << (b & 63),
            AluOp::Shr => a >> (b & 63),
            AluOp::Sar => ((a as i64) >> (b & 63)) as u64,
            AluOp::SltS => ((a as i64) < (b as i64)) as u64,
            AluOp::SltU => (a < b) as u64,
            AluOp::Seq => (a == b) as u64,
            AluOp::Sne => (a != b) as u64,
            AluOp::MinU => a.min(b),
            AluOp::MaxU => a.max(b),
        }
    }
}

/// Branch conditions for [`Inst::Br`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BrCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less-than, signed.
    LtS,
    /// Branch if less-than, unsigned.
    LtU,
    /// Branch if greater-or-equal, signed.
    GeS,
    /// Branch if greater-or-equal, unsigned.
    GeU,
}

impl BrCond {
    /// Evaluates the condition on two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::LtS => (a as i64) < (b as i64),
            BrCond::LtU => a < b,
            BrCond::GeS => (a as i64) >= (b as i64),
            BrCond::GeU => a >= b,
        }
    }
}

/// Memory access width, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemWidth {
    /// Number of bytes accessed.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }

    /// Truncates a 64-bit value to this width (zero-extending back to u64).
    #[inline]
    pub fn truncate(self, v: u64) -> u64 {
        match self {
            MemWidth::B1 => v & 0xFF,
            MemWidth::B2 => v & 0xFFFF,
            MemWidth::B4 => v & 0xFFFF_FFFF,
            MemWidth::B8 => v,
        }
    }

    /// Sign-extends a value of this width to 64 bits.
    #[inline]
    pub fn sign_extend(self, v: u64) -> u64 {
        match self {
            MemWidth::B1 => v as u8 as i8 as i64 as u64,
            MemWidth::B2 => v as u16 as i16 as i64 as u64,
            MemWidth::B4 => v as u32 as i32 as i64 as u64,
            MemWidth::B8 => v,
        }
    }
}

/// Atomic read-modify-write operations for [`Inst::AtomicRmw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// Fetch-and-add.
    Add,
    /// Fetch-and-AND.
    And,
    /// Fetch-and-OR.
    Or,
    /// Fetch-and-XOR.
    Xor,
    /// Fetch-and-minimum (unsigned).
    MinU,
    /// Fetch-and-maximum (unsigned).
    MaxU,
    /// Atomic exchange.
    Xchg,
}

impl RmwOp {
    /// Computes the new memory value from the old value and the operand.
    #[inline]
    pub fn apply(self, old: u64, operand: u64) -> u64 {
        match self {
            RmwOp::Add => old.wrapping_add(operand),
            RmwOp::And => old & operand,
            RmwOp::Or => old | operand,
            RmwOp::Xor => old ^ operand,
            RmwOp::MinU => old.min(operand),
            RmwOp::MaxU => old.max(operand),
            RmwOp::Xchg => operand,
        }
    }
}

/// Memory-ordering strength of an atomic operation.
///
/// `Fenced` atomics drain all outstanding memory accesses before and after
/// the operation (the x86-like default the paper's baselines pay for);
/// `Relaxed` atomics are the free-running variant that tākō must assume
/// cores support (Sec. IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemOrder {
    /// Fully fenced (sequentially-consistent-ish; serializes the core).
    Fenced,
    /// Relaxed (no ordering; only the RMW itself is atomic).
    Relaxed,
}

/// Where an offloaded task should execute (paper Sec. V-B1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Location {
    /// The invoker's local engine.
    Local,
    /// The engine near the object's LLC bank.
    Remote,
    /// Probe down the hierarchy and execute near wherever the object
    /// currently resides (the default).
    #[default]
    Dynamic,
}

/// A single LevIR instruction.
///
/// The NDC instructions (`Invoke`, `FutureWait`, `FutureSend`, `Push`,
/// `Pop`, `Flush`) are interpreted by an [`crate::NdcHost`]; everything else
/// has self-contained semantics in [`crate::exec::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// Load a 64-bit immediate: `rd = val`.
    Imm {
        /// Destination register.
        rd: Reg,
        /// Immediate value (stored sign-agnostically as the raw bits).
        val: u64,
    },
    /// Register move: `rd = rs`.
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Register-register ALU operation: `rd = op(ra, rb)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(ra, imm)`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// Load: `rd = mem[ra + off]`, zero- or sign-extended.
    Ld {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        ra: Reg,
        /// Byte offset added to the base.
        off: i32,
        /// Access width.
        width: MemWidth,
        /// If true, sign-extend the loaded value to 64 bits.
        sext: bool,
    },
    /// Store: `mem[ra + off] = rs` (truncated to `width`).
    St {
        /// Source register whose value is stored.
        rs: Reg,
        /// Base address register.
        ra: Reg,
        /// Byte offset added to the base.
        off: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional branch to `target` if `cond(ra, rb)`.
    Br {
        /// Condition to evaluate.
        cond: BrCond,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
        /// Branch target.
        target: Label,
    },
    /// Unconditional jump to `target`.
    Jmp {
        /// Jump target.
        target: Label,
    },
    /// Call a function in the same program. Arguments must already be in
    /// `r0..r7`; the callee's return value appears in `r0`.
    Call {
        /// Callee.
        func: FuncId,
    },
    /// Return from the current function (or finish the context if the call
    /// stack is empty).
    Ret,
    /// Finish the context unconditionally.
    Halt,
    /// No operation (occupies an issue slot).
    Nop,
    /// Atomic read-modify-write: `rd = mem[addr]; mem[addr] = op(rd, rv)`.
    AtomicRmw {
        /// RMW operation.
        op: RmwOp,
        /// Destination register receiving the *old* value.
        rd: Reg,
        /// Register holding the target address.
        addr: Reg,
        /// Register holding the operand.
        rv: Reg,
        /// Access width.
        width: MemWidth,
        /// Fenced or relaxed ordering.
        ordering: MemOrder,
    },
    /// Full memory fence: drains all outstanding accesses.
    Fence,
    /// Offload a task: execute `action` on the actor pointed to by `actor`
    /// (paper Fig. 9, Sec. VI-B1).
    Invoke {
        /// Register holding the actor (object) pointer.
        actor: Reg,
        /// Which registered action to run.
        action: ActionId,
        /// Argument registers (passed as the action's `r1..`; `r0` receives
        /// the actor pointer).
        args: Vec<Reg>,
        /// Register holding a future address to fill with the action's
        /// return value, if any. Invokes with a future skip the invoke
        /// buffer (Sec. VI-B1).
        future: Option<Reg>,
        /// Placement directive.
        loc: Location,
        /// EXCLUSIVE (write-intent) hint for DYNAMIC scheduling.
        exclusive: bool,
    },
    /// Block until the future at address `rf` is filled, then `rd = value`.
    FutureWait {
        /// Destination register.
        rd: Reg,
        /// Register holding the future's address.
        rf: Reg,
    },
    /// Fill the future at address `rf` with `rv` (the `store-update` of
    /// Sec. VI-A2), waking any waiter.
    FutureSend {
        /// Register holding the future's address.
        rf: Reg,
        /// Register holding the value to send.
        rv: Reg,
    },
    /// Producer side of a stream: append the value in `rs` to the stream
    /// whose handle is in `stream`; blocks while the buffer is full.
    Push {
        /// Register holding the stream handle.
        stream: Reg,
        /// Register holding the value to push.
        rs: Reg,
    },
    /// Consumer side of a stream: retire one entry (bump the head pointer).
    /// The entry's *data* is read with ordinary loads from the stream's
    /// phantom range before popping (paper Sec. V-B3).
    Pop {
        /// Register holding the stream handle.
        stream: Reg,
    },
    /// Flush a Morph's address range from the caches (used on unregister).
    Flush {
        /// Register holding the range base address.
        addr: Reg,
        /// Register holding the range length in bytes.
        len: Reg,
    },
    /// Emit a debug trace of a register value (no architectural effect).
    Trace {
        /// Register to trace.
        rs: Reg,
    },
}

/// Coarse classification of instructions used by the timing models to pick
/// latencies and functional-unit types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Simple integer op (1-cycle FU).
    Int,
    /// Integer multiply.
    Mul,
    /// Integer divide.
    Div,
    /// Memory access (load/store/atomic/push/pop — uses a memory FU).
    Mem,
    /// Control flow (branch/jump/call/ret).
    Ctrl,
    /// NDC bookkeeping (invoke, future ops, flush, fence).
    Ndc,
}

impl Inst {
    /// Returns the timing class of this instruction.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Imm { .. } | Inst::Mov { .. } | Inst::Nop | Inst::Trace { .. } => InstClass::Int,
            Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
                AluOp::Mul => InstClass::Mul,
                AluOp::DivU | AluOp::RemU => InstClass::Div,
                _ => InstClass::Int,
            },
            Inst::Ld { .. } | Inst::St { .. } | Inst::AtomicRmw { .. } => InstClass::Mem,
            Inst::Push { .. } | Inst::Pop { .. } => InstClass::Mem,
            Inst::Br { .. } | Inst::Jmp { .. } | Inst::Call { .. } | Inst::Ret | Inst::Halt => {
                InstClass::Ctrl
            }
            Inst::Invoke { .. }
            | Inst::FutureWait { .. }
            | Inst::FutureSend { .. }
            | Inst::Flush { .. }
            | Inst::Fence => InstClass::Ndc,
        }
    }

    /// Visits every register this instruction reads.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Inst::Imm { .. } | Inst::Jmp { .. } | Inst::Call { .. } => {}
            Inst::Ret | Inst::Halt | Inst::Nop | Inst::Fence => {}
            Inst::Mov { rs, .. } => f(*rs),
            Inst::Alu { ra, rb, .. } => {
                f(*ra);
                f(*rb);
            }
            Inst::AluI { ra, .. } => f(*ra),
            Inst::Ld { ra, .. } => f(*ra),
            Inst::St { rs, ra, .. } => {
                f(*rs);
                f(*ra);
            }
            Inst::Br { ra, rb, .. } => {
                f(*ra);
                f(*rb);
            }
            Inst::AtomicRmw { addr, rv, .. } => {
                f(*addr);
                f(*rv);
            }
            Inst::Invoke {
                actor,
                args,
                future,
                ..
            } => {
                f(*actor);
                for a in args {
                    f(*a);
                }
                if let Some(rf) = future {
                    f(*rf);
                }
            }
            Inst::FutureWait { rf, .. } => f(*rf),
            Inst::FutureSend { rf, rv } => {
                f(*rf);
                f(*rv);
            }
            Inst::Push { stream, rs } => {
                f(*stream);
                f(*rs);
            }
            Inst::Pop { stream } => f(*stream),
            Inst::Flush { addr, len } => {
                f(*addr);
                f(*len);
            }
            Inst::Trace { rs } => f(*rs),
        }
    }

    /// Returns the register this instruction writes, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Imm { rd, .. }
            | Inst::Mov { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::AluI { rd, .. }
            | Inst::Ld { rd, .. }
            | Inst::AtomicRmw { rd, .. }
            | Inst::FutureWait { rd, .. } => Some(*rd),
            _ => None,
        }
    }

    /// True if this instruction may transfer control (branch/jump/call/ret).
    pub fn is_control(&self) -> bool {
        matches!(self.class(), InstClass::Ctrl)
    }
}

/// What the timing models need of an instruction, decoded once per static
/// instruction when its [`crate::Function`] is built: the registers it
/// reads (one bit per register), its timing class and the register it
/// writes. The timed loops read this instead of re-matching the [`Inst`]
/// on every execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstMeta {
    /// Bit `r` is set if the instruction reads register `r`
    /// ([`Inst::for_each_use`]); a repeated register sets one bit.
    pub uses: u64,
    /// [`Inst::class`].
    pub class: InstClass,
    /// [`Inst::def`].
    pub def: Option<Reg>,
}

// `InstMeta::uses` has one bit per register.
const _: () = assert!(NUM_REGS <= 64);

impl InstMeta {
    /// Decodes `inst`. Registers out of range (which program validation
    /// rejects) set no bit.
    pub fn of(inst: &Inst) -> Self {
        let mut uses = 0u64;
        inst.for_each_use(|r| {
            if r.index() < NUM_REGS {
                uses |= 1 << r.index();
            }
        });
        InstMeta {
            uses,
            class: inst.class(),
            def: inst.def(),
        }
    }

    /// The cycle the instruction's operands are ready: the latest of
    /// `start` and `reg_ready[r]` over every register it reads.
    #[inline]
    pub fn ready(&self, reg_ready: &[u64; NUM_REGS], start: u64) -> u64 {
        let mut ready = start;
        let mut uses = self.uses;
        while uses != 0 {
            ready = ready.max(reg_ready[uses.trailing_zeros() as usize]);
            uses &= uses - 1;
        }
        ready
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Imm { rd, val } => write!(f, "imm   {rd}, {val:#x}"),
            Inst::Mov { rd, rs } => write!(f, "mov   {rd}, {rs}"),
            Inst::Alu { op, rd, ra, rb } => write!(f, "{op:<5?} {rd}, {ra}, {rb}"),
            Inst::AluI { op, rd, ra, imm } => write!(f, "{op:<5?} {rd}, {ra}, {imm:#x}"),
            Inst::Ld {
                rd,
                ra,
                off,
                width,
                sext,
            } => write!(
                f,
                "ld{}{}  {rd}, [{ra}{off:+}]",
                width.bytes(),
                if *sext { "s" } else { " " }
            ),
            Inst::St { rs, ra, off, width } => {
                write!(f, "st{}   [{ra}{off:+}], {rs}", width.bytes())
            }
            Inst::Br {
                cond,
                ra,
                rb,
                target,
            } => write!(f, "b{cond:<4?} {ra}, {rb}, {target:?}"),
            Inst::Jmp { target } => write!(f, "jmp   {target:?}"),
            Inst::Call { func } => write!(f, "call  f{}", func.0),
            Inst::Ret => write!(f, "ret"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
            Inst::AtomicRmw {
                op,
                rd,
                addr,
                rv,
                width,
                ordering,
            } => write!(
                f,
                "rmw.{op:?}.{} {rd}, [{addr}], {rv} ({ordering:?})",
                width.bytes()
            ),
            Inst::Fence => write!(f, "fence"),
            Inst::Invoke {
                actor,
                action,
                args,
                future,
                loc,
                exclusive,
            } => {
                write!(
                    f,
                    "invoke[{loc:?}{}] a{} on {actor} (",
                    if *exclusive { ",EXCL" } else { "" },
                    action.0
                )?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
                if let Some(rf) = future {
                    write!(f, " -> fut {rf}")?;
                }
                Ok(())
            }
            Inst::FutureWait { rd, rf } => write!(f, "fwait {rd}, [{rf}]"),
            Inst::FutureSend { rf, rv } => write!(f, "fsend [{rf}], {rv}"),
            Inst::Push { stream, rs } => write!(f, "push  s[{stream}], {rs}"),
            Inst::Pop { stream } => write!(f, "pop   s[{stream}]"),
            Inst::Flush { addr, len } => write!(f, "flush [{addr}], {len}"),
            Inst::Trace { rs } => write!(f, "trace {rs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_basic() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.apply(3, 4), 12);
        assert_eq!(AluOp::DivU.apply(7, 2), 3);
        assert_eq!(AluOp::DivU.apply(7, 0), u64::MAX);
        assert_eq!(AluOp::RemU.apply(7, 2), 1);
        assert_eq!(AluOp::RemU.apply(7, 0), 7);
        assert_eq!(AluOp::SltS.apply(u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::SltU.apply(u64::MAX, 0), 0);
        assert_eq!(AluOp::Sar.apply(u64::MAX, 8), u64::MAX);
        assert_eq!(AluOp::Shr.apply(u64::MAX, 63), 1);
        assert_eq!(AluOp::MinU.apply(3, 9), 3);
        assert_eq!(AluOp::MaxU.apply(3, 9), 9);
    }

    #[test]
    fn branch_conditions() {
        assert!(BrCond::Eq.eval(4, 4));
        assert!(BrCond::Ne.eval(4, 5));
        assert!(BrCond::LtS.eval(u64::MAX, 0));
        assert!(!BrCond::LtU.eval(u64::MAX, 0));
        assert!(BrCond::GeU.eval(u64::MAX, 0));
        assert!(!BrCond::GeS.eval(u64::MAX, 0));
    }

    #[test]
    fn mem_width_extension() {
        assert_eq!(MemWidth::B1.truncate(0x1FF), 0xFF);
        assert_eq!(MemWidth::B1.sign_extend(0x80), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(MemWidth::B2.sign_extend(0x7FFF), 0x7FFF);
        assert_eq!(MemWidth::B4.sign_extend(0x8000_0000), 0xFFFF_FFFF_8000_0000);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }

    #[test]
    fn rmw_ops() {
        assert_eq!(RmwOp::Add.apply(10, 5), 15);
        assert_eq!(RmwOp::Xchg.apply(10, 5), 5);
        assert_eq!(RmwOp::MinU.apply(10, 5), 5);
        assert_eq!(RmwOp::MaxU.apply(10, 5), 10);
        assert_eq!(RmwOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(RmwOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(RmwOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn def_use_accounting() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            ra: Reg(2),
            rb: Reg(3),
        };
        assert_eq!(i.def(), Some(Reg(1)));
        let mut uses = vec![];
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(2), Reg(3)]);

        let st = Inst::St {
            rs: Reg(4),
            ra: Reg(5),
            off: 8,
            width: MemWidth::B8,
        };
        assert_eq!(st.def(), None);
        let mut uses = vec![];
        st.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(4), Reg(5)]);
    }

    #[test]
    fn classes() {
        assert_eq!(Inst::Nop.class(), InstClass::Int);
        assert_eq!(
            Inst::AluI {
                op: AluOp::Mul,
                rd: Reg(0),
                ra: Reg(0),
                imm: 2
            }
            .class(),
            InstClass::Mul
        );
        assert_eq!(Inst::Ret.class(), InstClass::Ctrl);
        assert_eq!(Inst::Fence.class(), InstClass::Ndc);
        assert_eq!(
            Inst::Pop { stream: Reg(1) }.class(),
            InstClass::Mem,
            "stream ops occupy memory FUs"
        );
    }

    #[test]
    fn display_formats() {
        let i = Inst::Imm {
            rd: Reg(3),
            val: 16,
        };
        assert_eq!(format!("{i}"), "imm   r3, 0x10");
        let b = Inst::Br {
            cond: BrCond::LtU,
            ra: Reg(1),
            rb: Reg(2),
            target: Label(7),
        };
        assert!(format!("{b}").contains("L7"));
    }
}
