//! Dependency-free binary serialization for LevIR values.
//!
//! The checkpoint/restore subsystem in `levi-sim` needs to persist whole
//! programs, execution contexts, and the functional memory image without
//! pulling in a serialization crate. This module provides the byte-level
//! primitives ([`Writer`], [`Reader`]) and codecs for the types whose
//! constructors are crate-private ([`Program`], [`Function`]) or whose
//! representation is private ([`PagedMem`]).
//!
//! All integers are little-endian. Containers are length-prefixed
//! (`u32` for counts, `u64` for byte lengths). Enums are encoded as a
//! one-byte tag in declaration order. The format carries no per-value
//! type information — framing and versioning are the responsibility of
//! the embedding container (`levi-sim`'s snapshot header).

use crate::exec::{ExecCtx, Pc};
use crate::inst::{AluOp, BrCond, Inst, Label, Location, MemOrder, MemWidth, Reg, RmwOp, NUM_REGS};
use crate::mem::{PagedMem, PAGE_SIZE};
use crate::program::{ActionId, FuncId, Function, Program, ProgramError};

/// A decode failure. Encoding is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// A tag or length field held a value the decoder does not understand.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte-buffer writer. A thin wrapper over `Vec<u8>` so call sites read
/// symmetrically with [`Reader`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i32 (two's complement).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64 (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its raw IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a u64-length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Appends a UTF-8 string (length-prefixed).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Byte-buffer reader over a borrowed slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; rejects bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 from its raw bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a u64-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        self.take(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid("utf-8"))
    }

    /// Reads a u32 element count, bounded by the bytes actually remaining
    /// (each element needs at least `min_elem_bytes`), so corrupted
    /// lengths fail cleanly instead of attempting huge allocations.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Instruction codec
// ---------------------------------------------------------------------------

fn write_reg(w: &mut Writer, r: Reg) {
    w.u8(r.0);
}

fn read_reg(r: &mut Reader) -> Result<Reg, CodecError> {
    let v = r.u8()?;
    if (v as usize) < NUM_REGS {
        Ok(Reg(v))
    } else {
        Err(CodecError::Invalid("register index"))
    }
}

fn alu_op_tag(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::DivU => 3,
        AluOp::RemU => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
        AluOp::Sar => 10,
        AluOp::SltS => 11,
        AluOp::SltU => 12,
        AluOp::Seq => 13,
        AluOp::Sne => 14,
        AluOp::MinU => 15,
        AluOp::MaxU => 16,
    }
}

fn alu_op_from(tag: u8) -> Result<AluOp, CodecError> {
    Ok(match tag {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::DivU,
        4 => AluOp::RemU,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::Shr,
        10 => AluOp::Sar,
        11 => AluOp::SltS,
        12 => AluOp::SltU,
        13 => AluOp::Seq,
        14 => AluOp::Sne,
        15 => AluOp::MinU,
        16 => AluOp::MaxU,
        _ => return Err(CodecError::Invalid("alu op")),
    })
}

fn br_cond_tag(c: BrCond) -> u8 {
    match c {
        BrCond::Eq => 0,
        BrCond::Ne => 1,
        BrCond::LtS => 2,
        BrCond::LtU => 3,
        BrCond::GeS => 4,
        BrCond::GeU => 5,
    }
}

fn br_cond_from(tag: u8) -> Result<BrCond, CodecError> {
    Ok(match tag {
        0 => BrCond::Eq,
        1 => BrCond::Ne,
        2 => BrCond::LtS,
        3 => BrCond::LtU,
        4 => BrCond::GeS,
        5 => BrCond::GeU,
        _ => return Err(CodecError::Invalid("branch condition")),
    })
}

fn width_tag(w: MemWidth) -> u8 {
    match w {
        MemWidth::B1 => 0,
        MemWidth::B2 => 1,
        MemWidth::B4 => 2,
        MemWidth::B8 => 3,
    }
}

fn width_from(tag: u8) -> Result<MemWidth, CodecError> {
    Ok(match tag {
        0 => MemWidth::B1,
        1 => MemWidth::B2,
        2 => MemWidth::B4,
        3 => MemWidth::B8,
        _ => return Err(CodecError::Invalid("memory width")),
    })
}

fn rmw_op_tag(op: RmwOp) -> u8 {
    match op {
        RmwOp::Add => 0,
        RmwOp::And => 1,
        RmwOp::Or => 2,
        RmwOp::Xor => 3,
        RmwOp::MinU => 4,
        RmwOp::MaxU => 5,
        RmwOp::Xchg => 6,
    }
}

fn rmw_op_from(tag: u8) -> Result<RmwOp, CodecError> {
    Ok(match tag {
        0 => RmwOp::Add,
        1 => RmwOp::And,
        2 => RmwOp::Or,
        3 => RmwOp::Xor,
        4 => RmwOp::MinU,
        5 => RmwOp::MaxU,
        6 => RmwOp::Xchg,
        _ => return Err(CodecError::Invalid("rmw op")),
    })
}

fn order_tag(o: MemOrder) -> u8 {
    match o {
        MemOrder::Fenced => 0,
        MemOrder::Relaxed => 1,
    }
}

fn order_from(tag: u8) -> Result<MemOrder, CodecError> {
    Ok(match tag {
        0 => MemOrder::Fenced,
        1 => MemOrder::Relaxed,
        _ => return Err(CodecError::Invalid("memory order")),
    })
}

fn loc_tag(l: Location) -> u8 {
    match l {
        Location::Local => 0,
        Location::Remote => 1,
        Location::Dynamic => 2,
    }
}

fn loc_from(tag: u8) -> Result<Location, CodecError> {
    Ok(match tag {
        0 => Location::Local,
        1 => Location::Remote,
        2 => Location::Dynamic,
        _ => return Err(CodecError::Invalid("location")),
    })
}

/// Encodes one instruction.
pub fn write_inst(w: &mut Writer, inst: &Inst) {
    match inst {
        Inst::Imm { rd, val } => {
            w.u8(0);
            write_reg(w, *rd);
            w.u64(*val);
        }
        Inst::Mov { rd, rs } => {
            w.u8(1);
            write_reg(w, *rd);
            write_reg(w, *rs);
        }
        Inst::Alu { op, rd, ra, rb } => {
            w.u8(2);
            w.u8(alu_op_tag(*op));
            write_reg(w, *rd);
            write_reg(w, *ra);
            write_reg(w, *rb);
        }
        Inst::AluI { op, rd, ra, imm } => {
            w.u8(3);
            w.u8(alu_op_tag(*op));
            write_reg(w, *rd);
            write_reg(w, *ra);
            w.u64(*imm);
        }
        Inst::Ld {
            rd,
            ra,
            off,
            width,
            sext,
        } => {
            w.u8(4);
            write_reg(w, *rd);
            write_reg(w, *ra);
            w.i32(*off);
            w.u8(width_tag(*width));
            w.bool(*sext);
        }
        Inst::St { rs, ra, off, width } => {
            w.u8(5);
            write_reg(w, *rs);
            write_reg(w, *ra);
            w.i32(*off);
            w.u8(width_tag(*width));
        }
        Inst::Br {
            cond,
            ra,
            rb,
            target,
        } => {
            w.u8(6);
            w.u8(br_cond_tag(*cond));
            write_reg(w, *ra);
            write_reg(w, *rb);
            w.u32(target.0);
        }
        Inst::Jmp { target } => {
            w.u8(7);
            w.u32(target.0);
        }
        Inst::Call { func } => {
            w.u8(8);
            w.u32(func.0);
        }
        Inst::Ret => w.u8(9),
        Inst::Halt => w.u8(10),
        Inst::Nop => w.u8(11),
        Inst::AtomicRmw {
            op,
            rd,
            addr,
            rv,
            width,
            ordering,
        } => {
            w.u8(12);
            w.u8(rmw_op_tag(*op));
            write_reg(w, *rd);
            write_reg(w, *addr);
            write_reg(w, *rv);
            w.u8(width_tag(*width));
            w.u8(order_tag(*ordering));
        }
        Inst::Fence => w.u8(13),
        Inst::Invoke {
            actor,
            action,
            args,
            future,
            loc,
            exclusive,
        } => {
            w.u8(14);
            write_reg(w, *actor);
            w.u32(action.0);
            w.u8(args.len() as u8);
            for a in args {
                write_reg(w, *a);
            }
            match future {
                Some(r) => {
                    w.bool(true);
                    write_reg(w, *r);
                }
                None => w.bool(false),
            }
            w.u8(loc_tag(*loc));
            w.bool(*exclusive);
        }
        Inst::FutureWait { rd, rf } => {
            w.u8(15);
            write_reg(w, *rd);
            write_reg(w, *rf);
        }
        Inst::FutureSend { rf, rv } => {
            w.u8(16);
            write_reg(w, *rf);
            write_reg(w, *rv);
        }
        Inst::Push { stream, rs } => {
            w.u8(17);
            write_reg(w, *stream);
            write_reg(w, *rs);
        }
        Inst::Pop { stream } => {
            w.u8(18);
            write_reg(w, *stream);
        }
        Inst::Flush { addr, len } => {
            w.u8(19);
            write_reg(w, *addr);
            write_reg(w, *len);
        }
        Inst::Trace { rs } => {
            w.u8(20);
            write_reg(w, *rs);
        }
    }
}

/// Decodes one instruction.
pub fn read_inst(r: &mut Reader) -> Result<Inst, CodecError> {
    Ok(match r.u8()? {
        0 => Inst::Imm {
            rd: read_reg(r)?,
            val: r.u64()?,
        },
        1 => Inst::Mov {
            rd: read_reg(r)?,
            rs: read_reg(r)?,
        },
        2 => Inst::Alu {
            op: alu_op_from(r.u8()?)?,
            rd: read_reg(r)?,
            ra: read_reg(r)?,
            rb: read_reg(r)?,
        },
        3 => Inst::AluI {
            op: alu_op_from(r.u8()?)?,
            rd: read_reg(r)?,
            ra: read_reg(r)?,
            imm: r.u64()?,
        },
        4 => Inst::Ld {
            rd: read_reg(r)?,
            ra: read_reg(r)?,
            off: r.i32()?,
            width: width_from(r.u8()?)?,
            sext: r.bool()?,
        },
        5 => Inst::St {
            rs: read_reg(r)?,
            ra: read_reg(r)?,
            off: r.i32()?,
            width: width_from(r.u8()?)?,
        },
        6 => Inst::Br {
            cond: br_cond_from(r.u8()?)?,
            ra: read_reg(r)?,
            rb: read_reg(r)?,
            target: Label(r.u32()?),
        },
        7 => Inst::Jmp {
            target: Label(r.u32()?),
        },
        8 => Inst::Call {
            func: FuncId(r.u32()?),
        },
        9 => Inst::Ret,
        10 => Inst::Halt,
        11 => Inst::Nop,
        12 => Inst::AtomicRmw {
            op: rmw_op_from(r.u8()?)?,
            rd: read_reg(r)?,
            addr: read_reg(r)?,
            rv: read_reg(r)?,
            width: width_from(r.u8()?)?,
            ordering: order_from(r.u8()?)?,
        },
        13 => Inst::Fence,
        14 => {
            let actor = read_reg(r)?;
            let action = ActionId(r.u32()?);
            let nargs = r.u8()? as usize;
            let mut args = Vec::with_capacity(nargs);
            for _ in 0..nargs {
                args.push(read_reg(r)?);
            }
            let future = if r.bool()? { Some(read_reg(r)?) } else { None };
            Inst::Invoke {
                actor,
                action,
                args,
                future,
                loc: loc_from(r.u8()?)?,
                exclusive: r.bool()?,
            }
        }
        15 => Inst::FutureWait {
            rd: read_reg(r)?,
            rf: read_reg(r)?,
        },
        16 => Inst::FutureSend {
            rf: read_reg(r)?,
            rv: read_reg(r)?,
        },
        17 => Inst::Push {
            stream: read_reg(r)?,
            rs: read_reg(r)?,
        },
        18 => Inst::Pop {
            stream: read_reg(r)?,
        },
        19 => Inst::Flush {
            addr: read_reg(r)?,
            len: read_reg(r)?,
        },
        20 => Inst::Trace { rs: read_reg(r)? },
        _ => return Err(CodecError::Invalid("instruction tag")),
    })
}

// ---------------------------------------------------------------------------
// Program codec
// ---------------------------------------------------------------------------

/// Encodes a whole program (function names and instruction streams).
pub fn write_program(w: &mut Writer, p: &Program) {
    w.u32(p.len() as u32);
    for (_, f) in p.iter() {
        w.str(f.name());
        w.u32(f.insts().len() as u32);
        for inst in f.insts() {
            write_inst(w, inst);
        }
    }
}

/// Decodes a program previously written by [`write_program`].
///
/// # Errors
/// Returns [`CodecError::Truncated`] for short input and
/// [`CodecError::Invalid`] for a bad tag or a program that fails
/// validation (the checks [`crate::ProgramBuilder::finish`] makes).
pub fn read_program(r: &mut Reader) -> Result<Program, CodecError> {
    let nfuncs = r.count(1)?;
    let mut funcs = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let name = r.str()?.to_owned();
        let ninsts = r.count(1)?;
        let mut insts = Vec::with_capacity(ninsts);
        for _ in 0..ninsts {
            insts.push(read_inst(r)?);
        }
        funcs.push(Function::new(name, insts));
    }
    Program::new(funcs).map_err(|e| {
        CodecError::Invalid(match e {
            ProgramError::UnboundLabel { .. } => "unbound label",
            ProgramError::LabelOutOfRange { .. } => "branch target",
            ProgramError::UnknownCallee { .. } => "callee",
            ProgramError::FallsOffEnd { .. } => "function end",
            ProgramError::BadRegister { .. } => "register index",
            ProgramError::TooManyInvokeArgs { .. } => "invoke argument count",
        })
    })
}

// ---------------------------------------------------------------------------
// Execution-context codec
// ---------------------------------------------------------------------------

fn write_pc(w: &mut Writer, pc: Pc) {
    w.u32(pc.func.0);
    w.u32(pc.idx);
}

fn read_pc(r: &mut Reader) -> Result<Pc, CodecError> {
    Ok(Pc {
        func: FuncId(r.u32()?),
        idx: r.u32()?,
    })
}

/// Encodes an execution context (registers, PC, call stack, flags).
pub fn write_exec_ctx(w: &mut Writer, ctx: &ExecCtx) {
    for reg in &ctx.regs {
        w.u64(*reg);
    }
    write_pc(w, ctx.pc);
    w.u32(ctx.callstack.len() as u32);
    for pc in &ctx.callstack {
        write_pc(w, *pc);
    }
    w.bool(ctx.halted);
    w.u64(ctx.retired);
}

/// Decodes an execution context written by [`write_exec_ctx`].
pub fn read_exec_ctx(r: &mut Reader) -> Result<ExecCtx, CodecError> {
    let mut regs = [0u64; NUM_REGS];
    for reg in &mut regs {
        *reg = r.u64()?;
    }
    let pc = read_pc(r)?;
    let depth = r.count(8)?;
    let mut callstack = Vec::with_capacity(depth);
    for _ in 0..depth {
        callstack.push(read_pc(r)?);
    }
    let halted = r.bool()?;
    let retired = r.u64()?;
    let mut ctx = ExecCtx::new(pc.func, &[]);
    ctx.regs = regs;
    ctx.pc = pc;
    ctx.callstack = callstack;
    ctx.halted = halted;
    ctx.retired = retired;
    Ok(ctx)
}

// ---------------------------------------------------------------------------
// Memory codec
// ---------------------------------------------------------------------------

/// Encodes the full sparse memory image, pages in ascending index order
/// (the order is deterministic regardless of `HashMap` iteration order).
pub fn write_mem(w: &mut Writer, mem: &PagedMem) {
    let pages = mem.pages_ref();
    let mut idx: Vec<u64> = pages.keys().copied().collect();
    idx.sort_unstable();
    w.u32(idx.len() as u32);
    for i in idx {
        w.u64(i);
        w.raw(&pages[&i][..]);
    }
}

/// Decodes a memory image written by [`write_mem`].
pub fn read_mem(r: &mut Reader) -> Result<PagedMem, CodecError> {
    let npages = r.count(8 + PAGE_SIZE)?;
    let mut pages: crate::fx::FxHashMap<u64, Box<[u8; PAGE_SIZE]>> =
        crate::fx::map_with_capacity(npages);
    for _ in 0..npages {
        let idx = r.u64()?;
        let data = r.raw(PAGE_SIZE)?;
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page.copy_from_slice(data);
        if pages.insert(idx, page).is_some() {
            return Err(CodecError::Invalid("duplicate memory page"));
        }
    }
    Ok(PagedMem::from_pages(pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::mem::Memory;

    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let (a, b) = (Reg(0), Reg(1));
        let done = f.label();
        f.imm(a, 7).imm(b, 35);
        f.bge_u(a, b, done);
        f.add(a, a, b);
        f.bind(done);
        f.ret();
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn program_round_trip() {
        let p = sample_program();
        let mut w = Writer::new();
        write_program(&mut w, &p);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let q = read_program(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(p.len(), q.len());
        for ((_, pf), (_, qf)) in p.iter().zip(q.iter()) {
            assert_eq!(pf.name(), qf.name());
            assert_eq!(pf.insts(), qf.insts());
        }
    }

    #[test]
    fn truncated_program_rejected() {
        let p = sample_program();
        let mut w = Writer::new();
        write_program(&mut w, &p);
        let bytes = w.into_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_program(&mut r).is_err(), "cut at {cut} not rejected");
        }
    }

    #[test]
    fn mem_round_trip() {
        let mut m = PagedMem::new();
        m.write_u64(0x10, 0xdead_beef_cafe_f00d);
        m.write_u64(0x12_3450, 42);
        m.write_u8(0xffff_f000, 7);
        let mut w = Writer::new();
        write_mem(&mut w, &m);
        let bytes = w.into_bytes();
        let m2 = read_mem(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(m2.read_u64(0x10), 0xdead_beef_cafe_f00d);
        assert_eq!(m2.read_u64(0x12_3450), 42);
        assert_eq!(m2.read_u8(0xffff_f000), 7);
        assert_eq!(m2.resident_pages(), m.resident_pages());
    }

    /// Encodes `funcs` as [`write_program`] would, with no validation.
    fn encode_unchecked(funcs: &[(&str, Vec<Inst>)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(funcs.len() as u32);
        for (name, insts) in funcs {
            w.str(name);
            w.u32(insts.len() as u32);
            for inst in insts {
                write_inst(&mut w, inst);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn invalid_programs_are_rejected_on_decode() {
        let invoke5 = Inst::Invoke {
            actor: Reg(0),
            action: ActionId(0),
            args: (1..6).map(Reg).collect(),
            future: None,
            loc: Location::Remote,
            exclusive: false,
        };
        let cases: [(Vec<Inst>, &str); 4] = [
            (vec![Inst::Call { func: FuncId(7) }, Inst::Halt], "callee"),
            (vec![invoke5, Inst::Halt], "invoke argument count"),
            (
                vec![Inst::Jmp { target: Label(9) }, Inst::Halt],
                "branch target",
            ),
            (vec![Inst::Nop], "function end"),
        ];
        for (insts, what) in cases {
            let bytes = encode_unchecked(&[("main", insts)]);
            let got = read_program(&mut Reader::new(&bytes));
            assert_eq!(got.map(|_| ()), Err(CodecError::Invalid(what)));
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut r = Reader::new(&[0xff]);
        assert_eq!(
            read_inst(&mut r),
            Err(CodecError::Invalid("instruction tag"))
        );
        let mut r = Reader::new(&[2, 99, 0, 0, 0]);
        assert_eq!(read_inst(&mut r), Err(CodecError::Invalid("alu op")));
    }
}
