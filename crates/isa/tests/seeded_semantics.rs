//! Randomized tests of the LevIR semantics against native Rust evaluation:
//! random straight-line ALU programs, memory round trips, control-flow
//! invariants, and the decoded `InstMeta` of random instructions. Formerly proptest-based; now driven by a fixed-seed
//! splitmix64 generator so the suite is deterministic and needs no
//! external crates.

use levi_isa::interp::Interpreter;
use levi_isa::{
    ActionId, AluOp, BrCond, ExecCtx, FuncId, Inst, InstMeta, Label, Location, MemOrder, MemWidth,
    Memory, NoNdc, PagedMem, ProgramBuilder, Reg, RmwOp, NUM_REGS,
};

/// Minimal in-file deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

/// The ALU operations under test.
const OPS: [AluOp; 17] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::DivU,
    AluOp::RemU,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
    AluOp::SltS,
    AluOp::SltU,
    AluOp::Seq,
    AluOp::Sne,
    AluOp::MinU,
    AluOp::MaxU,
];

/// A random straight-line ALU program computes the same result as a
/// direct Rust evaluation over a model register file.
#[test]
fn straight_line_alu_matches_model() {
    let mut g = Gen(0xa1);
    for _ in 0..200 {
        let seed0 = g.next();
        let seed1 = g.next();
        let n_steps = 1 + g.below(59) as usize;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("rand");
        let mut model = [0u64; 8];
        model[0] = seed0;
        model[1] = seed1;
        for _ in 0..n_steps {
            let op = OPS[g.below(17) as usize];
            let (rd, ra, rb) = (g.below(8) as u8, g.below(8) as u8, g.below(8) as u8);
            f.alu(op, Reg(rd), Reg(ra), Reg(rb));
            model[rd as usize] = op.apply(model[ra as usize], model[rb as usize]);
        }
        // Fold all model registers into r0 for comparison.
        for r in 1..8u8 {
            f.xor(Reg(0), Reg(0), Reg(r));
        }
        f.ret();
        let func = f.finish();
        let prog = pb.finish().unwrap();
        let mut mem = PagedMem::new();
        let got = Interpreter::new(&prog)
            .run(func, &[seed0, seed1], &mut mem)
            .unwrap();
        let mut fold = model[0];
        for m in model.iter().skip(1) {
            fold ^= m;
        }
        assert_eq!(got, fold);
    }
}

/// Store-then-load round-trips arbitrary values at arbitrary widths.
#[test]
fn store_load_round_trip() {
    use levi_isa::MemWidth::*;
    let mut g = Gen(0xb2);
    for _ in 0..100 {
        let addr = g.below(1_000_000);
        let val = g.next();
        for w in [B1, B2, B4, B8] {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("rt");
            f.st(Reg(0), 0, Reg(1), w);
            f.ld(Reg(0), Reg(0), 0, w, false);
            f.ret();
            let func = f.finish();
            let prog = pb.finish().unwrap();
            let mut mem = PagedMem::new();
            let got = Interpreter::new(&prog)
                .run(func, &[addr, val], &mut mem)
                .unwrap();
            assert_eq!(got, w.truncate(val));
        }
    }
}

/// Branch conditions agree with their Rust counterparts.
#[test]
fn branch_semantics_match() {
    let mut g = Gen(0xc3);
    for case in 0..100 {
        // Mix raw values with near-equal pairs so Eq/Ne paths are hit.
        let a = g.next();
        let b = match case % 4 {
            0 => g.next(),
            1 => a,
            2 => a.wrapping_add(1),
            _ => a.wrapping_neg(),
        };
        let cases: [(BrCond, bool); 6] = [
            (BrCond::Eq, a == b),
            (BrCond::Ne, a != b),
            (BrCond::LtU, a < b),
            (BrCond::GeU, a >= b),
            (BrCond::LtS, (a as i64) < (b as i64)),
            (BrCond::GeS, (a as i64) >= (b as i64)),
        ];
        for (cond, expect) in cases {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("b");
            let taken = f.label();
            f.br(cond, Reg(0), Reg(1), taken);
            f.imm(Reg(0), 0u64);
            f.ret();
            f.bind(taken);
            f.imm(Reg(0), 1u64);
            f.ret();
            let func = f.finish();
            let prog = pb.finish().unwrap();
            let mut mem = PagedMem::new();
            let got = Interpreter::new(&prog)
                .run(func, &[a, b], &mut mem)
                .unwrap();
            assert_eq!(got == 1, expect, "{:?}({}, {})", cond, a, b);
        }
    }
}

/// A chain of atomic RMWs leaves memory in the state a sequential fold
/// produces, and each returns the previous value.
#[test]
fn rmw_chain_folds() {
    let ops = [
        RmwOp::Add,
        RmwOp::And,
        RmwOp::Or,
        RmwOp::Xor,
        RmwOp::MinU,
        RmwOp::MaxU,
        RmwOp::Xchg,
    ];
    let mut g = Gen(0xd4);
    for _ in 0..50 {
        let init = g.next();
        let n_vals = 1 + g.below(19) as usize;
        let vals: Vec<u64> = (0..n_vals).map(|_| g.next()).collect();
        for op in ops {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("chain");
            // Unrolled: imm the value, then RMW it into [r0].
            for &v in &vals {
                f.imm(Reg(2), v);
                f.rmw_relaxed(op, Reg(3), Reg(0), Reg(2), levi_isa::MemWidth::B8);
            }
            f.ret();
            let func = f.finish();
            let prog = pb.finish().unwrap();
            let mut mem = PagedMem::new();
            mem.write_u64(0x100, init);
            Interpreter::new(&prog)
                .run(func, &[0x100], &mut mem)
                .unwrap();
            let want = vals.iter().fold(init, |acc, &v| op.apply(acc, v));
            assert_eq!(mem.read_u64(0x100), want, "{:?}", op);
        }
    }
}

/// Every instruction's `def` register is the only register a step may
/// change (NDC-free instructions).
#[test]
fn step_writes_only_def() {
    let mut g = Gen(0xe5);
    for _ in 0..500 {
        let seed = g.next();
        let op = OPS[g.below(17) as usize];
        let (rd, ra, rb) = (g.below(16) as u8, g.below(16) as u8, g.below(16) as u8);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("one");
        f.alu(op, Reg(rd), Reg(ra), Reg(rb));
        f.ret();
        let func = f.finish();
        let prog = pb.finish().unwrap();
        let mut ctx = ExecCtx::new(func, &[]);
        for (i, r) in ctx.regs.iter_mut().enumerate() {
            *r = seed.wrapping_mul(i as u64 + 1);
        }
        let before = ctx.regs;
        let mut mem = PagedMem::new();
        let mut host = NoNdc;
        levi_isa::exec::step(&prog, &mut ctx, &mut mem, &mut host).unwrap();
        for (i, b) in before.iter().enumerate() {
            if i != rd as usize {
                assert_eq!(ctx.regs[i], *b, "register r{} changed", i);
            }
        }
    }
}

/// A random instruction of any kind. Registers come from `0..regs`, so a
/// small `regs` makes repeated operands (`add r1, r1, r1`) common.
fn sample_inst(g: &mut Gen, regs: u64) -> Inst {
    let mut r = || Reg(g.below(regs) as u8);
    let (a, b, c, d) = (r(), r(), r(), r());
    let nargs = g.below(5) as usize;
    let args: Vec<Reg> = (0..nargs).map(|_| Reg(g.below(regs) as u8)).collect();
    let future = (g.below(2) == 1).then(|| Reg(g.below(regs) as u8));
    let op = OPS[g.below(OPS.len() as u64) as usize];
    let width = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8][g.below(4) as usize];
    match g.below(21) {
        0 => Inst::Imm {
            rd: a,
            val: g.next(),
        },
        1 => Inst::Mov { rd: a, rs: b },
        2 => Inst::Alu {
            op,
            rd: a,
            ra: b,
            rb: c,
        },
        3 => Inst::AluI {
            op,
            rd: a,
            ra: b,
            imm: g.next(),
        },
        4 => Inst::Ld {
            rd: a,
            ra: b,
            off: 8,
            width,
            sext: g.below(2) == 1,
        },
        5 => Inst::St {
            rs: a,
            ra: b,
            off: -8,
            width,
        },
        6 => Inst::Br {
            cond: BrCond::LtU,
            ra: a,
            rb: b,
            target: Label(0),
        },
        7 => Inst::Jmp { target: Label(0) },
        8 => Inst::Call { func: FuncId(0) },
        9 => Inst::Ret,
        10 => Inst::Halt,
        11 => Inst::Nop,
        12 => Inst::AtomicRmw {
            op: RmwOp::Add,
            rd: a,
            addr: b,
            rv: c,
            width,
            ordering: MemOrder::Relaxed,
        },
        13 => Inst::Fence,
        14 => Inst::Invoke {
            actor: d,
            action: ActionId(3),
            args,
            future,
            loc: Location::Remote,
            exclusive: false,
        },
        15 => Inst::FutureWait { rd: a, rf: b },
        16 => Inst::FutureSend { rf: a, rv: b },
        17 => Inst::Push { stream: a, rs: b },
        18 => Inst::Pop { stream: a },
        19 => Inst::Flush { addr: a, len: b },
        _ => Inst::Trace { rs: a },
    }
}

/// `InstMeta` (decoded once per static instruction) agrees with the
/// per-use decoders the timing models used to call on every execution,
/// and `InstMeta::ready` with their operand-readiness max.
#[test]
fn inst_meta_matches_decoders() {
    let mut g = Gen(0x3e7a);
    let mut invokes_with_args = 0;
    for i in 0..4000 {
        let regs = if i % 2 == 0 { 4 } else { NUM_REGS as u64 };
        let inst = sample_inst(&mut g, regs);
        let meta = InstMeta::of(&inst);
        assert_eq!(meta.class, inst.class(), "{inst}");
        assert_eq!(meta.def, inst.def(), "{inst}");
        let mut uses = 0u64;
        inst.for_each_use(|r| uses |= 1 << r.index());
        assert_eq!(meta.uses, uses, "{inst}");
        if matches!(&inst, Inst::Invoke { args, .. } if !args.is_empty()) {
            invokes_with_args += 1;
        }
        for _ in 0..4 {
            let start = g.below(1000);
            let mut reg_ready = [0u64; NUM_REGS];
            for t in &mut reg_ready {
                *t = g.below(2000);
            }
            let mut want = start;
            inst.for_each_use(|r| want = want.max(reg_ready[r.index()]));
            assert_eq!(meta.ready(&reg_ready, start), want, "{inst}");
        }
    }
    assert!(invokes_with_args > 50, "sample covers invoke args");
}
