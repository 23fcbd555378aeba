//! Wall-clock timing kernels for the `micro_substrate` figure: cache-bank
//! operations, NoC sends, LevIR interpretation, allocator planning, and a
//! small end-to-end simulation.
//!
//! Numbers are indicative, not statistically rigorous — and unlike every
//! simulated figure they are *not* deterministic: wall-clock nanoseconds
//! vary run to run, and a parallel fan-out adds scheduling noise. Run with
//! `--serial` for the quietest numbers.

use levi_isa::{interp::Interpreter, Memory, PagedMem, ProgramBuilder, Reg};
use levi_sim::cache::CacheBank;
use levi_sim::noc::Noc;
use levi_sim::{Machine, MachineConfig, Stats};
use leviathan::alloc::{Allocator, ArraySpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over `iters` iterations per batch, after a warmup of up to
/// 1000 calls, and returns the median per-iteration nanoseconds over
/// seven batches.
pub fn median_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    for _ in 0..iters.min(1000) {
        f();
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// A self-contained timing kernel returning its median ns/iter.
pub type TimerFn = fn() -> f64;

/// The substrate timing kernels as `(name, timer)` pairs, in presentation
/// order. Each timer is self-contained and returns its median ns/iter, so
/// the figure can fan them out through [`crate::fan_out`].
pub static KERNELS: &[(&str, TimerFn)] = &[
    ("cache/probe_hit", probe_hit),
    ("cache/insert_evict", insert_evict),
    ("noc/send_corner_to_corner", noc_send),
    ("isa/interp_sum64", interp_sum64),
    ("alloc/plan_array", plan_array),
    ("machine/scan_256_lines", scan_256_lines),
];

fn probe_hit() -> f64 {
    let cfg = MachineConfig::paper_default();
    let mut bank = CacheBank::new(&cfg.llc);
    bank.insert(0x1234, &[]);
    median_ns(1_000_000, || {
        black_box(bank.probe(black_box(0x1234)).is_some());
    })
}

fn insert_evict() -> f64 {
    let cfg = MachineConfig::paper_default();
    let mut bank = CacheBank::new(&cfg.l1);
    let mut line = 0u64;
    median_ns(1_000_000, || {
        line += 1;
        black_box(bank.insert(black_box(line), &[]).1.is_some());
    })
}

fn noc_send() -> f64 {
    let cfg = MachineConfig::paper_default();
    let (cols, rows) = cfg.mesh_dims();
    let mut noc = Noc::new(cols, rows, cfg.noc);
    let mut stats = Stats::new();
    let mut t = 0u64;
    median_ns(1_000_000, || {
        t += 10;
        black_box(noc.send(0, 15, 72, t, &mut stats));
    })
}

fn interp_sum64() -> f64 {
    // Sum a 64-element array (functional interpreter throughput).
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("sum");
    let (base, n, acc, i, v) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    let top = f.label();
    let out = f.label();
    f.imm(acc, 0).imm(i, 0);
    f.bind(top);
    f.bge_u(i, n, out);
    f.ld8(v, base, 0);
    f.add(acc, acc, v);
    f.addi(base, base, 8);
    f.addi(i, i, 1);
    f.jmp(top);
    f.bind(out);
    f.mov(Reg(0), acc).ret();
    let sum = f.finish();
    let prog = pb.finish().unwrap();
    let mut mem = PagedMem::new();
    for k in 0..64u64 {
        mem.write_u64(0x1000 + 8 * k, k);
    }
    median_ns(20_000, || {
        let mut interp = Interpreter::new(&prog);
        black_box(interp.run(sum, &[0x1000, 64], &mut mem).unwrap());
    })
}

fn plan_array() -> f64 {
    median_ns(200_000, || {
        let mut a = Allocator::new();
        black_box(a.plan_array(&ArraySpec::new("n", black_box(24), 1024)));
    })
}

fn scan_256_lines() -> f64 {
    // End-to-end: one thread scanning 256 lines through the hierarchy.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("scan");
    let (p, i, n, v) = (Reg(1), Reg(2), Reg(3), Reg(4));
    f.imm(p, 0x10000).imm(i, 0).imm(n, 256);
    let top = f.label();
    let out = f.label();
    f.bind(top);
    f.bge_u(i, n, out);
    f.ld8(v, p, 0);
    f.addi(p, p, 64);
    f.addi(i, i, 1);
    f.jmp(top);
    f.bind(out);
    f.halt();
    let func = f.finish();
    let prog = Arc::new(pb.finish().unwrap());
    median_ns(500, || {
        let mut cfg = MachineConfig::with_tiles(4);
        cfg.prefetcher = false;
        let mut m = Machine::try_new(cfg).unwrap();
        m.spawn_thread(0, prog.clone(), func, &[]).unwrap();
        black_box(m.run().unwrap().cycles);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_times_a_cheap_kernel() {
        let mut x = 0u64;
        let ns = median_ns(10_000, || {
            x = x.wrapping_add(std::hint::black_box(3));
        });
        assert!((0.0..1e6).contains(&ns), "{ns}");
    }
}
