//! Steady-state allocation smoke tests.
//!
//! The simulator's hot paths perform **zero heap allocations** once warm:
//! the per-instruction path (`run_actor`, cache probes and fills, waiter
//! park/wake, DRAM and NoC queueing), the inline interpreter that runs
//! Morph constructors and destructors in one shared register state, and
//! offloaded invokes, whose arguments travel inline and whose task reuses
//! a recycled actor slot in place. Flat slabs are sized up front, scratch
//! vectors are reused, waiter lists are pooled, and guest memory pages are
//! only allocated on first touch.
//!
//! Verified with a counting global allocator and pairs of otherwise
//! identical single-thread runs that differ only in trip count: the
//! longer run does much more steady-state work (instructions, LLC
//! evictions that run destructors, or invokes) over the *same* memory
//! footprint, so any per-instruction, per-eviction or per-invoke
//! allocation would show up as a large count delta. A small slack absorbs
//! one-off amortized growth (e.g. a `Vec` capacity doubling inside stats
//! sampling).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use levi_isa::{ActionId, Location, Memory, Reg};
use levi_sim::ndc::{MorphLevel, MorphRegion};
use levi_sim::{Machine, MachineConfig};

struct CountingAlloc;

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // allocations. `const` and drop-free, so reading it never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Builds the benchmark kernel: `reps` passes summing a 64-entry array.
/// The footprint (8 lines of data + code) is constant; only the
/// instruction count scales with `reps`.
fn kernel() -> (Arc<levi_isa::Program>, levi_isa::FuncId) {
    let mut pb = levi_isa::ProgramBuilder::new();
    let mut f = pb.function("sweep");
    let (base, reps, acc, r, i, p, v) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
    let outer = f.label();
    let inner = f.label();
    let inner_out = f.label();
    let done = f.label();
    f.imm(acc, 0).imm(r, 0);
    f.bind(outer);
    f.bge_u(r, reps, done);
    f.mov(p, base).imm(i, 0);
    f.bind(inner);
    f.imm(v, 64);
    f.bge_u(i, v, inner_out);
    f.ld8(v, p, 0);
    f.add(acc, acc, v);
    f.addi(p, p, 8);
    f.addi(i, i, 1);
    f.jmp(inner);
    f.bind(inner_out);
    f.addi(r, r, 1);
    f.jmp(outer);
    f.bind(done);
    f.mov(Reg(0), acc).halt();
    let func = f.finish();
    (Arc::new(pb.finish().unwrap()), func)
}

/// Runs the kernel with `reps` passes; returns (alloc calls during run,
/// instructions executed, checksum).
fn measure(reps: u64) -> (u64, u64, u64) {
    let (prog, func) = kernel();
    let mut cfg = MachineConfig::with_tiles(4);
    cfg.prefetcher = false;
    let mut m = Machine::try_new(cfg).unwrap();
    let base = 0x10_0000u64;
    for k in 0..64u64 {
        m.mem_mut().write_u64(base + 8 * k, k + 1);
    }
    m.spawn_thread(0, prog, func, &[base, reps]).unwrap();
    let before = alloc_calls();
    m.run().unwrap();
    let after = alloc_calls();
    (
        after - before,
        m.stats().core_instrs,
        m.mem().read_u64(base),
    )
}

#[test]
fn steady_state_run_allocates_nothing_per_instruction() {
    let (allocs_short, instrs_short, sum_a) = measure(10);
    let (allocs_long, instrs_long, sum_b) = measure(200);
    assert_eq!(sum_a, sum_b, "both runs compute the same checksum");
    let extra_instrs = instrs_long - instrs_short;
    assert!(
        extra_instrs > 50_000,
        "the long run must add real steady-state work: {extra_instrs}"
    );
    // Both runs pay the same cold-start allocations (first-touch pages,
    // map growth to peak occupancy, scratch capacity). The steady-state
    // tail must add essentially none; 64 covers amortized container
    // doubling without masking a per-instruction or per-miss allocation
    // (which would cost thousands here).
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_allocs < 64,
        "steady-state execution must not allocate: {extra_allocs} extra \
         allocation calls over {extra_instrs} extra instructions"
    );
}

/// Phantom range of the eviction test: 1024 lines of 8 B objects, four
/// times the shrunken LLC below.
const PHANTOM: u64 = 64 * 1024;

/// Streams one store per line over a sub-line LLC Morph with a
/// destructor, `reps` times. The LLC holds a quarter of the range, so
/// every store after the first pass misses, fills a zeroed phantom line
/// and evicts one whose 8 destructors then run inline. Returns (alloc
/// calls during run, destructor actions, the destructors' tally).
fn measure_evictions(reps: u64) -> (u64, u64, u64) {
    let mut pb = levi_isa::ProgramBuilder::new();
    // Destructor: r0 = object, r1 = view; counts into the view.
    let dtor = {
        let mut f = pb.function("count_dtor");
        let (view, c) = (Reg(1), Reg(3));
        f.ld8(c, view, 0).addi(c, c, 1).st8(view, 0, c).halt();
        f.finish()
    };
    let writer = {
        let mut f = pb.function("writer");
        let (base, reps, r, p, end, v) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        let (outer, inner, done) = (f.label(), f.label(), f.label());
        f.imm(r, 0).imm(v, 7);
        f.bind(outer);
        f.bge_u(r, reps, done);
        f.mov(p, base).addi(end, base, PHANTOM);
        f.bind(inner);
        f.st8(p, 0, v);
        f.addi(p, p, 64);
        f.blt_u(p, end, inner);
        f.addi(r, r, 1);
        f.jmp(outer);
        f.bind(done);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());
    let mut cfg = MachineConfig::with_tiles(4);
    cfg.prefetcher = false;
    cfg.l1.size_bytes = 2 * 1024;
    cfg.l2.size_bytes = 4 * 1024;
    cfg.llc.size_bytes = 4 * 1024; // per bank: 16 KiB in all
    let mut m = Machine::try_new(cfg).unwrap();
    m.hw.ndc.actions.register(ActionId(0), prog.clone(), dtor);
    let (view, base) = (0xA000u64, 0x20_0000u64);
    m.hw.ndc.register_morph(MorphRegion {
        base,
        bound: base + PHANTOM,
        level: MorphLevel::Llc,
        obj_size: 8,
        ctor: None,
        dtor: Some(ActionId(0)),
        view,
        stream: None,
    });
    m.spawn_thread(0, prog, writer, &[base, reps]).unwrap();
    let before = alloc_calls();
    m.run().unwrap();
    let after = alloc_calls();
    (
        after - before,
        m.stats().dtor_actions,
        m.mem().read_u64(view),
    )
}

#[test]
fn steady_state_evictions_allocate_nothing_per_destructor() {
    let (allocs_short, dtors_short, tally_short) = measure_evictions(2);
    let (allocs_long, dtors_long, tally_long) = measure_evictions(6);
    assert_eq!(tally_short, dtors_short, "every destructor ran once");
    assert_eq!(tally_long, dtors_long, "every destructor ran once");
    let extra_evictions = (dtors_long - dtors_short) / 8;
    assert!(
        extra_evictions > 3000,
        "the long run must add real steady-state evictions: {extra_evictions}"
    );
    // Same footprint, so the same cold-start allocations; 64 covers
    // amortized container growth, not one allocation per eviction.
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_allocs < 64,
        "steady-state evictions must not allocate: {extra_allocs} extra \
         allocation calls over {extra_evictions} extra evictions"
    );
}

/// Actors the invoke test cycles through: a fixed footprint of 16 lines.
const INVOKE_ACTORS: u64 = 16;

/// A core issues `n` rounds of two offloads to the actors' home LLC
/// engines: a REMOTE `add` invoke with two arguments, then a
/// future-carrying `get` whose value the core waits for. Returns (alloc
/// calls during run, invokes issued, the actors' total).
fn measure_invokes(n: u64) -> (u64, u64, u64) {
    let mut pb = levi_isa::ProgramBuilder::new();
    // add(actor, a, b): *actor += a + b.
    let add = {
        let mut f = pb.function("add");
        let (actor, a, b, x) = (Reg(0), Reg(1), Reg(2), Reg(3));
        f.ld8(x, actor, 0)
            .add(x, x, a)
            .add(x, x, b)
            .st8(actor, 0, x)
            .halt();
        f.finish()
    };
    // get(actor, fut): sends *actor to the future.
    let get = {
        let mut f = pb.function("get");
        let (actor, fut, x) = (Reg(0), Reg(1), Reg(2));
        f.ld8(x, actor, 0).future_send(fut, x).halt();
        f.finish()
    };
    let main = {
        let mut f = pb.function("main");
        let (base, n, fut, i, actor, one, v, acc, zero) = (
            Reg(0),
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
        );
        let (top, done) = (f.label(), f.label());
        f.imm(i, 0).imm(one, 1).imm(acc, 0).imm(zero, 0);
        f.bind(top);
        f.bge_u(i, n, done);
        f.andi(actor, i, INVOKE_ACTORS - 1)
            .muli(actor, actor, 64)
            .add(actor, actor, base);
        f.invoke(actor, ActionId(0), &[i, one], Location::Remote);
        f.st8(fut, 0, zero).st8(fut, 8, zero);
        f.invoke_future(actor, ActionId(1), &[fut], fut, Location::Remote);
        f.future_wait(v, fut);
        f.add(acc, acc, v);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(done);
        f.st8(fut, 8, acc).halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());
    let mut cfg = MachineConfig::with_tiles(4);
    cfg.prefetcher = false;
    let mut m = Machine::try_new(cfg).unwrap();
    m.hw.ndc.actions.register(ActionId(0), prog.clone(), add);
    m.hw.ndc.actions.register(ActionId(1), prog.clone(), get);
    let (base, fut) = (0x30_0000u64, 0x40_0000u64);
    for k in 0..INVOKE_ACTORS {
        m.mem_mut().write_u64(base + 64 * k, 0);
    }
    m.mem_mut().write_u64(fut, 0);
    m.spawn_thread(0, prog, main, &[base, n, fut]).unwrap();
    let before = alloc_calls();
    m.run().unwrap();
    let after = alloc_calls();
    let total = (0..INVOKE_ACTORS)
        .map(|k| m.mem().read_u64(base + 64 * k))
        .sum();
    (after - before, m.stats().invokes, total)
}

#[test]
fn steady_state_invokes_allocate_nothing_per_invoke() {
    let (allocs_short, invokes_short, total_short) = measure_invokes(100);
    let (allocs_long, invokes_long, total_long) = measure_invokes(1100);
    // Round i adds i + 1.
    assert_eq!((invokes_short, total_short), (200, 100 * 101 / 2));
    assert_eq!((invokes_long, total_long), (2200, 1100 * 1101 / 2));
    let extra_invokes = invokes_long - invokes_short;
    // Same footprint, so the same cold-start allocations (first-touch
    // pages, engine task slots, waiter lists); 64 covers amortized growth,
    // not one allocation per invoke (2,000 here).
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_allocs < 64,
        "steady-state invokes must not allocate: {extra_allocs} extra \
         allocation calls over {extra_invokes} extra invokes"
    );
}
