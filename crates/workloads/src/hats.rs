//! HATS: decoupled graph traversal via streaming (paper Sec. VIII-C,
//! Figs. 19–21, 23).
//!
//! One PageRank iteration over a community-structured graph. Edges are
//! processed destination-major; the *order* destinations are visited in
//! determines locality of the `rank[src]` accesses. A bounded
//! depth-first search (BDFS) over in-edges visits communities together,
//! turning scattered accesses into temporally clustered ones.
//!
//! Variants:
//! * **Baseline** — the core processes destinations in "memory layout"
//!   order, modeled as a shuffled order (web-crawl layouts have poor
//!   community locality): bad reuse, unpredictable branches.
//! * **Software BDFS** — the core runs the BDFS traversal itself:
//!   locality improves, but the traversal's data-dependent branches
//!   mispredict heavily and the traversal competes with edge processing.
//! * **tākō** — miss-triggered pseudo-streaming: the BDFS producer runs
//!   on the engine but can only refill one cache line of edges per
//!   activation and pays a re-initialization cost each time (Sec. VIII-C).
//! * **Leviathan** — a true decoupled stream: the producer runs ahead,
//!   the consumer's control flow collapses to a sequential loop over the
//!   stream (near-zero mispredictions).
//! * **Ideal** — Leviathan with idealized engines.
//!
//! Every variant processes each destination exactly once, so all compute
//! bit-identical `rank_next` vectors (checked by tests). Each thread owns
//! a static vertex partition; the BDFS descends only within it.

use std::sync::Arc;

use crate::rng::SmallRng;
use levi_isa::{FuncId, MemWidth, Program, ProgramBuilder, Reg};
use leviathan::{StreamSpec, System, SystemConfig};

use crate::gen::Graph;
use crate::harness::{RunEnv, RunOutcome, RunStatus, ScaleKind, Workload};
use crate::metrics::RunMetrics;

/// HATS variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HatsVariant {
    /// Layout-order processing on the core.
    Baseline,
    /// BDFS traversal executed by the core.
    SoftwareBdfs,
    /// Miss-triggered pseudo-streaming (tākō).
    Tako,
    /// Decoupled run-ahead stream (Leviathan).
    Leviathan,
    /// Leviathan with idealized engines.
    Ideal,
}

impl HatsVariant {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HatsVariant::Baseline => "Baseline",
            HatsVariant::SoftwareBdfs => "SW BDFS",
            HatsVariant::Tako => "tako",
            HatsVariant::Leviathan => "Leviathan",
            HatsVariant::Ideal => "Ideal",
        }
    }

    /// All variants in presentation order.
    pub fn all() -> [HatsVariant; 5] {
        [
            HatsVariant::Baseline,
            HatsVariant::SoftwareBdfs,
            HatsVariant::Tako,
            HatsVariant::Leviathan,
            HatsVariant::Ideal,
        ]
    }
}

/// Scale knobs.
#[derive(Clone, Debug)]
pub struct HatsScale {
    /// Vertices.
    pub vertices: u32,
    /// Average in-degree.
    pub avg_degree: u32,
    /// Community size (planted partition).
    pub community: u32,
    /// Percent of edges staying within a community.
    pub intra_pct: u32,
    /// Tiles (= threads = streams).
    pub tiles: u32,
    /// Whole-hierarchy cache shrink factor (keeps LLC inclusivity while
    /// making the rank vector exceed the private caches, as uk-2002 does).
    pub cache_factor: u64,
    /// Stream buffer capacity in entries (Fig. 23 sweeps this).
    pub stream_capacity: u64,
    /// BDFS depth bound.
    pub depth_limit: u64,
    /// tākō's per-activation re-initialization cost in engine instrs.
    pub tako_reinit: u32,
    /// RNG seed.
    pub seed: u64,
}

impl HatsScale {
    /// Benchmark scale: a community-heavy graph whose rank vector is ~2×
    /// the LLC (uk-2002's ratio is larger still; shape is preserved).
    pub fn paper() -> Self {
        HatsScale {
            vertices: 32 * 1024,
            avg_degree: 8,
            // Communities sized so one community's working set (ranks +
            // its CSR slice) fits the scaled private caches — the regime
            // where traversal scheduling pays, as with uk-2002 on the
            // paper's full-size hierarchy.
            community: 128,
            intra_pct: 90,
            tiles: 16,
            cache_factor: 8,
            stream_capacity: 128,
            depth_limit: 8,
            tako_reinit: 120,
            seed: 0x447,
        }
    }

    /// Tiny scale for unit tests.
    pub fn test() -> Self {
        HatsScale {
            vertices: 8 * 1024,
            avg_degree: 6,
            community: 256,
            intra_pct: 85,
            tiles: 4,
            cache_factor: 8,
            stream_capacity: 64,
            depth_limit: 8,
            tako_reinit: 120,
            seed: 0x447,
        }
    }
}

/// Result of one HATS run.
#[derive(Clone, Debug)]
pub struct HatsResult {
    /// Measured metrics.
    pub metrics: RunMetrics,
    /// Checksum of the final rank vector.
    pub rank_checksum: u64,
    /// Total edges processed.
    pub edges: u64,
}

/// Per-thread context layout (all u64 fields).
mod ctx {
    pub const IN_OFFS: i32 = 0;
    pub const IN_NEIGH: i32 = 8;
    pub const VISITED: i32 = 16;
    pub const CURSOR: i32 = 24;
    pub const STACK: i32 = 32;
    pub const V0: i32 = 40;
    pub const V1: i32 = 48;
    pub const DEPTH: i32 = 56;
    pub const RANKS: i32 = 64;
    pub const OUTDEG: i32 = 72;
    pub const RNEXT: i32 = 80;
    pub const ORDER: i32 = 88;
    pub const SIZE: u64 = 96;
}

pub(crate) struct Programs {
    pub(crate) prog: Arc<Program>,
    producer: FuncId,
    consumer: FuncId,
    sw_bdfs: FuncId,
    baseline: FuncId,
    vertex_phase: FuncId,
}

/// Emits the edge-processing body: `rnext[dst] += rank[src]/outdeg[src]`.
fn emit_process(f: &mut FunctionBuilder<'_>, ctxreg: Reg, src: Reg, dst: Reg, scratch: [Reg; 4]) {
    let [a, deg, rank, cur] = scratch;
    f.ld8(a, ctxreg, ctx::OUTDEG);
    f.muli(deg, src, 4);
    f.add(a, a, deg);
    f.ld4(deg, a, 0);
    f.ld8(a, ctxreg, ctx::RANKS);
    f.muli(rank, src, 8);
    f.add(a, a, rank);
    f.ld8(rank, a, 0);
    f.divu(rank, rank, deg);
    f.ld8(a, ctxreg, ctx::RNEXT);
    f.muli(cur, dst, 8);
    f.add(a, a, cur);
    f.ld8(cur, a, 0);
    f.add(cur, cur, rank);
    f.st8(a, 0, cur);
}

use levi_isa::FunctionBuilder;

/// Emits the BDFS step: maintains the stack/cursor/visited state and
/// produces the next edge in `(src, dst)`, branching to `emitted` after
/// each generated edge and to `finished` when the partition is exhausted.
/// The caller places edge handling at `emitted` and must jump back to
/// `resume`.
#[allow(clippy::too_many_arguments)]
fn emit_bdfs(
    f: &mut FunctionBuilder<'_>,
    ctxreg: Reg,
    src: Reg,
    dst: Reg,
    emitted: levi_isa::Label,
    finished: levi_isa::Label,
) -> levi_isa::Label {
    // Persistent traversal registers.
    let (offs, neigh, visited, cursor, stack, v0, v1, dlim) = (
        Reg(40),
        Reg(41),
        Reg(42),
        Reg(43),
        Reg(44),
        Reg(45),
        Reg(46),
        Reg(47),
    );
    let (root, sp, e, end, tmp, addr, one, zero) = (
        Reg(48),
        Reg(49),
        Reg(50),
        Reg(51),
        Reg(52),
        Reg(53),
        Reg(54),
        Reg(55),
    );
    f.ld8(offs, ctxreg, ctx::IN_OFFS);
    f.ld8(neigh, ctxreg, ctx::IN_NEIGH);
    f.ld8(visited, ctxreg, ctx::VISITED);
    f.ld8(cursor, ctxreg, ctx::CURSOR);
    f.ld8(stack, ctxreg, ctx::STACK);
    f.ld8(v0, ctxreg, ctx::V0);
    f.ld8(v1, ctxreg, ctx::V1);
    f.ld8(dlim, ctxreg, ctx::DEPTH);
    f.imm(one, 1).imm(zero, 0);
    f.mov(root, v0);
    f.imm(sp, 0);

    let resume = f.label();
    let scan = f.label();
    let take_root = f.label();
    let have_work = f.label();
    let pop_stack = f.label();
    let no_descend = f.label();

    f.bind(resume);
    f.bne(sp, zero, have_work);
    // Scan for the next unvisited root.
    f.bind(scan);
    f.bge_u(root, v1, finished);
    f.add(addr, visited, root);
    f.ld1(tmp, addr, 0);
    f.beq(tmp, zero, take_root);
    f.addi(root, root, 1);
    f.jmp(scan);
    f.bind(take_root);
    f.add(addr, visited, root);
    f.st1(addr, 0, one);
    f.muli(addr, sp, 4);
    f.add(addr, addr, stack);
    f.st4(addr, 0, root);
    f.addi(sp, sp, 1);

    f.bind(have_work);
    // dst = stack[sp-1]
    f.subi(tmp, sp, 1);
    f.muli(addr, tmp, 4);
    f.add(addr, addr, stack);
    f.ld4(dst, addr, 0);
    // e = cursor[dst]; end = offs[dst+1]
    f.muli(addr, dst, 4);
    f.add(addr, addr, cursor);
    f.ld4(e, addr, 0);
    f.muli(tmp, dst, 4);
    f.add(tmp, tmp, offs);
    f.ld4(end, tmp, 4);
    f.blt_u(e, end, no_descend); // edges remain: emit one
    f.bind(pop_stack);
    f.subi(sp, sp, 1);
    f.jmp(resume);

    f.bind(no_descend);
    // src = neigh[e]; cursor[dst] = e + 1
    f.addi(tmp, e, 1);
    f.st4(addr, 0, tmp);
    f.muli(addr, e, 4);
    f.add(addr, addr, neigh);
    f.ld4(src, addr, 0);
    // Try to descend into src before emitting (depth- and range-bounded).
    let emit_only = f.label();
    f.bge_u(sp, dlim, emit_only);
    f.blt_u(src, v0, emit_only);
    f.bge_u(src, v1, emit_only);
    f.add(addr, visited, src);
    f.ld1(tmp, addr, 0);
    f.bne(tmp, zero, emit_only);
    f.st1(addr, 0, one);
    f.muli(addr, sp, 4);
    f.add(addr, addr, stack);
    f.st4(addr, 0, src);
    f.addi(sp, sp, 1);
    f.bind(emit_only);
    f.jmp(emitted);

    resume
}

pub(crate) fn build_programs() -> Programs {
    let mut pb = ProgramBuilder::new();

    // ---- stream producer: genStream(r0 = stream handle, r1 = ctx) ----
    let producer = {
        let mut f = pb.function("gen_stream");
        let (stream, ctxreg) = (Reg(0), Reg(1));
        let (src, dst, edge) = (Reg(8), Reg(9), Reg(10));
        let emitted = f.label();
        let finished = f.label();
        let resume = emit_bdfs(&mut f, ctxreg, src, dst, emitted, finished);
        f.bind(emitted);
        f.shli(edge, src, 32);
        f.or(edge, edge, dst);
        f.push(stream, edge);
        f.jmp(resume);
        f.bind(finished);
        f.halt();
        f.finish()
    };

    // ---- stream consumer: r0 = ctx2 {buffer, cap, result}, r1 = nedges,
    //      r2 = stream handle, r3 = ctx (for rank arrays) ----
    let consumer = {
        let mut f = pb.function("consume_stream");
        let (c2, n, stream, ctxreg) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let (buffer, bound) = (Reg(8), Reg(9));
        let (i, addr, edge, src, dst, mask) =
            (Reg(10), Reg(12), Reg(13), Reg(14), Reg(15), Reg(16));
        let scratch = [Reg(20), Reg(21), Reg(22), Reg(23)];
        // The consumer issues *sequential* loads over the ring: a pointer
        // bump plus a predictable wrap branch (paper: "the core merely
        // issues sequential loads").
        f.ld8(buffer, c2, 0).ld8(bound, c2, 8);
        f.muli(bound, bound, 8);
        f.add(bound, bound, buffer);
        f.mov(addr, buffer);
        f.imm(i, 0);
        f.imm(mask, 0xFFFF_FFFFu64);
        let top = f.label();
        let out = f.label();
        let no_wrap = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.ld8(edge, addr, 0);
        f.pop(stream);
        f.addi(addr, addr, 8);
        f.blt_u(addr, bound, no_wrap);
        f.mov(addr, buffer);
        f.bind(no_wrap);
        f.shri(src, edge, 32);
        f.and(dst, edge, mask);
        emit_process(&mut f, ctxreg, src, dst, scratch);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };

    // ---- software BDFS on the core: r0 = ctx ----
    let sw_bdfs = {
        let mut f = pb.function("sw_bdfs");
        let ctxreg0 = Reg(0);
        let ctxreg = Reg(7);
        f.mov(ctxreg, ctxreg0);
        let (src, dst) = (Reg(8), Reg(9));
        let scratch = [Reg(20), Reg(21), Reg(22), Reg(23)];
        let emitted = f.label();
        let finished = f.label();
        let resume = emit_bdfs(&mut f, ctxreg, src, dst, emitted, finished);
        f.bind(emitted);
        emit_process(&mut f, ctxreg, src, dst, scratch);
        f.jmp(resume);
        f.bind(finished);
        f.halt();
        f.finish()
    };

    // ---- baseline: shuffled destination order. r0 = ctx, r1 = count ----
    let baseline = {
        let mut f = pb.function("baseline_order");
        let (ctxreg, count) = (Reg(0), Reg(1));
        let (order, offs, neigh) = (Reg(8), Reg(9), Reg(10));
        let (k, dst, e, end, addr, src) = (Reg(11), Reg(12), Reg(13), Reg(14), Reg(15), Reg(16));
        let scratch = [Reg(20), Reg(21), Reg(22), Reg(23)];
        f.ld8(order, ctxreg, ctx::ORDER);
        f.ld8(offs, ctxreg, ctx::IN_OFFS);
        f.ld8(neigh, ctxreg, ctx::IN_NEIGH);
        f.imm(k, 0);
        let top = f.label();
        let out = f.label();
        let inner = f.label();
        let next_k = f.label();
        f.bind(top);
        f.bge_u(k, count, out);
        f.muli(addr, k, 4);
        f.add(addr, addr, order);
        f.ld4(dst, addr, 0);
        f.muli(addr, dst, 4);
        f.add(addr, addr, offs);
        f.ld4(e, addr, 0);
        f.ld4(end, addr, 4);
        f.bind(inner);
        f.bge_u(e, end, next_k);
        f.muli(addr, e, 4);
        f.add(addr, addr, neigh);
        f.ld4(src, addr, 0);
        emit_process(&mut f, ctxreg, src, dst, scratch);
        f.addi(e, e, 1);
        f.jmp(inner);
        f.bind(next_k);
        f.addi(k, k, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };

    // ---- vertex phase: r0 = v0, r1 = v1, r2 = ctx ----
    let vertex_phase = {
        let mut f = pb.function("vertex_phase");
        let (v0, v1, ctxreg) = (Reg(0), Reg(1), Reg(2));
        let (rnext, ranks, v, addr, nx, r, zero) =
            (Reg(10), Reg(11), Reg(8), Reg(14), Reg(15), Reg(16), Reg(17));
        f.ld8(rnext, ctxreg, ctx::RNEXT);
        f.ld8(ranks, ctxreg, ctx::RANKS);
        f.imm(zero, 0);
        f.mov(v, v0);
        let top = f.label();
        let done = f.label();
        f.bind(top);
        f.bge_u(v, v1, done);
        f.muli(addr, v, 8).add(addr, addr, rnext);
        f.ld8(nx, addr, 0);
        f.st8(addr, 0, zero);
        f.muli(r, nx, 217);
        f.shri(r, r, 8);
        f.addi(r, r, 1 << 12);
        f.muli(addr, v, 8).add(addr, addr, ranks);
        f.st8(addr, 0, r);
        f.addi(v, v, 1);
        f.jmp(top);
        f.bind(done);
        f.halt();
        f.finish()
    };

    Programs {
        prog: Arc::new(pb.finish().expect("HATS programs validate")),
        producer,
        consumer,
        sw_bdfs,
        baseline,
        vertex_phase,
    }
}

/// Builds the in-CSR (dst → srcs) and out-degrees from an out-CSR graph.
fn invert(graph: &Graph) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let nv = graph.num_vertices as usize;
    let mut outdeg = vec![0u32; nv];
    let mut in_off = vec![0u32; nv + 1];
    for s in 0..graph.num_vertices {
        outdeg[s as usize] = graph.out_degree(s);
        for &d in graph.neighbors_of(s) {
            in_off[d as usize + 1] += 1;
        }
    }
    for i in 0..nv {
        in_off[i + 1] += in_off[i];
    }
    let mut cursor = in_off.clone();
    let mut in_neigh = vec![0u32; graph.num_edges() as usize];
    for s in 0..graph.num_vertices {
        for &d in graph.neighbors_of(s) {
            in_neigh[cursor[d as usize] as usize] = s;
            cursor[d as usize] += 1;
        }
    }
    (in_off, in_neigh, outdeg)
}

/// Runs one HATS variant.
pub fn run_hats(variant: HatsVariant, scale: &HatsScale) -> HatsResult {
    let graph = Graph::community(
        scale.vertices,
        scale.avg_degree,
        scale.community,
        scale.intra_pct,
        scale.seed,
    );
    run_hats_on(variant, scale, &graph)
}

/// Runs one HATS variant on a pre-built graph.
pub fn run_hats_on(variant: HatsVariant, scale: &HatsScale, graph: &Graph) -> HatsResult {
    run_hats_with(variant, scale, graph, |_| {})
}

/// Runs one HATS variant with arbitrary configuration customization (the
/// unified harness injects fault plans and watchdogs through this hook).
pub fn run_hats_with(
    variant: HatsVariant,
    scale: &HatsScale,
    graph: &Graph,
    customize: impl FnOnce(&mut SystemConfig),
) -> HatsResult {
    let mut cfg = SystemConfig::with_tiles(scale.tiles);
    crate::metrics::shrink_caches(&mut cfg.machine, scale.cache_factor);
    customize(&mut cfg);
    if variant == HatsVariant::Ideal {
        cfg = cfg.idealized();
    }
    let mut sys = System::try_new(cfg).expect("HATS system config is valid");
    let nv = graph.num_vertices as u64;
    let (in_off, in_neigh, outdeg) = invert(graph);

    // ---- shared data ----
    let offs_a = sys.alloc_raw(4 * (nv + 1), 64);
    let neigh_a = sys.alloc_raw(4 * in_neigh.len().max(1) as u64, 64);
    let outdeg_a = sys.alloc_raw(4 * nv, 64);
    let ranks_a = sys.alloc_raw(8 * nv, 64);
    let rnext_a = sys.alloc_raw(8 * nv, 64);
    let visited_a = sys.alloc_raw(nv, 64);
    let cursor_a = sys.alloc_raw(4 * nv, 64);
    for (i, &o) in in_off.iter().enumerate() {
        sys.write(offs_a + 4 * i as u64, o as u64, MemWidth::B4);
    }
    for (i, &s) in in_neigh.iter().enumerate() {
        sys.write(neigh_a + 4 * i as u64, s as u64, MemWidth::B4);
    }
    for v in 0..nv {
        sys.write(outdeg_a + 4 * v, outdeg[v as usize] as u64, MemWidth::B4);
        sys.write_u64(ranks_a + 8 * v, crate::phi::INIT_RANK);
        // Per-vertex edge cursors start at the vertex's first in-edge.
        sys.write(cursor_a + 4 * v, in_off[v as usize] as u64, MemWidth::B4);
    }

    let tako_mode = variant == HatsVariant::Tako;
    let progs = build_programs();

    // ---- per-thread setup ----
    let per = (graph.num_vertices).div_ceil(scale.tiles) as u64;
    let mut edges_total = 0u64;
    sys.set_phase(0);
    for t in 0..scale.tiles {
        let v0 = (t as u64 * per).min(nv);
        let v1 = ((t as u64 + 1) * per).min(nv);
        // Edges processed by this thread = in-edges of its destinations.
        let my_edges = (in_off[v1 as usize] - in_off[v0 as usize]) as u64;
        edges_total += my_edges;

        let ctx_a = sys.alloc_raw(ctx::SIZE, 64);
        let stack_a = sys.alloc_raw(4 * (scale.depth_limit + 2), 64);
        sys.write_u64(ctx_a + ctx::IN_OFFS as u64, offs_a);
        sys.write_u64(ctx_a + ctx::IN_NEIGH as u64, neigh_a);
        sys.write_u64(ctx_a + ctx::VISITED as u64, visited_a);
        sys.write_u64(ctx_a + ctx::CURSOR as u64, cursor_a);
        sys.write_u64(ctx_a + ctx::STACK as u64, stack_a);
        sys.write_u64(ctx_a + ctx::V0 as u64, v0);
        sys.write_u64(ctx_a + ctx::V1 as u64, v1);
        sys.write_u64(ctx_a + ctx::DEPTH as u64, scale.depth_limit);
        sys.write_u64(ctx_a + ctx::RANKS as u64, ranks_a);
        sys.write_u64(ctx_a + ctx::OUTDEG as u64, outdeg_a);
        sys.write_u64(ctx_a + ctx::RNEXT as u64, rnext_a);

        match variant {
            HatsVariant::Baseline => {
                // Shuffled destination order models a layout with poor
                // community locality (e.g. crawl order).
                let count = v1 - v0;
                let order_a = sys.alloc_raw(4 * count.max(1), 64);
                let mut order: Vec<u32> = (v0 as u32..v1 as u32).collect();
                let mut rng = SmallRng::seed_from_u64(scale.seed ^ t as u64);
                rng.shuffle(&mut order);
                for (i, &d) in order.iter().enumerate() {
                    sys.write(order_a + 4 * i as u64, d as u64, MemWidth::B4);
                }
                sys.write_u64(ctx_a + ctx::ORDER as u64, order_a);
                sys.spawn_thread(t, &progs.prog, progs.baseline, &[ctx_a, count])
                    .unwrap();
            }
            HatsVariant::SoftwareBdfs => {
                sys.spawn_thread(t, &progs.prog, progs.sw_bdfs, &[ctx_a])
                    .unwrap();
            }
            HatsVariant::Tako | HatsVariant::Leviathan | HatsVariant::Ideal => {
                let mut spec = StreamSpec::new(
                    &format!("edges{t}"),
                    scale.stream_capacity,
                    t,
                    &progs.prog,
                    progs.producer,
                )
                .with_args(&[ctx_a]);
                if tako_mode {
                    spec = spec.miss_triggered(scale.tako_reinit);
                }
                let h = sys.create_stream(&spec).unwrap();
                let c2 = sys.alloc_raw(16, 64);
                sys.write_u64(c2, h.buffer);
                sys.write_u64(c2 + 8, h.capacity);
                sys.spawn_thread(
                    t,
                    &progs.prog,
                    progs.consumer,
                    &[c2, my_edges, h.reg_value(), ctx_a],
                )
                .unwrap();
            }
        }
    }
    sys.run().expect("HATS edge phase deadlocked");

    // ---- vertex phase ----
    sys.set_phase(1);
    let vctx = sys.alloc_raw(ctx::SIZE, 64);
    sys.write_u64(vctx + ctx::RANKS as u64, ranks_a);
    sys.write_u64(vctx + ctx::RNEXT as u64, rnext_a);
    for t in 0..scale.tiles {
        let v0 = (t as u64 * per).min(nv);
        let v1 = ((t as u64 + 1) * per).min(nv);
        sys.spawn_thread(t, &progs.prog, progs.vertex_phase, &[v0, v1, vctx])
            .unwrap();
    }
    sys.run().expect("HATS vertex phase deadlocked");

    let mut checksum = 0u64;
    for v in 0..nv {
        checksum = checksum.wrapping_add(sys.read_u64(ranks_a + 8 * v));
    }

    HatsResult {
        metrics: RunMetrics::capture(variant.label(), &sys),
        rank_checksum: checksum,
        edges: edges_total,
    }
}

/// Host golden model: one PageRank iteration (the traversal order never
/// changes the sums — shared with PHI via [`crate::gen::pagerank_checksum`]).
pub use crate::gen::pagerank_checksum as golden_checksum;

/// Registry entry for HATS (see [`crate::harness`]).
pub struct HatsWorkload;

impl Workload for HatsWorkload {
    type Variant = HatsVariant;
    type Scale = HatsScale;
    type Input = Graph;

    fn name(&self) -> &'static str {
        "hats"
    }

    fn variants(&self) -> Vec<(&'static str, HatsVariant)> {
        HatsVariant::all().iter().map(|&v| (v.label(), v)).collect()
    }

    fn scale(&self, kind: ScaleKind) -> HatsScale {
        match kind {
            ScaleKind::Paper => HatsScale::paper(),
            ScaleKind::Test | ScaleKind::Quick => HatsScale::test(),
        }
    }

    fn build_input(&self, scale: &HatsScale) -> Graph {
        Graph::community(
            scale.vertices,
            scale.avg_degree,
            scale.community,
            scale.intra_pct,
            scale.seed,
        )
    }

    fn describe(&self, scale: &HatsScale) -> String {
        format!(
            "{} vertices, communities of {} ({}% intra), {} tiles",
            scale.vertices, scale.community, scale.intra_pct, scale.tiles
        )
    }

    fn run(
        &self,
        variant: HatsVariant,
        scale: &HatsScale,
        graph: &Graph,
        env: &RunEnv,
    ) -> RunStatus {
        let r = run_hats_with(variant, scale, graph, |cfg| env.customize(cfg));
        RunStatus::Done(Box::new(
            RunOutcome::new(r.metrics, r.rank_checksum).with_aux("edges", r.edges),
        ))
    }

    fn golden(&self, _variant: HatsVariant, _scale: &HatsScale, graph: &Graph) -> u64 {
        golden_checksum(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_compute_identical_ranks() {
        let scale = HatsScale::test();
        let graph = Graph::community(
            scale.vertices,
            scale.avg_degree,
            scale.community,
            scale.intra_pct,
            scale.seed,
        );
        let golden = golden_checksum(&graph);
        for v in HatsVariant::all() {
            let r = run_hats_on(v, &scale, &graph);
            assert_eq!(
                r.rank_checksum, golden,
                "variant {v:?} diverged from the golden model"
            );
        }
    }

    #[test]
    fn streaming_beats_baseline_and_regularizes_branches() {
        let scale = HatsScale::test();
        let graph = Graph::community(
            scale.vertices,
            scale.avg_degree,
            scale.community,
            scale.intra_pct,
            scale.seed,
        );
        let base = run_hats_on(HatsVariant::Baseline, &scale, &graph);
        let lev = run_hats_on(HatsVariant::Leviathan, &scale, &graph);
        let speedup = lev.metrics.speedup_vs(&base.metrics);
        assert!(speedup > 1.15, "Leviathan HATS speedup {speedup:.2}x");
        // Branch mispredictions per edge collapse on the consumer.
        let base_mpe = base.metrics.stats.mispredicts as f64 / base.edges as f64;
        let lev_mpe = lev.metrics.stats.mispredicts as f64 / lev.edges as f64;
        assert!(
            lev_mpe < base_mpe * 0.5,
            "stream must regularize control flow: {lev_mpe:.3} vs {base_mpe:.3} mispredicts/edge"
        );
    }

    #[test]
    fn tako_needs_more_engine_instructions_per_edge() {
        let scale = HatsScale::test();
        let graph = Graph::community(
            scale.vertices,
            scale.avg_degree,
            scale.community,
            scale.intra_pct,
            scale.seed,
        );
        let tako = run_hats_on(HatsVariant::Tako, &scale, &graph);
        let lev = run_hats_on(HatsVariant::Leviathan, &scale, &graph);
        let tako_ipe = tako.metrics.stats.engine_instrs as f64 / tako.edges as f64;
        let lev_ipe = lev.metrics.stats.engine_instrs as f64 / lev.edges as f64;
        assert!(
            tako_ipe > lev_ipe,
            "miss-triggered restart must cost more engine work: {tako_ipe:.1} vs {lev_ipe:.1}"
        );
        assert!(
            lev.metrics.cycles < tako.metrics.cycles,
            "run-ahead must beat miss-triggered: {} vs {}",
            lev.metrics.cycles,
            tako.metrics.cycles
        );
    }
}
