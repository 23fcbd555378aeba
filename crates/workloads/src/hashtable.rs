//! Hash-table lookups via task offload (paper Sec. VIII-B, Figs. 17, 18,
//! 24, 25).
//!
//! A bucketed chaining hash table with ~32 nodes per bucket. Lookups walk
//! the per-bucket linked list. The baseline walks chains from the core —
//! every node is a round trip to the LLC. Leviathan offloads a `Lookup`
//! task to the head node's LLC bank; the task compares the key and either
//! answers the waiting future or re-invokes itself on the next node in
//! continuation-passing style (Fig. 17), so the chain walk stays inside
//! the LLC.
//!
//! Node size is a parameter (24/64/128 B). Leviathan's allocator pads
//! 24 B nodes to 32 B (compacting them back in DRAM) and maps 2-line
//! 128 B nodes to a single bank; the `NoPadding`/`NoMapping` ablations
//! disable exactly those features to model Livia-style prior work.

use std::sync::Arc;

use levi_isa::{ActionId, Location, Program, ProgramBuilder, Reg};
use leviathan::{ArraySpec, System, SystemConfig};

use crate::gen::Uniform;
use crate::harness::{RunEnv, RunOutcome, RunStatus, ScaleKind, Workload};
use crate::metrics::RunMetrics;

/// Node field offsets. Per Fig. 17 the node is
/// `{ key, value, metadata[N], next }` — `next` sits at the *end*, so for
/// multi-line nodes the chain walk touches both the first and the last
/// line (which is why LLC bank mapping matters).
const KEY_OFF: i32 = 0;
const VAL_OFF: i32 = 8;

/// Offset of the `next` pointer for a given logical node size.
fn next_off(node_bytes: u64) -> i32 {
    (node_bytes - 8) as i32
}

/// Hash-table variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HtVariant {
    /// Core-side chain walk.
    Baseline,
    /// Offloaded continuation-passing lookups with full layout support.
    Leviathan,
    /// Offloaded lookups, nodes unpadded (Livia-like; hurts 24 B nodes).
    NoPadding,
    /// Offloaded lookups, no LLC bank mapping (hurts 128 B nodes).
    NoMapping,
    /// Offloaded lookups with DYNAMIC placement (probes the hierarchy and
    /// occasionally migrates hot actors up; Sec. VI-B1 ablation).
    LeviathanDynamic,
    /// Leviathan with idealized engines.
    Ideal,
}

impl HtVariant {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HtVariant::Baseline => "Baseline",
            HtVariant::Leviathan => "Leviathan",
            HtVariant::NoPadding => "w/o padding",
            HtVariant::NoMapping => "w/o LLC mapping",
            HtVariant::LeviathanDynamic => "Leviathan (DYNAMIC)",
            HtVariant::Ideal => "Ideal",
        }
    }

    /// All variants in presentation order.
    pub fn all() -> [HtVariant; 6] {
        [
            HtVariant::Baseline,
            HtVariant::Leviathan,
            HtVariant::NoPadding,
            HtVariant::NoMapping,
            HtVariant::LeviathanDynamic,
            HtVariant::Ideal,
        ]
    }
}

/// Scale knobs.
#[derive(Clone, Debug)]
pub struct HtScale {
    /// Logical node payload size in bytes (24, 64, or 128).
    pub node_bytes: u64,
    /// Total nodes in the table.
    pub nodes: u64,
    /// Average chain length (nodes per bucket).
    pub nodes_per_bucket: u64,
    /// Tiles (= threads).
    pub tiles: u32,
    /// Lookups per thread.
    pub lookups_per_thread: u64,
    /// RNG seed.
    pub seed: u64,
}

impl HtScale {
    /// The paper's setup for a given node size: ≈4 MB of padded nodes,
    /// 32 nodes/bucket, 16 threads × 1 K lookups.
    pub fn paper(node_bytes: u64) -> Self {
        let padded = leviathan::alloc::padded_size(node_bytes);
        HtScale {
            node_bytes,
            nodes: 4 * 1024 * 1024 / padded,
            nodes_per_bucket: 32,
            tiles: 16,
            lookups_per_thread: 1024,
            seed: 0x47,
        }
    }

    /// Tiny scale for unit tests.
    pub fn test(node_bytes: u64) -> Self {
        HtScale {
            node_bytes,
            nodes: 4096,
            nodes_per_bucket: 16,
            tiles: 4,
            lookups_per_thread: 64,
            seed: 0x47,
        }
    }

    /// Overrides the total table size in (padded) bytes — Fig. 24's sweep.
    pub fn with_table_bytes(mut self, bytes: u64) -> Self {
        let padded = leviathan::alloc::padded_size(self.node_bytes);
        self.nodes = (bytes / padded).max(self.nodes_per_bucket);
        self
    }
}

/// Result of a hash-table run.
#[derive(Clone, Debug)]
pub struct HtResult {
    /// Measured metrics.
    pub metrics: RunMetrics,
    /// XOR-checksum over all looked-up values.
    pub checksum: u64,
}

pub(crate) struct Programs {
    pub(crate) prog: Arc<Program>,
    baseline: levi_isa::FuncId,
    driver: levi_isa::FuncId,
    lookup: levi_isa::FuncId,
}

pub(crate) fn build_programs(node_bytes: u64, first_loc: Location) -> Programs {
    let nxt = next_off(node_bytes);
    let mut pb = ProgramBuilder::new();

    // Offloaded Lookup action (Fig. 17): r0 = node, r1 = key, r2 = fut.
    let lookup = {
        let mut f = pb.function("lookup");
        let (node, key, fut) = (Reg(0), Reg(1), Reg(2));
        let (nkey, next, val, zero, miss) = (Reg(3), Reg(4), Reg(5), Reg(6), Reg(7));
        let found = f.label();
        let not_here = f.label();
        f.imm(zero, 0);
        f.ld8(nkey, node, KEY_OFF);
        f.beq(nkey, key, found);
        f.jmp(not_here);
        f.bind(found);
        f.ld8(val, node, VAL_OFF);
        f.future_send(fut, val);
        f.halt();
        f.bind(not_here);
        f.ld8(next, node, nxt);
        let chain = f.label();
        f.bne(next, zero, chain);
        f.imm(miss, u64::MAX);
        f.future_send(fut, miss);
        f.halt();
        f.bind(chain);
        // Continuation: run Lookup near the next node.
        f.mov(node, next);
        f.invoke_future(node, ActionId(0), &[key, fut], fut, Location::Remote);
        f.halt();
        f.finish()
    };

    // Baseline lookup loop on the core:
    // r0 = ctx {heads, nbuckets, keys, result}, r1 = count.
    let baseline = {
        let mut f = pb.function("baseline_lookups");
        let (ctx, n) = (Reg(0), Reg(1));
        let (heads, nbuckets, keys, result) = (Reg(10), Reg(11), Reg(12), Reg(13));
        let (i, key, h, node, nkey, next, val, acc, zero, haddr) = (
            Reg(14),
            Reg(15),
            Reg(16),
            Reg(17),
            Reg(18),
            Reg(19),
            Reg(20),
            Reg(21),
            Reg(22),
            Reg(23),
        );
        f.ld8(heads, ctx, 0)
            .ld8(nbuckets, ctx, 8)
            .ld8(keys, ctx, 16)
            .ld8(result, ctx, 24);
        f.imm(i, 0).imm(acc, 0).imm(zero, 0);
        let top = f.label();
        let out = f.label();
        let walk = f.label();
        let found = f.label();
        let next_i = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.muli(key, i, 8).add(key, key, keys);
        f.ld8(key, key, 0);
        // h = (key * K) % nbuckets
        f.alui(levi_isa::AluOp::Mul, h, key, 0x9E37_79B9_7F4A_7C15u64);
        f.shri(h, h, 17);
        f.remu(h, h, nbuckets);
        f.muli(haddr, h, 8).add(haddr, haddr, heads);
        f.ld8(node, haddr, 0);
        f.bind(walk);
        f.beq(node, zero, next_i); // empty / missing
        f.ld8(nkey, node, KEY_OFF);
        f.beq(nkey, key, found);
        f.ld8(next, node, nxt);
        f.mov(node, next);
        f.jmp(walk);
        f.bind(found);
        f.ld8(val, node, VAL_OFF);
        f.xor(acc, acc, val);
        f.bind(next_i);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, acc);
        f.halt();
        f.finish()
    };

    // Offload driver: r0 = ctx {heads, nbuckets, keys, result, fut}, r1 = n.
    let driver = {
        let mut f = pb.function("offload_lookups");
        let (ctx, n) = (Reg(0), Reg(1));
        let (heads, nbuckets, keys, result, fut) = (Reg(10), Reg(11), Reg(12), Reg(13), Reg(24));
        let (i, key, h, node, val, acc, zero, haddr, miss) = (
            Reg(14),
            Reg(15),
            Reg(16),
            Reg(17),
            Reg(20),
            Reg(21),
            Reg(22),
            Reg(23),
            Reg(25),
        );
        f.ld8(heads, ctx, 0)
            .ld8(nbuckets, ctx, 8)
            .ld8(keys, ctx, 16)
            .ld8(result, ctx, 24)
            .ld8(fut, ctx, 32);
        f.imm(i, 0).imm(acc, 0).imm(zero, 0).imm(miss, u64::MAX);
        let top = f.label();
        let out = f.label();
        let next_i = f.label();
        let got = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.muli(key, i, 8).add(key, key, keys);
        f.ld8(key, key, 0);
        f.alui(levi_isa::AluOp::Mul, h, key, 0x9E37_79B9_7F4A_7C15u64);
        f.shri(h, h, 17);
        f.remu(h, h, nbuckets);
        f.muli(haddr, h, 8).add(haddr, haddr, heads);
        f.ld8(node, haddr, 0);
        f.beq(node, zero, next_i);
        // Reset the future, offload, wait.
        f.st8(fut, 0, zero);
        f.st8(fut, 8, zero);
        f.invoke_future(node, ActionId(0), &[key, fut], fut, first_loc);
        f.future_wait(val, fut);
        f.beq(val, miss, next_i);
        f.jmp(got);
        f.bind(got);
        f.xor(acc, acc, val);
        f.bind(next_i);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, acc);
        f.halt();
        f.finish()
    };

    Programs {
        prog: Arc::new(pb.finish().expect("hash-table programs validate")),
        baseline,
        driver,
        lookup,
    }
}

#[inline]
fn bucket_of(key: u64, nbuckets: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % nbuckets
}

/// Runs one hash-table variant.
pub fn run_hashtable(variant: HtVariant, scale: &HtScale) -> HtResult {
    run_hashtable_cfg(variant, scale, None)
}

/// Runs one variant with an optional LLC-size override in KB per tile
/// (Fig. 24 shrinks the effective LLC-to-table ratio via table growth, but
/// sensitivity tests may also pin the LLC).
pub fn run_hashtable_cfg(
    variant: HtVariant,
    scale: &HtScale,
    llc_kb_per_tile: Option<u64>,
) -> HtResult {
    run_hashtable_with(variant, scale, |cfg| {
        if let Some(kb) = llc_kb_per_tile {
            cfg.machine.llc.size_bytes = kb * 1024;
        }
    })
}

/// Runs one variant with arbitrary configuration customization (used by
/// the ablation benches, e.g. to disable the MC FIFO cache).
pub fn run_hashtable_with(
    variant: HtVariant,
    scale: &HtScale,
    customize: impl FnOnce(&mut SystemConfig),
) -> HtResult {
    let mut cfg = SystemConfig::with_tiles(scale.tiles);
    customize(&mut cfg);
    if variant == HtVariant::Ideal {
        cfg = cfg.idealized();
    }
    let mut sys = System::try_new(cfg).expect("hash-table system config is valid");

    // ---- allocate nodes per the variant's layout support ----
    let mut spec = ArraySpec::new("nodes", scale.node_bytes, scale.nodes);
    match variant {
        HtVariant::NoPadding => spec = spec.without_padding(),
        HtVariant::NoMapping => spec = spec.without_bank_mapping(),
        _ => {}
    }
    let nodes = sys.alloc_array(&spec);
    let nbuckets = (scale.nodes / scale.nodes_per_bucket).max(1);
    let heads = sys.alloc_raw(8 * nbuckets, 64);

    // ---- build chains host-side (insert at head) ----
    let mut checksum_all = 0u64;
    for k in 0..scale.nodes {
        let key = k;
        let value = key.wrapping_mul(31).wrapping_add(7);
        let b = bucket_of(key, nbuckets);
        let node = nodes.addr(k);
        let old_head = sys.read_u64(heads + 8 * b);
        sys.write_u64(node + KEY_OFF as u64, key);
        sys.write_u64(node + VAL_OFF as u64, value);
        sys.write_u64(node + next_off(scale.node_bytes) as u64, old_head);
        sys.write_u64(heads + 8 * b, node);
        checksum_all = checksum_all.wrapping_add(value);
    }

    // ---- lookup keys (uniform over existing keys) ----
    let total_lookups = scale.lookups_per_thread * scale.tiles as u64;
    let keys_arr = sys.alloc_raw(8 * total_lookups, 64);
    let mut uni = Uniform::new(scale.nodes, scale.seed);
    for i in 0..total_lookups {
        sys.write_u64(keys_arr + 8 * i, uni.sample());
    }
    let golden = golden_checksum(scale);

    let first_loc = if variant == HtVariant::LeviathanDynamic {
        Location::Dynamic
    } else {
        Location::Remote
    };
    let progs = build_programs(scale.node_bytes, first_loc);
    let lookup_action = sys.register_action(&progs.prog, progs.lookup);
    assert_eq!(lookup_action, ActionId(0));

    // ---- spawn ----
    let results = sys.alloc_raw(8 * scale.tiles as u64, 64);
    for t in 0..scale.tiles {
        let my_keys = keys_arr + 8 * scale.lookups_per_thread * t as u64;
        let res = results + 8 * t as u64;
        let ctx = sys.alloc_raw(48, 64);
        sys.write_u64(ctx, heads);
        sys.write_u64(ctx + 8, nbuckets);
        sys.write_u64(ctx + 16, my_keys);
        sys.write_u64(ctx + 24, res);
        match variant {
            HtVariant::Baseline => {
                sys.spawn_thread(
                    t,
                    &progs.prog,
                    progs.baseline,
                    &[ctx, scale.lookups_per_thread],
                )
                .unwrap();
            }
            _ => {
                let fut = sys.alloc_future();
                sys.write_u64(ctx + 32, fut.addr);
                sys.spawn_thread(
                    t,
                    &progs.prog,
                    progs.driver,
                    &[ctx, scale.lookups_per_thread],
                )
                .unwrap();
            }
        }
    }
    sys.run().expect("hash-table run deadlocked");

    let mut checksum = 0u64;
    for t in 0..scale.tiles {
        checksum ^= sys.read_u64(results + 8 * t as u64);
    }
    assert_eq!(
        checksum,
        golden,
        "{} returned wrong lookup values",
        variant.label()
    );

    HtResult {
        metrics: RunMetrics::capture(variant.label(), &sys),
        checksum,
    }
}

/// Host-side golden model: the XOR of `value(key)` over the seeded lookup
/// stream. Every key in `0..nodes` is present in the table, so every
/// lookup hits; `value(key) = key * 31 + 7` matches the insertion loop.
pub fn golden_checksum(scale: &HtScale) -> u64 {
    let total = scale.lookups_per_thread * scale.tiles as u64;
    let mut uni = Uniform::new(scale.nodes, scale.seed);
    let mut golden = 0u64;
    for _ in 0..total {
        golden ^= uni.sample().wrapping_mul(31).wrapping_add(7);
    }
    golden
}

/// Registry entry for the hash-table study (see [`crate::harness`]).
/// Registry runs use 64 B nodes; the node-size figure (Fig. 18) sweeps
/// sizes through the typed [`Workload`] interface with custom scales.
pub struct HashtableWorkload;

impl Workload for HashtableWorkload {
    type Variant = HtVariant;
    type Scale = HtScale;
    type Input = ();

    fn name(&self) -> &'static str {
        "hashtable"
    }

    fn variants(&self) -> Vec<(&'static str, HtVariant)> {
        HtVariant::all().iter().map(|&v| (v.label(), v)).collect()
    }

    fn scale(&self, kind: ScaleKind) -> HtScale {
        match kind {
            ScaleKind::Paper => HtScale::paper(64),
            ScaleKind::Test | ScaleKind::Quick => HtScale::test(64),
        }
    }

    fn build_input(&self, _scale: &HtScale) {}

    fn describe(&self, scale: &HtScale) -> String {
        format!(
            "{} nodes of {} B, {} per bucket, {} tiles x {} lookups",
            scale.nodes,
            scale.node_bytes,
            scale.nodes_per_bucket,
            scale.tiles,
            scale.lookups_per_thread
        )
    }

    fn run(&self, variant: HtVariant, scale: &HtScale, _input: &(), env: &RunEnv) -> RunStatus {
        let r = run_hashtable_with(variant, scale, |cfg| env.customize(cfg));
        RunStatus::Done(Box::new(RunOutcome::new(r.metrics, r.checksum)))
    }

    fn golden(&self, _variant: HtVariant, scale: &HtScale, _input: &()) -> u64 {
        golden_checksum(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_return_correct_values_all_variants() {
        for node_bytes in [24u64, 64, 128] {
            let scale = HtScale::test(node_bytes);
            for v in [HtVariant::Baseline, HtVariant::Leviathan] {
                let r = run_hashtable(v, &scale);
                assert!(r.checksum != 0);
            }
        }
    }

    #[test]
    fn offload_beats_baseline_on_chain_walks() {
        let scale = HtScale::test(64);
        let base = run_hashtable(HtVariant::Baseline, &scale);
        let lev = run_hashtable(HtVariant::Leviathan, &scale);
        let speedup = lev.metrics.speedup_vs(&base.metrics);
        assert!(
            speedup > 1.1,
            "offloaded pointer chasing should win: {speedup:.2}x"
        );
        // The win comes from NoC traffic (paper Sec. VIII-B).
        assert!(
            lev.metrics.stats.noc_flit_hops < base.metrics.stats.noc_flit_hops,
            "offload must reduce NoC traffic: {} vs {}",
            lev.metrics.stats.noc_flit_hops,
            base.metrics.stats.noc_flit_hops
        );
    }

    #[test]
    fn padding_matters_for_24b_nodes() {
        let scale = HtScale::test(24);
        let lev = run_hashtable(HtVariant::Leviathan, &scale);
        let nopad = run_hashtable(HtVariant::NoPadding, &scale);
        assert!(
            lev.metrics.cycles <= nopad.metrics.cycles,
            "padding should help 24B nodes: {} vs {}",
            lev.metrics.cycles,
            nopad.metrics.cycles
        );
    }

    #[test]
    fn mapping_matters_for_128b_nodes() {
        let scale = HtScale::test(128);
        let lev = run_hashtable(HtVariant::Leviathan, &scale);
        let nomap = run_hashtable(HtVariant::NoMapping, &scale);
        assert!(
            lev.metrics.cycles < nomap.metrics.cycles,
            "bank mapping should help 2-line nodes: {} vs {}",
            lev.metrics.cycles,
            nomap.metrics.cycles
        );
    }

    #[test]
    fn compaction_saves_dram_footprint() {
        // 24B nodes padded to 32B: DRAM stores them at 24B stride.
        let scale = HtScale::test(24);
        let sys_cfg = SystemConfig::with_tiles(scale.tiles);
        let mut sys = System::try_new(sys_cfg).expect("compaction test config is valid");
        let spec = ArraySpec::new("nodes", 24, scale.nodes);
        let arr = sys.alloc_array(&spec);
        assert_eq!(arr.stride, 32);
        assert_eq!(sys.machine().hw.translator.len(), 1, "compaction installed");
    }
}
