//! Substrate microkernels: small simulated programs that isolate one
//! mechanism each — streaming bandwidth (Scan), dependent load latency
//! (PtrChase), and the invoke path (InvokeAdd).
//!
//! They run on the timed simulator with host golden models, so they join
//! the [`crate::harness::REGISTRY`] and the differential tests like any
//! case study: a regression in the core pipeline, the cache walk, or the
//! task-offload scheduler shows up as a cycle or checksum drift here
//! before it muddies the full figures.

use std::sync::Arc;

use levi_isa::{ActionId, FuncId, Location, MemWidth, Program, ProgramBuilder, Reg, RmwOp};
use leviathan::{System, SystemConfig};

use crate::harness::{RunEnv, RunOutcome, RunStatus, ScaleKind, Workload};
use crate::metrics::RunMetrics;
use crate::rng::SmallRng;

/// Microkernel under measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroVariant {
    /// Every tile sums a disjoint stride-64 slice of a large array.
    Scan,
    /// One tile follows a seeded pointer cycle (dependent loads).
    PtrChase,
    /// Every tile fire-and-forget invokes an RMW task at remote lines.
    InvokeAdd,
}

impl MicroVariant {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MicroVariant::Scan => "Scan",
            MicroVariant::PtrChase => "PtrChase",
            MicroVariant::InvokeAdd => "InvokeAdd",
        }
    }

    /// All variants in presentation order.
    pub fn all() -> [MicroVariant; 3] {
        [
            MicroVariant::Scan,
            MicroVariant::PtrChase,
            MicroVariant::InvokeAdd,
        ]
    }
}

/// Scale knobs.
#[derive(Clone, Debug)]
pub struct MicroScale {
    /// Scan: lines summed per tile.
    pub lines_per_tile: u64,
    /// PtrChase: nodes in the pointer cycle.
    pub chase_nodes: u64,
    /// PtrChase: hops followed.
    pub chase_hops: u64,
    /// InvokeAdd: invokes issued per tile.
    pub invokes_per_tile: u64,
    /// InvokeAdd: counter lines the invokes scatter over.
    pub counters: u64,
    /// Tiles.
    pub tiles: u32,
    /// RNG seed (fill values and the chase permutation).
    pub seed: u64,
}

impl MicroScale {
    /// The benchmark scale.
    pub fn paper() -> Self {
        MicroScale {
            lines_per_tile: 2048,
            chase_nodes: 4096,
            chase_hops: 8192,
            invokes_per_tile: 1024,
            counters: 64,
            tiles: 16,
            seed: 0x5EED,
        }
    }

    /// Tiny scale for unit tests.
    pub fn test() -> Self {
        MicroScale {
            lines_per_tile: 128,
            chase_nodes: 256,
            chase_hops: 512,
            invokes_per_tile: 128,
            counters: 64,
            tiles: 4,
            seed: 0x5EED,
        }
    }
}

/// Result of one microkernel run.
#[derive(Clone, Debug)]
pub struct MicroResult {
    /// Measured metrics.
    pub metrics: RunMetrics,
    /// Kernel checksum (see [`golden_checksum`]).
    pub checksum: u64,
}

/// The seeded fill value of scan line `j`.
fn scan_value(j: u64, seed: u64) -> u64 {
    j.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed)
}

/// The chase cycle as `next[i]` over `0..nodes` (one full cycle).
fn chase_cycle(scale: &MicroScale) -> Vec<u32> {
    let n = scale.chase_nodes as u32;
    assert!(n >= 2, "a pointer cycle needs at least two nodes");
    let mut order: Vec<u32> = (1..n).collect();
    let mut rng = SmallRng::seed_from_u64(scale.seed);
    rng.shuffle(&mut order);
    let mut next = vec![0u32; n as usize];
    let mut cur = 0u32;
    for &i in &order {
        next[cur as usize] = i;
        cur = i;
    }
    next[cur as usize] = 0;
    next
}

/// Host golden model for each kernel: Scan = wrapping sum of the fill
/// values; PtrChase = the node index reached after `chase_hops` hops;
/// InvokeAdd = the total amount added across all counters.
pub fn golden_checksum(variant: MicroVariant, scale: &MicroScale) -> u64 {
    match variant {
        MicroVariant::Scan => {
            let total = scale.lines_per_tile * scale.tiles as u64;
            (0..total).fold(0u64, |a, j| a.wrapping_add(scan_value(j, scale.seed)))
        }
        MicroVariant::PtrChase => {
            let next = chase_cycle(scale);
            let mut cur = 0u32;
            for _ in 0..scale.chase_hops {
                cur = next[cur as usize];
            }
            cur as u64
        }
        MicroVariant::InvokeAdd => {
            let per_thread: u64 = (0..scale.invokes_per_tile).map(|i| (i & 7) + 1).sum();
            per_thread * scale.tiles as u64
        }
    }
}

/// Runs one microkernel.
pub fn run_micro(variant: MicroVariant, scale: &MicroScale) -> MicroResult {
    run_micro_with(variant, scale, |_| {})
}

/// Runs one microkernel with arbitrary configuration customization (the
/// unified harness injects fault plans and watchdogs through this hook).
pub fn run_micro_with(
    variant: MicroVariant,
    scale: &MicroScale,
    customize: impl FnOnce(&mut SystemConfig),
) -> MicroResult {
    let mut cfg = SystemConfig::with_tiles(scale.tiles);
    customize(&mut cfg);
    let mut sys = System::try_new(cfg).expect("micro system config is valid");
    let checksum = match variant {
        MicroVariant::Scan => run_scan(&mut sys, scale),
        MicroVariant::PtrChase => run_chase(&mut sys, scale),
        MicroVariant::InvokeAdd => run_invoke_add(&mut sys, scale),
    };
    MicroResult {
        metrics: RunMetrics::capture(variant.label(), &sys),
        checksum,
    }
}

/// The scan kernel: `scan(slice base, line count, result slot)`.
pub(crate) fn scan_program() -> (Arc<Program>, FuncId) {
    let mut pb = ProgramBuilder::new();
    let scan = {
        // r0 = slice base, r1 = line count, r2 = result slot.
        let mut f = pb.function("scan");
        let (p, n, result) = (Reg(0), Reg(1), Reg(2));
        let (i, v, acc) = (Reg(3), Reg(4), Reg(5));
        f.imm(i, 0).imm(acc, 0);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.ld8(v, p, 0);
        f.add(acc, acc, v);
        f.addi(p, p, 64);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, acc);
        f.halt();
        f.finish()
    };
    (Arc::new(pb.finish().expect("scan program validates")), scan)
}

/// The pointer-chase kernel: `chase(start node, hops, result slot)`.
pub(crate) fn chase_program() -> (Arc<Program>, FuncId) {
    let mut pb = ProgramBuilder::new();
    let chase = {
        // r0 = start node, r1 = hops, r2 = result slot.
        let mut f = pb.function("chase");
        let (p, n, result) = (Reg(0), Reg(1), Reg(2));
        let i = Reg(3);
        f.imm(i, 0);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.ld8(p, p, 0);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, p);
        f.halt();
        f.finish()
    };
    (
        Arc::new(pb.finish().expect("chase program validates")),
        chase,
    )
}

/// The invoke microkernel: its offloaded `rmw_task` and the per-core
/// `invoke_driver`.
pub(crate) fn invoke_programs() -> (Arc<Program>, FuncId, FuncId) {
    let mut pb = ProgramBuilder::new();
    // Offloaded RMW task: r0 = counter line, r1 = amount.
    let rmw_task = {
        let mut f = pb.function("rmw_task");
        let (actor, amt, old) = (Reg(0), Reg(1), Reg(2));
        f.rmw_relaxed(RmwOp::Add, old, actor, amt, MemWidth::B8);
        f.halt();
        f.finish()
    };
    let driver = {
        // r0 = counters base, r1 = invokes, r2 = t*13, r3 = counter count.
        let mut f = pb.function("invoke_driver");
        let (base, n, salt, nc) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let (i, k, addr, amt) = (Reg(4), Reg(5), Reg(6), Reg(7));
        f.imm(i, 0);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.muli(k, i, 7);
        f.add(k, k, salt);
        f.remu(k, k, nc);
        f.muli(addr, k, 64);
        f.add(addr, addr, base);
        f.andi(amt, i, 7);
        f.addi(amt, amt, 1);
        f.invoke(addr, ActionId(0), &[amt], Location::Remote);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().expect("invoke programs validate"));
    (prog, rmw_task, driver)
}

fn run_scan(sys: &mut System, scale: &MicroScale) -> u64 {
    let total = scale.lines_per_tile * scale.tiles as u64;
    let base = sys.alloc_raw(64 * total, 64);
    for j in 0..total {
        sys.write_u64(base + 64 * j, scan_value(j, scale.seed));
    }
    let (prog, scan) = scan_program();
    let results = sys.alloc_raw(8 * scale.tiles as u64, 64);
    for t in 0..scale.tiles {
        let slice = base + 64 * scale.lines_per_tile * t as u64;
        sys.spawn_thread(
            t,
            &prog,
            scan,
            &[slice, scale.lines_per_tile, results + 8 * t as u64],
        )
        .unwrap();
    }
    sys.run().expect("scan kernel deadlocked");
    (0..scale.tiles).fold(0u64, |a, t| {
        a.wrapping_add(sys.read_u64(results + 8 * t as u64))
    })
}

fn run_chase(sys: &mut System, scale: &MicroScale) -> u64 {
    let next = chase_cycle(scale);
    let base = sys.alloc_raw(64 * scale.chase_nodes, 64);
    for (i, &nx) in next.iter().enumerate() {
        sys.write_u64(base + 64 * i as u64, base + 64 * nx as u64);
    }
    let (prog, chase) = chase_program();
    let result = sys.alloc_raw(8, 64);
    sys.spawn_thread(0, &prog, chase, &[base, scale.chase_hops, result])
        .unwrap();
    sys.run().expect("chase kernel deadlocked");
    (sys.read_u64(result) - base) / 64
}

fn run_invoke_add(sys: &mut System, scale: &MicroScale) -> u64 {
    let counters = sys.alloc_raw(64 * scale.counters, 64);
    let (prog, rmw_task, driver) = invoke_programs();
    let action = sys.register_action(&prog, rmw_task);
    assert_eq!(action, ActionId(0));
    for t in 0..scale.tiles {
        sys.spawn_thread(
            t,
            &prog,
            driver,
            &[
                counters,
                scale.invokes_per_tile,
                t as u64 * 13,
                scale.counters,
            ],
        )
        .unwrap();
    }
    sys.run().expect("invoke-add kernel deadlocked");
    (0..scale.counters).fold(0u64, |a, c| a.wrapping_add(sys.read_u64(counters + 64 * c)))
}

/// Registry entry for the substrate microkernels (see [`crate::harness`]).
pub struct MicroWorkload;

impl Workload for MicroWorkload {
    type Variant = MicroVariant;
    type Scale = MicroScale;
    type Input = ();

    fn name(&self) -> &'static str {
        "micro"
    }

    fn variants(&self) -> Vec<(&'static str, MicroVariant)> {
        MicroVariant::all()
            .iter()
            .map(|&v| (v.label(), v))
            .collect()
    }

    fn scale(&self, kind: ScaleKind) -> MicroScale {
        match kind {
            ScaleKind::Paper => MicroScale::paper(),
            ScaleKind::Test | ScaleKind::Quick => MicroScale::test(),
        }
    }

    fn build_input(&self, _scale: &MicroScale) {}

    fn describe(&self, scale: &MicroScale) -> String {
        format!(
            "{} scan lines/tile, {}-node chase x {} hops, {} invokes/tile, {} tiles",
            scale.lines_per_tile,
            scale.chase_nodes,
            scale.chase_hops,
            scale.invokes_per_tile,
            scale.tiles
        )
    }

    fn run(
        &self,
        variant: MicroVariant,
        scale: &MicroScale,
        _input: &(),
        env: &RunEnv,
    ) -> RunStatus {
        let r = run_micro_with(variant, scale, |cfg| env.customize(cfg));
        RunStatus::Done(Box::new(RunOutcome::new(r.metrics, r.checksum)))
    }

    fn golden(&self, variant: MicroVariant, scale: &MicroScale, _input: &()) -> u64 {
        golden_checksum(variant, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_match_their_golden_models() {
        let scale = MicroScale::test();
        for v in MicroVariant::all() {
            let r = run_micro(v, &scale);
            assert_eq!(
                r.checksum,
                golden_checksum(v, &scale),
                "{} diverged",
                v.label()
            );
            assert!(r.metrics.cycles > 0);
        }
    }

    #[test]
    fn chase_cycle_visits_every_node() {
        let scale = MicroScale::test();
        let next = chase_cycle(&scale);
        let mut cur = 0u32;
        let mut seen = vec![false; next.len()];
        for _ in 0..next.len() {
            assert!(!seen[cur as usize], "cycle revisited {cur} early");
            seen[cur as usize] = true;
            cur = next[cur as usize];
        }
        assert_eq!(cur, 0, "permutation must close into one cycle");
        assert!(seen.iter().all(|&s| s));
    }
}
