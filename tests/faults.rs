//! Fault-injection integration tests: determinism, byte-identity of the
//! zero-fault path, graceful degradation under each fault class, the
//! watchdog, and the Fig. 22 invoke-buffer backpressure path.

use std::sync::Arc;

use levi_isa::{ActionId, Location, MemWidth, ProgramBuilder, Reg, RmwOp};
use levi_sim::{CycleWindow, EngineId, EngineLevel, FaultPlan, LinkFaultKind, RunError, Stats};
use levi_workloads::phi::{golden_checksum, phi_graph, run_phi_on, PhiScale, PhiVariant};
use levi_workloads::SmallRng;
use leviathan::{System, SystemConfig};

/// The quickstart RMO workload: `threads` cores each push `per_thread`
/// remote atomic adds onto 64 shared counters. Returns the finished
/// system; the counter sum must equal `threads * per_thread`.
fn run_counters(cfg: SystemConfig, per_thread: u64) -> System {
    let mut pb = ProgramBuilder::new();
    let action = {
        let mut f = pb.function("counter_add");
        let (actor, amount, old) = (Reg(0), Reg(1), Reg(2));
        f.rmw_relaxed(RmwOp::Add, old, actor, amount, MemWidth::B8);
        f.halt();
        f.finish()
    };
    let main_fn = {
        let mut f = pb.function("main");
        let (counters, n, stride) = (Reg(0), Reg(1), Reg(2));
        let (i, idx, actor, amount) = (Reg(8), Reg(9), Reg(10), Reg(11));
        f.imm(i, 0).imm(amount, 1);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.muli(idx, i, 7);
        f.remu(idx, idx, stride);
        f.muli(actor, idx, 8);
        f.add(actor, actor, counters);
        f.invoke(actor, ActionId(0), &[amount], Location::Remote);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());
    let mut sys = System::try_new(cfg).expect("config is valid");
    let counters = sys.alloc_raw(8 * 64, 64);
    sys.register_action(&prog, action);
    for t in 0..sys.tiles() {
        sys.spawn_thread(t, &prog, main_fn, &[counters, per_thread, 64])
            .unwrap();
    }
    sys.run().expect("counter workload must complete");
    let total: u64 = (0..64).map(|i| sys.read_u64(counters + 8 * i)).sum();
    assert_eq!(total, per_thread * sys.tiles() as u64, "updates lost");
    sys
}

/// A seeded plan covering all four fault classes at the counter
/// workload's scale.
fn demo_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .gen_engine_outages(4, 4, 10_000, 1_000, 5_000)
        .gen_invoke_squeezes(2, 1, 10_000, 1_000, 4_000)
        .gen_link_slowdowns(3, 4, 8, 10_000, 1_000, 5_000)
        .gen_link_outages(1, 4, 10_000, 500, 2_000)
        .gen_dram_throttles(2, 4, 4, 10_000, 1_000, 5_000)
        .retry_budget(3)
        .backoff(16, 256)
}

/// Stats snapshot used for byte-identity comparison: the full Display
/// rendering plus the trace serialization.
fn snapshot(s: &Stats) -> (String, String) {
    (s.to_string(), s.trace.to_chrome_json())
}

#[test]
fn same_seed_and_plan_give_identical_runs() {
    let mk = || {
        let mut cfg = SystemConfig::small().with_fault_plan(demo_plan(3));
        cfg.machine.trace = true;
        run_counters(cfg, 300)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.stats().cycles, b.stats().cycles);
    assert_eq!(snapshot(a.stats()), snapshot(b.stats()));
    // The plan actually perturbed the run (faults were live, not a no-op).
    assert!(a.stats().fault_degraded_cycles > 0 || a.stats().fault_nack_retries > 0);
}

#[test]
fn zero_fault_plan_is_byte_identical_to_no_plan() {
    let clean = run_counters(SystemConfig::small(), 200);
    // An empty plan (whatever its seed) must not perturb anything: every
    // fault hook early-exits, no stats line changes, no trace event lands.
    let empty = FaultPlan::new(99).retry_budget(7).backoff(32, 512);
    assert!(empty.is_zero());
    let planned = run_counters(SystemConfig::small().with_fault_plan(empty), 200);
    assert_eq!(clean.stats().cycles, planned.stats().cycles);
    assert_eq!(snapshot(clean.stats()), snapshot(planned.stats()));
}

#[test]
fn engine_outages_degrade_gracefully() {
    // Refuse every engine for the whole run: each invoke burns its retry
    // budget, then falls back to the issuing core. The answer must still
    // be exact.
    let mut plan = FaultPlan::new(1).retry_budget(2).backoff(8, 64);
    for tile in 0..4 {
        for level in [EngineLevel::L2, EngineLevel::Llc] {
            plan = plan.add_engine_fault(EngineId { tile, level }, CycleWindow::new(0, u64::MAX));
        }
    }
    let sys = run_counters(SystemConfig::small().with_fault_plan(plan), 50);
    let s = sys.stats();
    assert_eq!(s.invokes, 0, "no invoke may land on a refusing engine");
    assert_eq!(s.fault_fallbacks, 4 * 50, "every invoke fell back");
    assert_eq!(s.fault_nack_retries, 2 * 4 * 50, "full budget per invoke");
    assert!(s.invoke_nacks >= s.fault_nack_retries);
    assert!(!s.fault_backoff.is_empty());
}

#[test]
fn link_outage_shows_up_as_degraded_cycles() {
    let clean = run_counters(SystemConfig::small(), 100);
    // Slow every link so any remote traffic pays the penalty.
    let mut plan = FaultPlan::new(2);
    for node in 0..4 {
        for dir in 0..4 {
            plan = plan.add_link_fault(
                node,
                dir,
                CycleWindow::new(0, u64::MAX),
                LinkFaultKind::Slowdown { extra: 6 },
            );
        }
    }
    let slow = run_counters(SystemConfig::small().with_fault_plan(plan), 100);
    assert!(slow.stats().fault_degraded_cycles > 0);
    assert!(
        slow.stats().cycles > clean.stats().cycles,
        "degraded mesh must cost wall-clock: {} vs {}",
        slow.stats().cycles,
        clean.stats().cycles
    );
}

#[test]
fn dram_throttle_slows_cold_misses() {
    let clean = run_counters(SystemConfig::small(), 100);
    let mut plan = FaultPlan::new(4);
    for mc in 0..4 {
        plan = plan.add_dram_fault(mc, CycleWindow::new(0, u64::MAX), 8);
    }
    let slow = run_counters(SystemConfig::small().with_fault_plan(plan), 100);
    assert!(
        slow.stats().fault_degraded_cycles > 0,
        "cold misses throttled"
    );
    // The throttled misses overlap with offloaded work, so the end-to-end
    // time may absorb them — but it can never improve.
    assert!(slow.stats().cycles >= clean.stats().cycles);
}

#[test]
fn watchdog_converts_runaway_into_error() {
    let mut pb = ProgramBuilder::new();
    let main_fn = {
        let mut f = pb.function("spin");
        let top = f.label();
        f.bind(top);
        f.jmp(top); // never halts
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());
    let mut sys =
        System::try_new(SystemConfig::small().with_watchdog(20_000)).expect("config is valid");
    sys.spawn_thread(0, &prog, main_fn, &[]).unwrap();
    match sys.run() {
        Err(RunError::Watchdog { limit, at }) => {
            assert_eq!(limit, 20_000);
            assert!(at > 20_000);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn fig22_invoke_buffer_backpressure_nacks_and_drains() {
    // The Fig. 22 path: a single-context engine NACKs bursts of invokes
    // (the cores' ACK queues park and drain at the buffer boundary), and
    // a 1-entry invoke buffer serializes issue without losing updates.
    let mut nacked = SystemConfig::small();
    nacked.machine.engine.contexts = 1;
    nacked.machine.core.invoke_buffer = 16;
    let sys = run_counters(nacked, 150);
    assert!(
        sys.stats().invoke_nacks > 0,
        "a 1-context engine under 4-core fire must NACK"
    );
    assert_eq!(sys.stats().invokes, 4 * 150);

    let mut tight = SystemConfig::small();
    tight.machine.core.invoke_buffer = 1;
    let sys = run_counters(tight, 150);
    assert_eq!(
        sys.stats().invokes,
        4 * 150,
        "1-entry ACK queue drains at the boundary without losing invokes"
    );
}

#[test]
fn fig22_phi_leviathan_survives_tiny_invoke_buffer() {
    // The actual Fig. 22 sweep workload at its smallest point: PHI's
    // Leviathan variant with a 1-entry invoke buffer must still compute
    // golden ranks (backpressure only stalls, never drops).
    let mut scale = PhiScale::test();
    scale.invoke_buffer = 1;
    let graph = phi_graph(&scale);
    let r = run_phi_on(PhiVariant::Leviathan, &scale, &graph);
    assert_eq!(r.rank_checksum, golden_checksum(&graph));
    assert_eq!(r.leftover_deltas, 0);
}

#[test]
fn backoff_retry_waits_out_its_delay() {
    // Every engine refuses for [0, 400), and the first backoff is 512
    // cycles, so every first retry lands after the outage: no invoke may
    // exhaust its budget and fall back to the core.
    let mut plan = FaultPlan::new(1).retry_budget(3).backoff(512, 1024);
    for tile in 0..4 {
        for level in [EngineLevel::L2, EngineLevel::Llc] {
            plan = plan.add_engine_fault(EngineId { tile, level }, CycleWindow::new(0, 400));
        }
    }
    let sys = run_counters(SystemConfig::small().with_fault_plan(plan), 50);
    let s = sys.stats();
    assert_eq!(s.fault_fallbacks, 0, "a retry issued inside the outage");
    assert_eq!(s.invokes, 4 * 50);
    assert!(s.fault_nack_retries > 0, "the outage refused some invokes");
    assert!(
        s.cycles >= 512,
        "the backoff delay is simulated: {} cycles",
        s.cycles
    );
}

#[test]
fn invoke_squeeze_stall_is_charged_once() {
    // A 1-entry squeeze for the whole run: each stall is a core waiting
    // for its one outstanding ACK, so the charged cycles cannot exceed the
    // run's length on every core.
    let plan = FaultPlan::new(1).add_invoke_squeeze(CycleWindow::new(0, u64::MAX), 1);
    let sys = run_counters(SystemConfig::small().with_fault_plan(plan), 200);
    let s = sys.stats();
    assert!(s.fault_degraded_cycles > 0, "the squeeze stalled the cores");
    assert!(
        s.fault_degraded_cycles <= s.cycles * sys.tiles() as u64,
        "{} degraded cycles in a {}-cycle run on {} tiles",
        s.fault_degraded_cycles,
        s.cycles,
        sys.tiles()
    );
}

#[test]
fn backpressure_runs_match_pinned_digests() {
    // Fault-free runs whose cores sleep on a full invoke buffer: alone, in
    // groups of sleepers sharing a wake cycle, and next to other actors due
    // at that cycle. The scheduler replays their retries in closed form;
    // these `(cycles, Stats::digest)` pins were recorded with one dispatch
    // per retry and must not move.
    let scale = PhiScale::test();
    let graph = phi_graph(&scale);
    for (entries, want) in [
        (1, (403_978, 0x1af9_64c0_1cb9_8576)),
        (2, (364_678, 0xf670_666a_ae9c_313d)),
        (4, (329_176, 0x6ef2_d1ef_a6cc_31ef)),
        (16, (302_857, 0xcf2b_026b_da65_e3a9)),
    ] {
        let mut scale = scale.clone();
        scale.invoke_buffer = entries;
        let r = run_phi_on(PhiVariant::Leviathan, &scale, &graph);
        let got = (r.metrics.cycles, r.metrics.stats.digest());
        assert_eq!(got, want, "PHI Leviathan, {entries}-entry invoke buffer");
    }
    for (tiles, want) in [
        (4, (5_638, 0x100d_58f5_0068_3c81)),
        (16, (5_759, 0xdf70_79fd_30a5_58e6)),
    ] {
        let sys = run_counters(SystemConfig::with_tiles(tiles), 200);
        let got = (sys.stats().cycles, sys.stats().digest());
        assert_eq!(got, want, "counters on {tiles} tiles");
    }
}

/// A plan whose one window opens at the end of time: it never fires, but a
/// non-empty plan keeps the scheduler on its one-dispatch-per-retry path,
/// the reference for the closed-form replay of backpressure retries.
fn inert_plan() -> FaultPlan {
    let engine = EngineId {
        tile: 0,
        level: EngineLevel::L2,
    };
    FaultPlan::new(0).add_engine_fault(engine, CycleWindow::new(u64::MAX - 1, u64::MAX))
}

/// `(cycles, Stats::digest)` without the plan's own window count.
fn outcome(s: &Stats) -> (u64, u64) {
    let mut s = s.clone();
    s.faults_injected = 0;
    (s.cycles, s.digest())
}

#[test]
fn retry_replay_matches_per_retry_dispatch_at_sampled_configs() {
    let mut rng = SmallRng::seed_from_u64(14);
    for _ in 0..12 {
        let tiles = [2, 4, 8, 16][rng.gen_range(0usize..4)];
        let mut cfg = SystemConfig::with_tiles(tiles);
        cfg.machine.core.invoke_buffer = rng.gen_range(1u32..9);
        cfg.machine.core.issue_width = rng.gen_range(1u32..5);
        let per_thread = rng.gen_range(20u64..150);
        let replayed = run_counters(cfg.clone(), per_thread);
        let stepped = run_counters(cfg.clone().with_fault_plan(inert_plan()), per_thread);
        assert_eq!(
            outcome(replayed.stats()),
            outcome(stepped.stats()),
            "{tiles} tiles, {per_thread}/thread, {:?}",
            cfg.machine.core
        );
    }
}
