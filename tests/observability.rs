//! Observability layer: structured tracing, latency histograms, and
//! time-series sampling on a multi-tile run that mixes task offload and
//! streaming.
//!
//! Checks the properties the tooling relies on:
//! * the Chrome/Perfetto trace JSON is well-formed and carries the
//!   invoke-lifecycle and stream events on per-tile tracks,
//! * instrumentation is purely observational — every counter outside the
//!   tracer's and span table's own is identical with tracing on and off,
//!   at seeded configs,
//! * two identical runs produce byte-identical traces, histogram buckets,
//!   and time-series samples.

use std::sync::Arc;

use levi_isa::{ActionId, Location, MemWidth, ProgramBuilder, Reg, RmwOp};
use levi_sim::Telemetry;
use levi_workloads::harness::FaultSpec;
use levi_workloads::SmallRng;
use leviathan::{StreamSpec, System, SystemConfig};

/// Builds and runs a 4-tile system: 50 remote invokes on a counter actor
/// plus a 64-entry stream of which the main thread consumes 20.
fn run_mixed(trace: bool, sample_interval: u64) -> System {
    run_mixed_on(SystemConfig::small(), trace, sample_interval)
}

/// [`run_mixed`] on the given configuration.
fn run_mixed_on(mut cfg: SystemConfig, trace: bool, sample_interval: u64) -> System {
    let mut pb = ProgramBuilder::new();

    let add_action = {
        let mut f = pb.function("add_action");
        let (actor, amt, old) = (Reg(0), Reg(1), Reg(2));
        f.rmw_relaxed(RmwOp::Add, old, actor, amt, MemWidth::B8);
        f.halt();
        f.finish()
    };

    let producer = {
        let mut f = pb.function("producer");
        let (handle, n, i) = (Reg(0), Reg(1), Reg(2));
        f.imm(i, 1);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.push(handle, i);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };

    let main_fn = {
        let mut f = pb.function("main");
        // r0=ctx {counter, stream_buffer, cap, out, stream_id}
        let ctx = Reg(0);
        let (counter, sbuf, cap, out, sid) = (Reg(8), Reg(9), Reg(10), Reg(11), Reg(12));
        let (i, n, amt, addr, v, acc) = (Reg(16), Reg(17), Reg(18), Reg(19), Reg(20), Reg(21));
        f.ld8(counter, ctx, 0)
            .ld8(sbuf, ctx, 8)
            .ld8(cap, ctx, 16)
            .ld8(out, ctx, 24)
            .ld8(sid, ctx, 32);
        // 50 offloaded increments scattered over 8 line-strided counters,
        // so the invokes fan out across LLC banks (and tiles).
        f.imm(i, 0).imm(n, 50).imm(amt, 1);
        let t1 = f.label();
        let d1 = f.label();
        f.bind(t1);
        f.bge_u(i, n, d1);
        f.andi(addr, i, 7);
        f.muli(addr, addr, 64);
        f.add(addr, addr, counter);
        f.invoke(addr, ActionId(0), &[amt], Location::Remote);
        f.addi(i, i, 1);
        f.jmp(t1);
        f.bind(d1);
        // Consume 20 stream entries.
        f.imm(i, 0).imm(n, 20).imm(acc, 0);
        let t2 = f.label();
        let d2 = f.label();
        let nowrap = f.label();
        f.mov(addr, sbuf);
        f.muli(cap, cap, 8);
        f.add(cap, cap, sbuf);
        f.bind(t2);
        f.bge_u(i, n, d2);
        f.ld8(v, addr, 0);
        f.pop(sid);
        f.add(acc, acc, v);
        f.addi(addr, addr, 8);
        f.blt_u(addr, cap, nowrap);
        f.mov(addr, sbuf);
        f.bind(nowrap);
        f.addi(i, i, 1);
        f.jmp(t2);
        f.bind(d2);
        f.st8(out, 0, acc);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().expect("program validates"));

    if trace {
        cfg.machine = cfg.machine.traced();
    }
    if sample_interval != 0 {
        cfg.machine = cfg.machine.sampled(sample_interval);
    }
    let mut sys = System::try_new(cfg).expect("config is valid");
    let a = sys.register_action(&prog, add_action);
    assert_eq!(a, ActionId(0));

    let counter = sys.alloc_raw(8 * 64, 64);
    let stream = sys
        .create_stream(&StreamSpec::new("nums", 8, 0, &prog, producer).with_args(&[64]))
        .unwrap();
    let out = sys.alloc_raw(8, 64);
    let ctx = sys.alloc_raw(40, 64);
    sys.write_u64(ctx, counter);
    sys.write_u64(ctx + 8, stream.buffer);
    sys.write_u64(ctx + 16, stream.capacity);
    sys.write_u64(ctx + 24, out);
    sys.write_u64(ctx + 32, stream.reg_value());
    sys.spawn_thread(0, &prog, main_fn, &[ctx]).unwrap();
    sys.run().expect("run completes");

    let total: u64 = (0..8).map(|k| sys.read_u64(counter + 64 * k)).sum();
    assert_eq!(total, 50);
    assert_eq!(sys.read_u64(out), (1..=20u64).sum());
    sys
}

#[test]
fn trace_json_is_perfetto_loadable_with_lifecycle_events() {
    let sys = run_mixed(true, 0);
    let json = sys.stats().trace.to_chrome_json();

    // Structurally valid JSON object (hand-rolled writer, so check the
    // balance invariants Perfetto's parser depends on).
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"displayTimeUnit\""));

    // Invoke lifecycle + stream events made it into the buffer.
    for name in [
        "invoke.issue",
        "task.dispatch",
        "task.retire",
        "stream.push",
        "stream.pop",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} events in trace"
        );
    }

    // Per-tile tracks: metadata names at least tile0 (main thread) and the
    // tiles the invokes were scattered across.
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("\"tile0\""));
    assert!(json.contains("\"tile1\""));
    assert!(json.contains("\"engine.llc\"") || json.contains("\"engine.l2\""));
}

#[test]
fn tracing_does_not_perturb_timing() {
    // Every registry counter except the tracer's and the span table's own
    // must match with tracing on and off, at seeded engine-context,
    // invoke-buffer and quantum settings, half of them under a seeded
    // fault plan.
    let untraced_counters = |sys: &System| -> Vec<(&'static str, u64)> {
        Telemetry::new(sys.stats())
            .counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("trace_") && !name.starts_with("spans_"))
            .collect()
    };
    let mut rng = SmallRng::seed_from_u64(0x7ace);
    for round in 0..4 {
        let mut cfg = SystemConfig::small();
        cfg.machine.engine.contexts = 1 + rng.gen_range(0u32..4);
        cfg.machine.core.invoke_buffer = 1 + rng.gen_range(0u32..8);
        cfg.machine.quantum = [16, 64, 256][rng.gen_range(0usize..3)];
        if round % 2 == 1 {
            let spec = FaultSpec {
                seed: rng.next_u64(),
                horizon: 1_000,
            };
            let plan = spec.plan_for(&cfg);
            cfg = cfg.with_fault_plan(plan);
        }
        let traced = run_mixed_on(cfg.clone(), true, 0);
        let plain = run_mixed_on(cfg.clone(), false, 0);
        if round % 2 == 1 {
            assert!(plain.stats().fault_degraded_cycles > 0, "the plan bites");
        }
        assert_eq!(
            untraced_counters(&traced),
            untraced_counters(&plain),
            "{cfg:?}"
        );
        assert!(plain.stats().trace.is_empty(), "tracing is opt-in");
        assert!(plain.stats().spans.is_empty());
        assert!(!traced.stats().trace.is_empty());
        let s = traced.stats();
        assert_eq!(s.spans.len() as u64, s.invokes + s.fault_fallbacks);
    }
}

#[test]
fn histograms_capture_invoke_rtt_and_stream_stall() {
    let sys = run_mixed(false, 0);
    let s = sys.stats();
    assert_eq!(s.invoke_rtt.count(), 50, "one RTT sample per ACKed invoke");
    assert!(s.invoke_rtt.p50() <= s.invoke_rtt.p90());
    assert!(s.invoke_rtt.p90() <= s.invoke_rtt.p99());
    assert!(s.invoke_rtt.p99() <= s.invoke_rtt.max());
    assert!(s.invoke_rtt.max() > 0, "cross-tile invokes take > 0 cycles");
    assert!(
        s.load_to_use.count() > 0,
        "loads record load-to-use latency"
    );
    // Histograms render as rows of the human-readable stats dump.
    let dump = format!("{s}");
    let rtt = s.invoke_rtt.to_string();
    assert!(
        dump.lines()
            .any(|l| l.starts_with("invoke_rtt ") && l.ends_with(&rtt)),
        "{dump}"
    );
}

#[test]
fn time_series_sampler_records_interval_deltas() {
    let sys = run_mixed(false, 128);
    let s = sys.stats();
    let samples = s.timeline.samples();
    assert!(
        samples.len() >= 2,
        "expected multiple samples, got {}",
        samples.len()
    );
    let mut prev = 0;
    let mut instrs: u64 = 0;
    for smp in samples {
        assert!(smp.cycle > prev, "sample cycles strictly increase");
        prev = smp.cycle;
        assert!(smp.ipc >= 0.0);
        assert!(smp.l1_miss_ratio >= 0.0 && smp.l1_miss_ratio <= 1.0);
        instrs += smp.core_instrs;
    }
    // Interval deltas sum to (at most) the cumulative total — the tail
    // after the last sample boundary is not sampled.
    assert!(instrs <= s.core_instrs);
    assert!(instrs > 0, "the run executed instructions while sampling");
}

#[test]
fn identical_runs_are_byte_identical() {
    let a = run_mixed(true, 64);
    let b = run_mixed(true, 64);
    assert_eq!(
        a.stats().trace.to_chrome_json(),
        b.stats().trace.to_chrome_json(),
        "trace JSON must be byte-identical across identical runs"
    );
    assert_eq!(a.stats().invoke_rtt, b.stats().invoke_rtt);
    assert_eq!(a.stats().load_to_use, b.stats().load_to_use);
    assert_eq!(a.stats().dram_queue, b.stats().dram_queue);
    assert_eq!(a.stats().stream_stall, b.stats().stream_stall);
    assert_eq!(a.stats().timeline.samples(), b.stats().timeline.samples());
}
