//! Golden validation of the span-linked Chrome/Perfetto export and the
//! telemetry JSON-lines dump.
//!
//! A seeded invoke workload runs with tracing on; both exports are
//! then parsed with the bench harness's strict JSON parser (`levi-bench`
//! rejects duplicate keys and trailing garbage), and the span flow
//! arrows are checked for well-formedness: every multi-event span opens
//! with exactly one `"s"` and closes with exactly one `"f"` (carrying
//! `"bp":"e"`), with one flow step per span-linked event. Each invoke's
//! linked events are recorded once: the issue, the packet's and the ACK's
//! NoC messages, the dispatch and the retire, no two on the same
//! `(ts, track)`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use levi_bench::json::{parse, Json};
use levi_isa::{ActionId, Location, ProgramBuilder, Reg};
use levi_sim::{Machine, MachineConfig, Stats, Telemetry};

const INVOKES: u64 = 64;

/// Runs the standard 64-invoke counter-bump workload with tracing on.
fn run_traced() -> Stats {
    let mut pb = ProgramBuilder::new();
    {
        let mut f = pb.function("bump");
        let (actor, one, old) = (Reg(0), Reg(1), Reg(2));
        f.imm(one, 1);
        f.rmw_relaxed(
            levi_isa::RmwOp::Add,
            old,
            actor,
            one,
            levi_isa::MemWidth::B8,
        );
        f.halt();
        f.finish();
    }
    let main = {
        let mut f = pb.function("main");
        let (actor, i, nn) = (Reg(0), Reg(1), Reg(2));
        f.imm(i, 0).imm(nn, INVOKES);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, nn, out);
        f.invoke(actor, ActionId(0), &[], Location::Remote);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());
    let mut cfg = MachineConfig::with_tiles(4).traced();
    cfg.prefetcher = false;
    let mut m = Machine::try_new(cfg).unwrap();
    let action_fn = prog.func_by_name("bump").unwrap();
    m.hw.ndc
        .actions
        .register(ActionId(0), prog.clone(), action_fn);
    m.spawn_thread(0, prog, main, &[0x4040]).unwrap();
    m.run().unwrap();
    m.stats().clone()
}

#[test]
fn chrome_export_is_wellformed_and_flow_linked() {
    let stats = run_traced();
    assert_eq!(stats.spans.len() as u64, INVOKES, "one span per invoke");
    assert_eq!(stats.spans.dropped(), 0);

    let text = stats.trace.to_chrome_json();
    let doc = parse(&text).expect("chrome export survives the strict parser");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Per flow id: (opens, steps, closes). Per span id: the names of its
    // linked events, in export order, and the (ts, pid, tid) they sit at.
    let mut flow: BTreeMap<u64, (u32, u32, u32)> = BTreeMap::new();
    let mut linked: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut places = BTreeSet::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has a phase");
        assert!(
            e.get("name").and_then(Json::as_str).is_some(),
            "every event has a name"
        );
        match ph {
            "M" => {}
            "s" | "t" | "f" => {
                assert_eq!(e.get("cat").and_then(Json::as_str), Some("span.flow"));
                assert!(e.get("ts").and_then(Json::as_num).is_some());
                let id = e.get("id").and_then(Json::as_num).expect("flow id") as u64;
                let c = flow.entry(id).or_default();
                match ph {
                    "s" => c.0 += 1,
                    "t" => c.1 += 1,
                    _ => {
                        c.2 += 1;
                        assert_eq!(
                            e.get("bp").and_then(Json::as_str),
                            Some("e"),
                            "closing flow events bind to the enclosing slice"
                        );
                    }
                }
            }
            "X" | "i" => {
                let ts = e.get("ts").and_then(Json::as_num).expect("timestamp");
                if let Some(span) = e
                    .get("args")
                    .and_then(|a| a.get("span"))
                    .and_then(Json::as_num)
                {
                    let num = |k| e.get(k).and_then(Json::as_num).expect(k) as u64;
                    let place = (span as u64, ts as u64, num("pid"), num("tid"));
                    assert!(places.insert(place), "two span events at {place:?}");
                    let name = e.get("name").and_then(Json::as_str).unwrap();
                    linked
                        .entry(span as u64)
                        .or_default()
                        .push(name.to_string());
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    assert!(!flow.is_empty(), "a span-traced run must emit flow arrows");
    for (id, (opens, steps, closes)) in &flow {
        assert_eq!(
            (*opens, *closes),
            (1, 1),
            "span {id}: flow must open and close exactly once"
        );
        let total = linked.get(id).map_or(0, |names| names.len() as u32);
        assert!(total >= 2, "span {id}: arrows need at least two events");
        assert_eq!(
            opens + steps + closes,
            total,
            "span {id}: one flow step per span-linked event"
        );
    }
    // Every invoke targets the same remote bank and is ACKed, so each
    // span links zero or more NACKs (the bank's engine runs out of
    // contexts), then exactly these five events, in this order.
    assert_eq!(linked.len() as u64, INVOKES);
    let mut nacked = 0;
    for (id, names) in &linked {
        let nacks = names.iter().take_while(|n| *n == "invoke.nack").count();
        nacked += nacks;
        assert_eq!(
            names[nacks..],
            [
                "invoke.issue",
                "noc.msg",
                "noc.msg",
                "task.dispatch",
                "task.retire"
            ],
            "span {id}"
        );
    }
    assert_eq!(nacked as u64, stats.invoke_nacks);
}

#[test]
fn stats_display_reports_critical_path() {
    let stats = run_traced();
    let text = format!("{stats}");
    assert!(text.contains("invoke spans:"), "{text}");
    assert!(text.contains("span stages:"), "{text}");
    assert!(
        text.contains("offload") && text.contains("response"),
        "{text}"
    );
    assert_eq!(
        text.matches("  slow #").count(),
        levi_sim::TOP_SLOW_INVOKES,
        "top-5 slowest invokes listed: {text}"
    );

    // Off by default: a plain config prints none of this.
    let plain = levi_sim::Stats::new();
    let plain_text = format!("{plain}");
    assert!(!plain_text.contains("invoke spans:"));
    assert!(!plain_text.contains("trace dropped:"));
}

#[test]
fn telemetry_jsonl_parses_line_by_line() {
    let stats = run_traced();
    let dump = Telemetry::new(&stats).to_jsonl("test/chrome_export");
    let mut lines = dump.lines();
    let header = parse(lines.next().expect("nonempty dump")).expect("header parses");
    let meta = header.get("telemetry").expect("header line");
    assert_eq!(meta.get("version").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        meta.get("scope").and_then(Json::as_str),
        Some("test/chrome_export")
    );

    let mut spans_recorded = None;
    let mut slow_invokes = 0;
    for line in lines {
        let doc = parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        if doc.get("metric").and_then(Json::as_str) == Some("spans_recorded") {
            spans_recorded = doc.get("value").and_then(Json::as_num);
        }
        if doc.get("slow_invoke").is_some() {
            slow_invokes += 1;
        }
    }
    assert_eq!(spans_recorded, Some(INVOKES as f64));
    assert_eq!(slow_invokes, levi_sim::TOP_SLOW_INVOKES);
}
