//! `levi-benchmark diff A.json B.json`: compares two set results.
//!
//! For each workload and end-to-end metric it prints both medians with
//! their quartiles, the ratio B/A with its base, and a verdict under the
//! metric's bound. Pins (digests, checksums, exact counts) must match
//! exactly; any difference is a behaviour change and is listed by name.

use crate::catalogue::catalogue;
use crate::json::{parse, Json};
use crate::summary::{verdict, Summary, Verdict};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn fmt(s: &Summary) -> String {
    format!(
        "{:.6} [{:.6}, {:.6}] n={}",
        s.median,
        s.q1,
        s.q3,
        s.samples.len()
    )
}

pub fn main(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("diff takes two set results: diff A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut counts = [0usize; 4];
    let mut failing = false;
    println!(
        "{:<16} {:<18} {:<44} {:<44} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
    );
    for name in &catalogue().workloads {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            println!("{name:<16} missing from one of the results");
            failing = true;
            continue;
        };
        for m in &catalogue().end_to_end {
            let summary = |w: &Json| {
                w.get("e2e")
                    .and_then(|e| e.get(&m.name))
                    .ok_or_else(|| format!("{name}: no {} in a result", m.name))
                    .and_then(Summary::from_json)
            };
            let (sa, sb) = (summary(wa)?, summary(wb)?);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(&sa, &sb, m.better, bound);
            counts[v as usize] += 1;
            failing |= v == Verdict::Worse;
            println!(
                "{name:<16} {:<18} {:<44} {:<44} {:>8.4} {:>5.0}%  {}",
                m.name,
                fmt(&sa),
                fmt(&sb),
                sb.median / sa.median,
                bound * 100.0,
                v.name()
            );
        }
        let rate = |w: &Json| w.get("error_rate").and_then(Json::as_num).unwrap_or(1.0);
        let (ra, rb) = (rate(wa), rate(wb));
        println!(
            "{name:<16} {:<18} {ra:<44} {rb:<44} {:>8} {:>6}  {}",
            "error_rate",
            "",
            "0",
            if rb > ra { "worse" } else { "same" }
        );
        failing |= rb > 0.0;
        for section in ["digests", "checksums", "exact"] {
            let pins = |w: &'_ Json| -> Vec<(String, Json)> {
                w.get("pins")
                    .and_then(|p| p.get(section))
                    .map(Json::members)
                    .unwrap_or_default()
                    .to_vec()
            };
            let (pa, pb) = (pins(wa), pins(wb));
            for (key, va) in &pa {
                let vb = pb.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if vb != Some(va) {
                    failing = true;
                    println!(
                        "{name:<16} {section} {key} differs: {} vs {} (a behaviour change, not noise)",
                        va.render(),
                        vb.map_or("nothing".into(), Json::render)
                    );
                }
            }
        }
    }
    println!(
        "better {} / worse {} / same {} / unresolved {}",
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(if failing { 1 } else { 0 })
}
