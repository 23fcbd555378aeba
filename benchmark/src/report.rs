//! What one workload process measured, and every metric derived from it.
//!
//! A [`RunReport`] is written by each `levi-benchmark run` process. The
//! driver-facing result line, the set results, and the pins are all
//! computed from reports by the functions here, so each metric has one
//! definition.

use levi_sim::perf::NUM_PHASES;
use levi_sim::Phase;

use crate::catalogue::{catalogue, Metric};
use crate::json::{hex, obj, parse_hex, Json};
use crate::summary::median;

/// Simulated work of one rep, summed over its simulator runs. Every field
/// but `calls` comes from `Stats` counters, so it is identical in the
/// untraced and traced builds; `calls` counts profiler scope entries and
/// is only filled by the traced build.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Simulator runs, one machine each (for `figures-quick`: runs that
    /// emitted a telemetry block).
    pub machines: u64,
    pub cycles: u64,
    pub instrs: u64,
    /// L1, L2, LLC and engine-L1 lookups.
    pub cache_accesses: u64,
    pub llc_accesses: u64,
    pub llc_misses: u64,
    pub flit_hops: u64,
    pub dram_accesses: u64,
    pub mc_cache_hits: u64,
    pub invokes: u64,
    pub nacks: u64,
    pub calls: [u64; NUM_PHASES],
}

impl Tally {
    /// Adds one run, given its counters by their telemetry names (the
    /// names `levi_sim::Telemetry::counters` and `--telemetry` dumps use).
    pub fn add_run<'a>(&mut self, counters: impl IntoIterator<Item = (&'a str, u64)>) {
        self.machines += 1;
        for (name, v) in counters {
            match name {
                "cycles" => self.cycles += v,
                "core_instrs" | "engine_instrs" => self.instrs += v,
                "l1_hits" | "l1_misses" | "l2_hits" | "l2_misses" | "engine_l1_hits"
                | "engine_l1_misses" => self.cache_accesses += v,
                "llc_hits" | "llc_misses" => {
                    self.cache_accesses += v;
                    self.llc_accesses += v;
                    if name == "llc_misses" {
                        self.llc_misses += v;
                    }
                }
                "noc_flit_hops" => self.flit_hops += v,
                "dram_accesses" => self.dram_accesses += v,
                "mc_cache_hits" => self.mc_cache_hits += v,
                "invokes" => self.invokes += v,
                "invoke_nacks" => self.nacks += v,
                _ => {}
            }
        }
    }

    /// The counts that a change meant only to speed up the simulator must
    /// leave identical, under their per-layer metric names.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("build.machines", self.machines as f64),
            ("sched.cycles", self.cycles as f64),
            ("exec.instrs", self.instrs as f64),
            ("cache.accesses", self.cache_accesses as f64),
            (
                "cache.llc_miss_ratio",
                per(self.llc_misses as f64, self.llc_accesses),
            ),
            ("noc.flit_hops", self.flit_hops as f64),
            ("dram.accesses", self.dram_accesses as f64),
            ("dram.mc_cache_hits", self.mc_cache_hits as f64),
            ("invoke.invokes", self.invokes as f64),
            ("invoke.nacks", self.nacks as f64),
        ]
    }

    fn calls(&self, p: Phase) -> u64 {
        self.calls[p as usize]
    }
}

/// `num / den`, or 0 when the layer saw no events.
fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Everything one `levi-benchmark run` process measured.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub workload: String,
    /// The input seed (`None` for `figures-quick`, whose figures pin
    /// their own seeds).
    pub seed: Option<u64>,
    pub scale: String,
    pub traced: bool,
    /// Operations run (simulator runs or figure processes), warm-ups
    /// included.
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub errors: Vec<String>,
    /// Per set-up: `build_input` + `golden` seconds, and its two parts.
    pub setup_s: Vec<f64>,
    pub build_input_s: Vec<f64>,
    pub golden_s: Vec<f64>,
    /// Per timed rep: seconds inside the workload's calls, simulated
    /// kilocycles per such second, and the rep's whole wall time.
    pub host_s: Vec<f64>,
    pub kcycles_per_s: Vec<f64>,
    pub rep_s: Vec<f64>,
    /// Per timed rep: CPU seconds of the workload's calls on all threads.
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// One rep's simulated work (every rep's is identical).
    pub tally: Tally,
    /// Mean host nanoseconds per timed rep in each simulator phase
    /// (traced build only).
    pub phase_ns: [f64; NUM_PHASES],
    /// Per variant (or `stdout` for `figures-quick`): `Stats::digest` and
    /// the golden checksum the run reproduced.
    pub digests: Vec<(String, u64)>,
    pub checksums: Vec<(String, u64)>,
    /// Traced `figures-quick`: seconds per figure process.
    pub figure_s: Vec<(String, f64)>,
    /// Traced runs: median `host_s` of the untraced reference run.
    pub untraced_host_s: Option<f64>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// A fold of every digest: one number that moves with any simulated
    /// statistic (or, for `figures-quick`, any printed figure line). Kept
    /// to 53 bits so it survives JSON's doubles.
    pub fn model_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (label, d) in &self.digests {
            bytes.extend_from_slice(label.as_bytes());
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        levi_sim::fnv1a(&bytes) & ((1 << 53) - 1)
    }

    pub fn to_json(&self) -> Json {
        let pairs = |v: &[(String, u64)]| obj(v.iter().map(|(k, d)| (k.clone(), hex(*d))));
        obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", self.seed.map_or(Json::Null, Json::from)),
            ("scale", Json::from(self.scale.as_str())),
            ("traced", Json::from(self.traced)),
            ("attempted", Json::from(self.attempted)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
            ),
            ("setup_s", Json::from(&self.setup_s[..])),
            ("build_input_s", Json::from(&self.build_input_s[..])),
            ("golden_s", Json::from(&self.golden_s[..])),
            ("host_s", Json::from(&self.host_s[..])),
            ("kcycles_per_s", Json::from(&self.kcycles_per_s[..])),
            ("rep_s", Json::from(&self.rep_s[..])),
            ("cpu_s", Json::from(&self.cpu_s[..])),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            ("tally", tally_json(&self.tally)),
            ("phase_ns", Json::from(&self.phase_ns[..])),
            ("digests", pairs(&self.digests)),
            ("checksums", pairs(&self.checksums)),
            (
                "figure_s",
                obj(self
                    .figure_s
                    .iter()
                    .map(|(k, s)| (k.clone(), Json::from(*s)))),
            ),
            (
                "untraced_host_s",
                self.untraced_host_s.map_or(Json::Null, Json::from),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let pairs = |key: &str| -> Result<Vec<(String, u64)>, String> {
            v.get(key)
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .map(|(k, d)| {
                    parse_hex(d)
                        .map(|d| (k.clone(), d))
                        .ok_or_else(|| format!("{key}.{k} is not a hex digest"))
                })
                .collect()
        };
        let nums = |key: &str| v.get(key).map(Json::nums).unwrap_or_default();
        let mut phase_ns = [0.0; NUM_PHASES];
        for (slot, ns) in phase_ns.iter_mut().zip(nums("phase_ns")) {
            *slot = ns;
        }
        Ok(RunReport {
            workload: v.str("workload")?.to_string(),
            seed: v.get("seed").and_then(Json::as_num).map(|s| s as u64),
            scale: v.str("scale")?.to_string(),
            traced: v.get("traced") == Some(&Json::Bool(true)),
            attempted: v.num("attempted")? as u64,
            errors: v
                .get("errors")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            setup_s: nums("setup_s"),
            build_input_s: nums("build_input_s"),
            golden_s: nums("golden_s"),
            host_s: nums("host_s"),
            kcycles_per_s: nums("kcycles_per_s"),
            rep_s: nums("rep_s"),
            cpu_s: nums("cpu_s"),
            peak_rss_mb: v.num("peak_rss_mb")?,
            tally: tally_from_json(v.get("tally").ok_or("missing tally")?)?,
            phase_ns,
            digests: pairs("digests")?,
            checksums: pairs("checksums")?,
            figure_s: v
                .get("figure_s")
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, s)| s.as_num().map(|s| (k.clone(), s)))
                .collect(),
            untraced_host_s: v.get("untraced_host_s").and_then(Json::as_num),
        })
    }
}

fn tally_json(t: &Tally) -> Json {
    let calls: Vec<f64> = t.calls.iter().map(|&c| c as f64).collect();
    obj([
        ("machines", Json::from(t.machines)),
        ("cycles", Json::from(t.cycles)),
        ("instrs", Json::from(t.instrs)),
        ("cache_accesses", Json::from(t.cache_accesses)),
        ("llc_accesses", Json::from(t.llc_accesses)),
        ("llc_misses", Json::from(t.llc_misses)),
        ("flit_hops", Json::from(t.flit_hops)),
        ("dram_accesses", Json::from(t.dram_accesses)),
        ("mc_cache_hits", Json::from(t.mc_cache_hits)),
        ("invokes", Json::from(t.invokes)),
        ("nacks", Json::from(t.nacks)),
        ("calls", Json::from(&calls[..])),
    ])
}

fn tally_from_json(v: &Json) -> Result<Tally, String> {
    let n = |k: &str| v.num(k).map(|x| x as u64);
    let mut calls = [0; NUM_PHASES];
    for (slot, c) in calls
        .iter_mut()
        .zip(v.get("calls").map(Json::nums).unwrap_or_default())
    {
        *slot = c as u64;
    }
    Ok(Tally {
        machines: n("machines")?,
        cycles: n("cycles")?,
        instrs: n("instrs")?,
        cache_accesses: n("cache_accesses")?,
        llc_accesses: n("llc_accesses")?,
        llc_misses: n("llc_misses")?,
        flit_hops: n("flit_hops")?,
        dram_accesses: n("dram_accesses")?,
        mc_cache_hits: n("mc_cache_hits")?,
        invokes: n("invokes")?,
        nacks: n("nacks")?,
        calls,
    })
}

/// The samples behind end-to-end metric `name` in one report: one per
/// timed rep for the rate metrics, one per process for set-up time and
/// memory. `None` if the benchmark does not define `name`.
pub fn e2e_samples(name: &str, r: &RunReport) -> Option<Vec<f64>> {
    Some(match name {
        "host_s" => r.host_s.clone(),
        "sim_kcycles_per_s" => r.kcycles_per_s.clone(),
        "setup_s" => vec![median(&r.setup_s)],
        "peak_rss_mb" => vec![r.peak_rss_mb],
        _ => return None,
    })
}

/// Per-layer metric `name` from a traced report. `None` if the benchmark
/// does not define `name`.
pub fn layer_value(name: &str, r: &RunReport) -> Option<f64> {
    let t = &r.tally;
    if let Some(&(_, v)) = t.exact().iter().find(|(n, _)| *n == name) {
        return Some(v);
    }
    let ns = |p: Phase| r.phase_ns[p as usize];
    // Phase time is summed over threads (figure sweeps run variants in
    // parallel), so it is compared with CPU time, not wall time.
    let mean_cpu_s = r.cpu_s.iter().sum::<f64>() / r.cpu_s.len().max(1) as f64;
    Some(match name {
        "workloads.build_input_s" => median(&r.build_input_s),
        "workloads.golden_s" => median(&r.golden_s),
        "build.host_us_per_machine" => per(ns(Phase::Build) / 1e3, t.machines),
        "sched.host_ns_per_kcycle" => per(ns(Phase::Sched) * 1e3, t.cycles),
        "exec.attempts_per_instr" => per(t.calls(Phase::Exec) as f64, t.instrs),
        "exec.host_ns_per_instr" => per(ns(Phase::Exec), t.instrs),
        "cache.host_ns_per_access" => per(ns(Phase::Cache), t.cache_accesses),
        "noc.host_ns_per_flit_hop" => per(ns(Phase::Noc), t.flit_hops),
        "dram.host_ns_per_access" => per(ns(Phase::Dram), t.dram_accesses),
        "invoke.attempts_per_invoke" => per(t.calls(Phase::Invoke) as f64, t.invokes),
        "invoke.host_ns_per_invoke" => per(ns(Phase::Invoke), t.invokes),
        "flush.calls" => t.calls(Phase::Flush) as f64,
        "flush.host_ns_per_call" => per(ns(Phase::Flush), t.calls(Phase::Flush)),
        "bench.unattributed_share" => {
            1.0 - r.host_s.iter().sum::<f64>() / r.rep_s.iter().sum::<f64>()
        }
        "trace.overhead_ratio" => median(&r.host_s) / r.untraced_host_s?,
        "trace.unattributed_share" => 1.0 - r.phase_ns.iter().sum::<f64>() / 1e9 / mean_cpu_s,
        "model.stats_digest" => r.model_digest() as f64,
        _ => return None,
    })
}

/// Per-layer names of the counts that repeat exactly for a given input:
/// `Stats` counters, and in the traced build the profiler's scope
/// entries. A speed-only change must leave every one identical.
const TRACED_EXACT: [&str; 3] = [
    "exec.attempts_per_instr",
    "invoke.attempts_per_invoke",
    "flush.calls",
];

/// The exact counts of a report, by per-layer metric name.
pub fn exact_values(r: &RunReport) -> Vec<(&'static str, f64)> {
    let mut v = r.tally.exact();
    if r.traced {
        v.extend(
            TRACED_EXACT
                .iter()
                .filter_map(|&n| Some((n, layer_value(n, r)?))),
        );
    }
    v
}

/// The metrics a process reports: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one.
pub fn declared_values(r: &RunReport) -> Result<Vec<(&'static Metric, f64)>, String> {
    let c = catalogue();
    let metrics = if r.traced {
        &c.per_layer
    } else {
        &c.end_to_end
    };
    metrics
        .iter()
        .map(|m| {
            let value = if r.traced {
                layer_value(&m.name, r)
            } else {
                e2e_samples(&m.name, r).map(|s| median(&s))
            };
            value.map(|v| (m, v)).ok_or_else(|| {
                format!("BENCHMARK.json declares {} but no value is defined", m.name)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report(traced: bool) -> RunReport {
        let mut tally = Tally::default();
        tally.add_run([
            ("cycles", 1000),
            ("core_instrs", 300),
            ("engine_instrs", 100),
            ("llc_hits", 30),
            ("llc_misses", 10),
            ("invokes", 5),
        ]);
        tally.calls[Phase::Exec as usize] = 800;
        RunReport {
            workload: "phi-ndc".into(),
            seed: Some(7),
            scale: "test".into(),
            traced,
            attempted: 2,
            setup_s: vec![0.2, 0.1, 0.3],
            build_input_s: vec![0.1],
            golden_s: vec![0.05],
            host_s: vec![1.0, 2.0],
            kcycles_per_s: vec![1.0, 0.5],
            rep_s: vec![1.1, 2.1],
            cpu_s: vec![1.0, 2.0],
            peak_rss_mb: 12.5,
            tally,
            phase_ns: [1e8; NUM_PHASES],
            digests: vec![("Leviathan".into(), 42)],
            checksums: vec![("Leviathan".into(), 7)],
            figure_s: vec![("fig05_phi".into(), 0.5)],
            untraced_host_s: traced.then_some(0.5),
            ..RunReport::default()
        }
    }

    #[test]
    fn every_declared_metric_has_a_definition() {
        for traced in [false, true] {
            let values = declared_values(&sample_report(traced)).expect("all defined");
            let c = catalogue();
            let want = if traced { &c.per_layer } else { &c.end_to_end };
            assert_eq!(values.len(), want.len());
            assert!(values.iter().all(|(_, v)| v.is_finite()));
        }
    }

    #[test]
    fn derived_values_follow_their_definitions() {
        let r = sample_report(true);
        assert_eq!(layer_value("exec.instrs", &r), Some(400.0));
        assert_eq!(layer_value("exec.attempts_per_instr", &r), Some(2.0));
        assert_eq!(layer_value("cache.llc_miss_ratio", &r), Some(0.25));
        assert_eq!(layer_value("sched.host_ns_per_kcycle", &r), Some(1e8));
        assert_eq!(layer_value("trace.overhead_ratio", &r), Some(3.0));
        assert_eq!(
            layer_value("flush.host_ns_per_call", &r),
            Some(0.0),
            "no flushes"
        );
        assert_eq!(layer_value("no.such", &r), None);
        assert_eq!(e2e_samples("setup_s", &r), Some(vec![0.2]));
        assert_eq!(e2e_samples("host_s", &r), Some(vec![1.0, 2.0]));
    }

    #[test]
    fn reports_round_trip_through_json() {
        let r = sample_report(true);
        let back = RunReport::from_json(&crate::json::parse(&r.to_json().render()).unwrap())
            .expect("own output parses");
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.tally, r.tally);
        assert_eq!(back.model_digest(), r.model_digest());
    }
}
