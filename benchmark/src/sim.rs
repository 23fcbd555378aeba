//! The in-process simulator workloads, driven through the public
//! `Workload` API of `levi-workloads`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use levi_sim::{PhaseProfile, Telemetry};
use levi_workloads::decompress::{DecompressScale, DecompressWorkload};
use levi_workloads::hashtable::{HashtableWorkload, HtScale};
use levi_workloads::phi::{PhiScale, PhiWorkload};
use levi_workloads::{RunEnv, RunStatus, ScaleKind, Workload};

use crate::report::RunReport;
use crate::run::{Bench, Rep, Setup, Spans};

/// A scale whose input seed the benchmark sets from `--seed`.
trait Seeded {
    fn seed_mut(&mut self) -> &mut u64;
}

impl Seeded for PhiScale {
    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }
}

impl Seeded for HtScale {
    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }
}

impl Seeded for DecompressScale {
    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }
}

/// One seeded scale of a workload and the variants the benchmark runs,
/// with the input once built. Variants are addressed by their index in
/// the benchmark's list.
trait Case {
    fn clear_input(&mut self);
    fn build_input(&mut self);
    fn golden(&self, i: usize) -> u64;
    fn run(&self, i: usize) -> RunStatus;
}

struct Typed<W: Workload + 'static> {
    workload: &'static W,
    variants: Vec<W::Variant>,
    scale: W::Scale,
    input: Option<W::Input>,
}

impl<W: Workload> Typed<W> {
    fn input(&self) -> &W::Input {
        self.input
            .as_ref()
            .expect("set-up builds the input before any run")
    }
}

impl<W: Workload> Case for Typed<W> {
    fn clear_input(&mut self) {
        self.input = None;
    }

    fn build_input(&mut self) {
        self.input = Some(self.workload.build_input(&self.scale));
    }

    fn golden(&self, i: usize) -> u64 {
        self.workload
            .golden(self.variants[i], &self.scale, self.input())
    }

    fn run(&self, i: usize) -> RunStatus {
        self.workload.run(
            self.variants[i],
            &self.scale,
            self.input(),
            &RunEnv::default(),
        )
    }
}

fn typed<W>(
    workload: &'static W,
    labels: &'static [&'static str],
    kind: ScaleKind,
    seed: Option<u64>,
) -> Result<(Box<dyn Case>, u64), String>
where
    W: Workload + 'static,
    W::Scale: Seeded,
{
    let all = workload.variants();
    let variants = labels
        .iter()
        .map(|l| {
            all.iter()
                .find(|(label, _)| label == l)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{} has no variant {l:?}", workload.name()))
        })
        .collect::<Result<_, _>>()?;
    let mut scale = workload.scale(kind);
    if let Some(s) = seed {
        *scale.seed_mut() = s;
    }
    let seed = *scale.seed_mut();
    let case = Typed {
        workload,
        variants,
        scale,
        input: None,
    };
    Ok((Box::new(case), seed))
}

/// A simulator workload: its case, the golden checksum of each variant,
/// and the `Stats::digest` each variant produced on its first rep.
pub struct Sim {
    case: Box<dyn Case>,
    labels: &'static [&'static str],
    golden: Vec<u64>,
    digests: Vec<Option<u64>>,
}

impl Sim {
    /// The workload called `name`, at `kind` scale, with its input seed
    /// replaced by `seed` when given. Also returns the seed in effect.
    pub fn open(name: &str, kind: ScaleKind, seed: Option<u64>) -> Result<(Sim, u64), String> {
        let labels: &'static [&'static str] = match name {
            "phi-ndc" => &["Leviathan"],
            "hashtable-probe" => &["Baseline", "Leviathan"],
            "decompress-exec" => &["Baseline", "Offload (OL)", "Leviathan", "Ideal"],
            _ => return Err(format!("{name} is not a simulator workload")),
        };
        let (case, seed) = match name {
            "phi-ndc" => typed(&PhiWorkload, labels, kind, seed)?,
            "hashtable-probe" => typed(&HashtableWorkload, labels, kind, seed)?,
            _ => typed(&DecompressWorkload, labels, kind, seed)?,
        };
        let sim = Sim {
            case,
            labels,
            golden: Vec::new(),
            digests: vec![None; labels.len()],
        };
        Ok((sim, seed))
    }
}

impl Bench for Sim {
    fn setup(&mut self, spans: &mut Spans, parent: u64) -> Result<Setup, String> {
        self.case.clear_input();
        let span = spans.open(parent, "build_input");
        self.case.build_input();
        let input_s = spans.close(span);
        let span = spans.open(parent, "golden");
        self.golden = (0..self.labels.len())
            .map(|i| self.case.golden(i))
            .collect();
        let check_s = spans.close(span);
        Ok(Setup { input_s, check_s })
    }

    fn rep(&mut self, spans: &mut Spans, parent: u64, rep: &mut Rep) {
        for (i, label) in self.labels.iter().enumerate() {
            rep.attempted += 1;
            // Drop phase time earlier host work left on this thread, so
            // the run's attribution is its own.
            let _ = levi_sim::perf::take();
            let span = spans.open(parent, label);
            let status = catch_unwind(AssertUnwindSafe(|| self.case.run(i)));
            let host_s = spans.close(span);
            rep.host_s += host_s;
            // The simulator runs on this thread alone.
            rep.cpu_s += host_s;
            let outcome = match status {
                Err(_) => {
                    rep.errors.push(format!("{label}: panicked"));
                    continue;
                }
                Ok(RunStatus::Unsupported(why)) => {
                    rep.errors.push(format!("{label}: unsupported ({why})"));
                    continue;
                }
                Ok(RunStatus::Done(outcome)) => outcome,
            };
            let stats = &outcome.metrics.stats;
            // Teardown after the last `Machine::run` is still this run's.
            let mut profile: PhaseProfile = stats.host_phases.clone();
            profile.merge(&levi_sim::perf::take());
            spans.attr(span, "phases_ns", crate::run::phases_json(&profile.ns));
            if outcome.checksum != self.golden[i] {
                rep.errors.push(format!(
                    "{label}: checksum {:#x} differs from the golden {:#x}",
                    outcome.checksum, self.golden[i]
                ));
            }
            let digest = stats.digest();
            match self.digests[i] {
                None => self.digests[i] = Some(digest),
                Some(d) if d != digest => rep
                    .errors
                    .push(format!("{label}: Stats::digest changed between reps")),
                Some(_) => {}
            }
            rep.cycles += stats.cycles;
            rep.tally.add_run(Telemetry::new(stats).counters());
            for (i, (ns, calls)) in profile.ns.iter().zip(profile.calls).enumerate() {
                rep.phase_ns[i] += ns;
                rep.tally.calls[i] += calls;
            }
        }
    }

    fn finish(&mut self, report: &mut RunReport) {
        for (i, label) in self.labels.iter().enumerate() {
            if let Some(d) = self.digests[i] {
                report.digests.push((label.to_string(), d));
            }
            report.checksums.push((label.to_string(), self.golden[i]));
        }
        report.peak_rss_mb = crate::os::self_peak_rss_mb();
    }
}
