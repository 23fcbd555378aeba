//! The unified experiment harness: one [`Workload`] interface over every
//! case study, an object-safe facade for registry-driven drivers, and the
//! static [`REGISTRY`] those drivers consume.
//!
//! The paper's thesis is that a single substrate unifies the three NDC
//! paradigms; the evaluation apparatus mirrors that by putting every
//! workload behind one trait. A driver (the `levi-bench` runner, the
//! differential tests, future fault matrices) can enumerate variants,
//! build deterministic inputs, run the timed simulation, and validate the
//! result against the synchronous-host golden model without knowing which
//! workload it is driving.
//!
//! Two views of the same workload:
//!
//! * [`Workload`] — the typed interface. Figure descriptors that sweep a
//!   scale knob (invoke-buffer entries, stream capacity, table size, tile
//!   count) use this directly: they construct custom `Scale` values and
//!   still get uniform environment injection and golden checking.
//! * [`DynWorkload`] — the erased facade, implemented for every
//!   `Workload` by a blanket impl. [`DynWorkload::prepare`] snapshots one
//!   scale + input pair behind [`PreparedRun`], which runs variants by
//!   label; this is what [`REGISTRY`]-driven code uses.

use levi_sim::FaultPlan;
use leviathan::SystemConfig;

use crate::metrics::RunMetrics;

/// Which of a workload's built-in scales to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleKind {
    /// The benchmark scale preserving the paper's working-set ratios.
    Paper,
    /// The tiny unit-test scale.
    Test,
    /// Reduced scale for smoke runs (`levi-bench run --quick`); today every
    /// workload maps this to its test scale.
    Quick,
}

/// A machine-shape-independent fault-plan recipe.
///
/// Fault plans validate against a concrete machine (tile and controller
/// counts), which vary across figures and scale sweeps, so the harness
/// carries the *recipe* and generates a concrete [`FaultPlan`] per run
/// from the target configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for the plan's deterministic fault windows.
    pub seed: u64,
    /// Cycle horizon within which fault windows start.
    pub horizon: u64,
}

impl FaultSpec {
    /// A mild default plan: engine outages, invoke-buffer squeezes, and
    /// DRAM throttles (no link outages — those can partition short runs).
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            horizon: 200_000,
        }
    }

    /// Instantiates the plan for a concrete machine shape.
    pub fn plan_for(&self, cfg: &SystemConfig) -> FaultPlan {
        let tiles = cfg.machine.tiles;
        let controllers = cfg.machine.mem.controllers;
        let min = (self.horizon / 16).max(1);
        let max = (self.horizon / 4).max(2);
        FaultPlan::new(self.seed)
            .gen_engine_outages(4, tiles, self.horizon, min, max)
            .gen_invoke_squeezes(2, 1, self.horizon, min, max)
            .gen_dram_throttles(2, controllers, 4, self.horizon, min, max)
            .retry_budget(3)
            .backoff(16, 256)
    }
}

/// Per-run environment applied on top of a workload's own configuration.
///
/// Workload `run_*_with` entry points thread this through their
/// `customize` hook, so every figure — registry-driven or knob-sweeping —
/// honors the same injection switches uniformly.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunEnv {
    /// Inject a seeded fault plan into every run (the results must still
    /// match the golden model; only timing may change).
    pub fault: Option<FaultSpec>,
    /// Record trace events and invoke-lifecycle spans so the driver can
    /// export telemetry after the run. Purely observational: simulated
    /// timing, checksums, and printed tables are identical either way.
    pub telemetry: bool,
    /// Take a snapshot of the full machine state every this many cycles
    /// (0 disables the hook). Purely observational: the scheduler defers
    /// the due event, checkpoints, and replays it, so simulated timing is
    /// unchanged.
    pub checkpoint_every: u64,
    /// After each run, restore the last checkpoint and re-simulate to the
    /// end, failing the run if the replica diverges from the original.
    /// Implies a default `checkpoint_every` of 100 000 cycles when none
    /// is set.
    pub snapshot_verify: bool,
    /// Model address translation (per-tile TLBs + timed page walks).
    /// Timing changes but results must still match the golden model.
    pub xlat: Option<levi_sim::XlatConfig>,
    /// Split the machine into co-running tenants under a sharing policy.
    /// Timing changes but results must still match the golden model.
    pub tenants: Option<levi_sim::TenantConfig>,
}

impl RunEnv {
    /// Applies the environment to a run's system configuration.
    pub fn customize(&self, cfg: &mut SystemConfig) {
        if let Some(spec) = &self.fault {
            let plan = spec.plan_for(cfg);
            // Faulted runs get a watchdog: a fault-handling bug must
            // abort the experiment, not hang it.
            cfg.machine = cfg.machine.clone().faulted(plan).watchdog(10_000_000_000);
        }
        if self.telemetry {
            cfg.machine.trace = true;
        }
        if self.checkpoint_every > 0 {
            cfg.machine.checkpoint_every = self.checkpoint_every;
        }
        if self.snapshot_verify {
            cfg.machine.checkpoint_verify = true;
            if cfg.machine.checkpoint_every == 0 {
                cfg.machine.checkpoint_every = 100_000;
            }
        }
        if let Some(x) = self.xlat {
            cfg.machine.xlat = Some(x);
        }
        if let Some(t) = self.tenants {
            cfg.machine.tenants = Some(t);
        }
    }
}

/// The uniform result of one timed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Measured metrics (cycles, energy, full stats).
    pub metrics: RunMetrics,
    /// The workload's functional checksum, compared against
    /// [`Workload::golden`] by every driver.
    pub checksum: u64,
    /// Workload-specific side channels (e.g. HATS edge counts), for
    /// figure epilogues that need more than the standard metrics.
    pub aux: Vec<(&'static str, u64)>,
}

impl RunOutcome {
    /// Wraps metrics and a checksum with no auxiliary values.
    pub fn new(metrics: RunMetrics, checksum: u64) -> Self {
        RunOutcome {
            metrics,
            checksum,
            aux: Vec::new(),
        }
    }

    /// Attaches one named auxiliary value.
    pub fn with_aux(mut self, name: &'static str, value: u64) -> Self {
        self.aux.push((name, value));
        self
    }

    /// Looks up an auxiliary value by name.
    pub fn aux_value(&self, name: &str) -> Option<u64> {
        self.aux.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Result of asking a workload to run one variant.
#[derive(Clone, Debug)]
pub enum RunStatus {
    /// The variant ran; here is its outcome.
    Done(Box<RunOutcome>),
    /// The (variant, scale) combination is unsupported, with the reason
    /// the paper gives (e.g. unpadded 6 B objects straddle cache lines).
    Unsupported(&'static str),
}

/// One evaluation workload: named variants over a deterministic input,
/// with a host-side golden model.
///
/// Contract: `run` must be a pure function of `(variant, scale, input,
/// env)` — byte-identical across repeats and threads — and its checksum
/// must equal `golden` for every supported variant (faults included).
pub trait Workload: Sync {
    /// Variant selector (typically a small enum).
    type Variant: Copy + Send + Sync;
    /// Scale knobs.
    type Scale: Clone + Send + Sync;
    /// Pre-built deterministic input shared across variants.
    type Input: Send + Sync;

    /// Registry name (stable, lowercase).
    fn name(&self) -> &'static str;

    /// All variants with their display labels, in presentation order.
    /// The first variant is the comparison baseline.
    fn variants(&self) -> Vec<(&'static str, Self::Variant)>;

    /// The built-in scale for `kind`.
    fn scale(&self, kind: ScaleKind) -> Self::Scale;

    /// Builds the deterministic input for a scale (seeded by the scale).
    fn build_input(&self, scale: &Self::Scale) -> Self::Input;

    /// One-line description of the input at this scale (figure headers).
    fn describe(&self, scale: &Self::Scale) -> String;

    /// Runs one variant on the timed simulator.
    ///
    /// `input` is what [`Workload::build_input`] returns for `scale`. A
    /// driver may build it from another scale only if that scale differs
    /// in knobs the input does not depend on (an invoke-buffer size, say).
    /// Because the result is then a function of `(variant, scale, env)`,
    /// `levi-bench` reuses it for every identical run of an invocation.
    fn run(
        &self,
        variant: Self::Variant,
        scale: &Self::Scale,
        input: &Self::Input,
        env: &RunEnv,
    ) -> RunStatus;

    /// The synchronous-host golden checksum the run must reproduce.
    fn golden(&self, variant: Self::Variant, scale: &Self::Scale, input: &Self::Input) -> u64;
}

/// A scale + input snapshot that runs variants by label (see
/// [`DynWorkload::prepare`]).
pub trait PreparedRun: Sync {
    /// Describes the prepared input (figure headers).
    fn describe(&self) -> String;
    /// Runs the variant with display label `label`.
    ///
    /// # Panics
    /// Panics if `label` names no variant of this workload.
    fn run(&self, label: &str, env: &RunEnv) -> RunStatus;
    /// The golden checksum for the variant with label `label`.
    fn golden(&self, label: &str) -> u64;
}

/// The object-safe facade over [`Workload`], implemented for every
/// workload by a blanket impl. [`REGISTRY`] stores these.
pub trait DynWorkload: Sync {
    /// Registry name.
    fn name(&self) -> &'static str;
    /// Variant display labels in presentation order (first = baseline).
    fn variant_labels(&self) -> Vec<&'static str>;
    /// Builds the input for `kind` once, returning a handle that runs
    /// variants by label (drivers reuse one input across the sweep).
    fn prepare(&self, kind: ScaleKind) -> Box<dyn PreparedRun + '_>;
}

struct Prepared<'w, W: Workload> {
    workload: &'w W,
    scale: W::Scale,
    input: W::Input,
}

impl<W: Workload> Prepared<'_, W> {
    fn variant(&self, label: &str) -> W::Variant {
        self.workload
            .variants()
            .into_iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| {
                panic!(
                    "workload {}: no variant labeled {label:?}",
                    Workload::name(self.workload)
                )
            })
            .1
    }
}

impl<W: Workload> PreparedRun for Prepared<'_, W> {
    fn describe(&self) -> String {
        self.workload.describe(&self.scale)
    }

    fn run(&self, label: &str, env: &RunEnv) -> RunStatus {
        self.workload
            .run(self.variant(label), &self.scale, &self.input, env)
    }

    fn golden(&self, label: &str) -> u64 {
        self.workload
            .golden(self.variant(label), &self.scale, &self.input)
    }
}

impl<W: Workload> DynWorkload for W {
    fn name(&self) -> &'static str {
        Workload::name(self)
    }

    fn variant_labels(&self) -> Vec<&'static str> {
        self.variants().into_iter().map(|(l, _)| l).collect()
    }

    fn prepare(&self, kind: ScaleKind) -> Box<dyn PreparedRun + '_> {
        let scale = self.scale(kind);
        let input = self.build_input(&scale);
        Box::new(Prepared {
            workload: self,
            scale,
            input,
        })
    }
}

/// Every registered workload: the paper's four case studies plus the
/// substrate microbenchmarks. Drivers (the `levi-bench` runner, the
/// differential tests) enumerate this; adding a workload here is all a
/// new case study needs to join every sweep.
pub static REGISTRY: &[&dyn DynWorkload] = &[
    &crate::phi::PhiWorkload,
    &crate::decompress::DecompressWorkload,
    &crate::hashtable::HashtableWorkload,
    &crate::hats::HatsWorkload,
    &crate::micro::MicroWorkload,
];

/// Looks up a registered workload by name.
pub fn find_workload(name: &str) -> Option<&'static dyn DynWorkload> {
    REGISTRY.iter().copied().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<_> = REGISTRY.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry names");
        for w in REGISTRY {
            assert!(find_workload(w.name()).is_some());
            assert!(
                !w.variant_labels().is_empty(),
                "{} has no variants",
                w.name()
            );
        }
        assert!(find_workload("no-such-workload").is_none());
    }

    #[test]
    fn fault_spec_generates_a_valid_plan_for_any_shape() {
        for tiles in [4u32, 16] {
            let cfg = SystemConfig::with_tiles(tiles);
            let plan = FaultSpec::new(7).plan_for(&cfg);
            assert!(plan.total_faults() > 0);
            plan.validate(&cfg.machine).expect("plan fits the machine");
        }
    }

    /// Every program the workloads build carries, for each instruction,
    /// the `InstMeta` the per-use decoders describe: the timed loops read
    /// only the former.
    #[test]
    fn every_workload_program_decodes_once() {
        use levi_isa::{InstMeta, Location, Program};
        let mut progs: Vec<std::sync::Arc<Program>> = vec![
            crate::decompress::build_programs().prog,
            crate::hats::build_programs().prog,
            crate::micro::scan_program().0,
            crate::micro::chase_program().0,
            crate::micro::invoke_programs().0,
        ];
        for v in crate::phi::PhiVariant::all() {
            progs.push(crate::phi::build_programs(v).prog);
        }
        for node_bytes in [24, 64, 128] {
            for loc in [Location::Remote, Location::Dynamic] {
                progs.push(crate::hashtable::build_programs(node_bytes, loc).prog);
            }
        }
        let mut checked = 0;
        for prog in &progs {
            for (_, func) in prog.iter() {
                assert_eq!(func.metas().len(), func.len());
                for (inst, meta) in func.insts().iter().zip(func.metas()) {
                    let mut uses = 0u64;
                    inst.for_each_use(|r| uses |= 1 << r.index());
                    let want = InstMeta {
                        uses,
                        class: inst.class(),
                        def: inst.def(),
                    };
                    assert_eq!(*meta, want, "`{inst}` in {}", func.name());
                    checked += 1;
                }
            }
        }
        assert!(checked > 200, "only {checked} instructions checked");
    }
}
