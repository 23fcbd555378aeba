//! Differential validation of the unified experiment harness: for every
//! registered workload × variant at test scale, the timed-simulator
//! checksum must equal the synchronous-host golden model's. This extends
//! the ad-hoc spot checks the bench binaries used to carry into one
//! uniform, registry-driven sweep — a new workload gets this coverage by
//! appearing in [`levi_workloads::harness::REGISTRY`], nothing else.

use levi_workloads::harness::{find_workload, RunEnv, RunStatus, ScaleKind};

/// Runs every variant of `name` at test scale and checks it against the
/// golden model. Returns how many variants actually ran.
fn check(name: &str) -> usize {
    let w = find_workload(name).unwrap_or_else(|| panic!("workload {name} not registered"));
    let prepared = w.prepare(ScaleKind::Test);
    let env = RunEnv::default();
    let mut ran = 0;
    for label in w.variant_labels() {
        match prepared.run(label, &env) {
            RunStatus::Done(outcome) => {
                assert_eq!(
                    outcome.checksum,
                    prepared.golden(label),
                    "{name}/{label} diverged from the golden model"
                );
                assert!(outcome.metrics.cycles > 0, "{name}/{label} ran no cycles");
                ran += 1;
            }
            RunStatus::Unsupported(reason) => {
                assert!(
                    !reason.is_empty(),
                    "{name}/{label} must explain why it is unsupported"
                );
            }
        }
    }
    ran
}

#[test]
fn phi_matches_golden_across_variants() {
    assert_eq!(check("phi"), 5);
}

#[test]
fn decompress_matches_golden_across_variants() {
    // NoPadding is unsupported (6 B objects straddle lines), as in the paper.
    assert_eq!(check("decompress"), 4);
}

#[test]
fn hashtable_matches_golden_across_variants() {
    assert_eq!(check("hashtable"), 6);
}

#[test]
fn hats_matches_golden_across_variants() {
    assert_eq!(check("hats"), 5);
}

#[test]
fn micro_matches_golden_across_variants() {
    assert_eq!(check("micro"), 3);
}

/// The periodic checkpoint hook must be purely observational: for every
/// registered workload × variant, a run with `checkpoint_every` armed
/// (and each run's last checkpoint replay-verified against the original)
/// produces the same cycles, checksum, and stats digest as the plain run.
fn check_checkpointed(name: &str) {
    let w = find_workload(name).unwrap_or_else(|| panic!("workload {name} not registered"));
    let prepared = w.prepare(ScaleKind::Test);
    let plain = RunEnv::default();
    let hooked = RunEnv {
        checkpoint_every: 5_000,
        snapshot_verify: true,
        ..RunEnv::default()
    };
    for label in w.variant_labels() {
        let (a, b) = (prepared.run(label, &plain), prepared.run(label, &hooked));
        match (a, b) {
            (RunStatus::Done(plain), RunStatus::Done(hooked)) => {
                assert_eq!(
                    (
                        plain.metrics.cycles,
                        plain.checksum,
                        plain.metrics.stats.digest()
                    ),
                    (
                        hooked.metrics.cycles,
                        hooked.checksum,
                        hooked.metrics.stats.digest()
                    ),
                    "{name}/{label}: the checkpoint hook perturbed the run"
                );
            }
            (RunStatus::Unsupported(_), RunStatus::Unsupported(_)) => {}
            _ => panic!("{name}/{label}: support status changed under the checkpoint hook"),
        }
    }
}

#[test]
fn checkpoint_hook_is_observational_for_every_workload() {
    for name in ["phi", "decompress", "hashtable", "hats", "micro"] {
        check_checkpointed(name);
    }
}

/// With translation and tenancy disabled (the default), the xlat
/// subsystem must be invisible: for every registered workload × variant,
/// a run through an env that carries the (disabled) xlat/tenant knobs is
/// byte-identical — cycles, checksum, stats digest — to the plain run,
/// and none of the new counters ever fire. This is the zero-cost
/// disabled-path guarantee (DESIGN.md §10) pinned registry-wide.
fn check_xlat_disabled(name: &str) {
    let w = find_workload(name).unwrap_or_else(|| panic!("workload {name} not registered"));
    let prepared = w.prepare(ScaleKind::Test);
    let plain = RunEnv::default();
    let disabled = RunEnv {
        xlat: None,
        tenants: None,
        ..RunEnv::default()
    };
    for label in w.variant_labels() {
        let (a, b) = (prepared.run(label, &plain), prepared.run(label, &disabled));
        match (a, b) {
            (RunStatus::Done(plain), RunStatus::Done(disabled)) => {
                assert_eq!(
                    (
                        plain.metrics.cycles,
                        plain.checksum,
                        plain.metrics.stats.digest()
                    ),
                    (
                        disabled.metrics.cycles,
                        disabled.checksum,
                        disabled.metrics.stats.digest()
                    ),
                    "{name}/{label}: disabled xlat/tenancy perturbed the run"
                );
                let s = &plain.metrics.stats;
                assert_eq!(
                    s.tlb_hits + s.tlb_misses + s.tlb_walk_cycles + s.tenant_quota_nacks,
                    0,
                    "{name}/{label}: translation counters fired while disabled"
                );
                assert_eq!(
                    s.xlat_walk.count(),
                    0,
                    "{name}/{label}: walk histogram fired"
                );
                assert!(
                    s.tenant_llc_misses.is_empty()
                        && s.tenant_invokes.is_empty()
                        && s.tenant_finish.is_empty(),
                    "{name}/{label}: tenant attribution allocated while disabled"
                );
            }
            (RunStatus::Unsupported(_), RunStatus::Unsupported(_)) => {}
            _ => panic!("{name}/{label}: support status changed under disabled xlat"),
        }
    }
}

#[test]
fn disabled_xlat_is_invisible_for_every_workload() {
    for name in ["phi", "decompress", "hashtable", "hats", "micro"] {
        check_xlat_disabled(name);
    }
}
