//! Checkpoint/restore correctness, exercised through the public API.
//!
//! The pivotal property: a run is a pure function of (config, workload,
//! seed), so restoring a mid-run snapshot and running to completion must
//! reproduce the uninterrupted run *exactly* — same final cycle, same
//! stats digest — at any checkpoint cycle, including inside NACK-backoff
//! and engine-outage windows. The hook itself must be observationally
//! free: a run with periodic checkpointing enabled produces the same
//! outcome as one without.

use std::sync::Arc;

use levi_isa::{ActionId, Location, Memory, ProgramBuilder, Reg};
use levi_sim::ndc::{MorphLevel, MorphRegion};
use levi_sim::snapshot::{MAGIC, VERSION};
use levi_sim::{
    CycleWindow, EngineId, EngineLevel, FaultPlan, Machine, MachineConfig, RunError, SnapshotError,
    StreamMode, TenantConfig, TenantPolicy, XlatConfig,
};

fn small_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::with_tiles(4);
    cfg.prefetcher = false;
    cfg
}

/// A busy mixed workload: three cores run invoke loops (futures, NACK
/// backoff under faults), while core 0 consumes a stream produced by an
/// LLC engine task. Mid-run snapshots catch actors parked on futures,
/// stream conditions, and engine-context backpressure.
fn setup(cfg: MachineConfig) -> Machine {
    let mut pb = ProgramBuilder::new();
    let action = {
        let mut f = pb.function("add_action");
        let (actor, amt, fut, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
        f.ld8(v, actor, 0);
        f.add(v, v, amt);
        f.st8(actor, 0, v);
        f.future_send(fut, v);
        f.halt();
        f.finish()
    };
    let invoker = {
        let mut f = pb.function("invoker");
        // r0 = actor base, r1 = future base, r2 = iterations
        let (abase, fbase, n) = (Reg(0), Reg(1), Reg(2));
        let (i, amt, r) = (Reg(3), Reg(4), Reg(5));
        f.imm(i, 0).imm(amt, 5);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.invoke_future(abase, ActionId(0), &[amt, fbase], fbase, Location::Dynamic);
        f.future_wait(r, fbase);
        f.addi(abase, abase, 4096);
        f.addi(fbase, fbase, 8);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.halt();
        f.finish()
    };
    let producer = {
        let mut f = pb.function("producer");
        let (handle, i, n) = (Reg(0), Reg(1), Reg(2));
        f.imm(i, 0).imm(n, 80);
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
    let consumer = {
        let mut f = pb.function("consumer");
        // r0 = handle, r1 = buffer base, r2 = capacity, r3 = n
        let (handle, base, cap, n) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let (i, idx, addr, v, acc) = (Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
        f.imm(i, 0).imm(acc, 0);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.remu(idx, i, cap);
        f.muli(idx, idx, 8);
        f.add(addr, base, idx);
        f.ld8(v, addr, 0);
        f.pop(handle);
        f.add(acc, acc, v);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(base, 4096, acc);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());

    let mut m = Machine::try_new(cfg).unwrap();
    m.hw.ndc.actions.register(ActionId(0), prog.clone(), action);
    for t in 1..4u32 {
        let abase = 0x10_0000 + t as u64 * 0x40_000;
        let fbase = 0x50_0000 + t as u64 * 0x1000;
        for k in 0..24u64 {
            m.mem_mut().write_u64(abase + k * 4096, k);
        }
        m.spawn_thread(t, prog.clone(), invoker, &[abase, fbase, 24])
            .unwrap();
    }
    let buffer = 0x80_0000u64;
    let cap = 16u64;
    let engine = EngineId {
        tile: 0,
        level: EngineLevel::Llc,
    };
    let sid = m
        .create_stream(buffer, 8, cap, engine, 0, StreamMode::RunAhead)
        .unwrap();
    m.hw.ndc.register_morph(MorphRegion {
        base: buffer,
        bound: buffer + cap * 8,
        level: MorphLevel::L2,
        obj_size: 8,
        ctor: None,
        dtor: None,
        view: 0,
        stream: Some(sid),
    });
    m.spawn_engine_task(engine, prog.clone(), producer, &[sid.0 as u64], Some(sid));
    m.spawn_thread(0, prog, consumer, &[sid.0 as u64, buffer, cap, 80])
        .unwrap();
    m
}

/// An always-faulted variant: every engine refuses during a mid-run
/// window, so checkpoints land inside NACK-backoff and outage windows.
fn faulted_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(1).retry_budget(3).backoff(8, 64);
    for tile in 0..4 {
        for level in [EngineLevel::L2, EngineLevel::Llc] {
            plan = plan.add_engine_fault(EngineId { tile, level }, CycleWindow::new(200, 4000));
        }
    }
    plan
}

/// `(final cycle, stats digest)` — the outcome identity used throughout.
fn outcome(m: &Machine) -> (u64, u64) {
    (m.now(), m.stats().digest())
}

#[test]
fn restore_at_arbitrary_cycles_reproduces_the_run() {
    let mut base = setup(small_cfg());
    base.run().unwrap();
    let want = outcome(&base);

    // Periods chosen to land checkpoints at scattered mid-run cycles;
    // each must stay below the run length so a checkpoint is taken.
    for every in [300u64, 701, 1100] {
        assert!(
            every < want.0,
            "period {every} exceeds run length {}",
            want.0
        );
        let mut m = setup(small_cfg().checkpoint_every(every));
        m.run().unwrap();
        assert_eq!(
            outcome(&m),
            want,
            "checkpoint hook must not perturb the run (every={every})"
        );
        let (at, bytes) = m.take_last_checkpoint().expect("checkpoint taken mid-run");
        assert!(at > 0 && at < want.0, "mid-run checkpoint at {at}");

        let mut replica = Machine::restore(small_cfg(), &bytes).unwrap();
        assert_eq!(replica.now(), at, "restored clock");
        // Re-checkpointing the restored machine must reproduce the exact
        // bytes: the codec is canonical and lossless.
        assert_eq!(replica.checkpoint(), bytes, "re-checkpoint byte-identity");
        replica.run().unwrap();
        assert_eq!(
            outcome(&replica),
            want,
            "resumed run diverged (checkpoint at cycle {at})"
        );
    }
}

#[test]
fn restore_inside_fault_windows_reproduces_the_run() {
    let mut base = setup(small_cfg().faulted(faulted_plan()));
    base.run().unwrap();
    let want = outcome(&base);
    assert!(
        base.stats().fault_nack_retries > 0,
        "workload must actually hit the fault windows"
    );

    // Small periods land checkpoints inside backoff and outage windows.
    for every in [64u64, 257, 900] {
        let mut m = setup(small_cfg().faulted(faulted_plan()).checkpoint_every(every));
        m.run().unwrap();
        assert_eq!(outcome(&m), want, "hook-free outcome under faults");
        let (at, bytes) = m.take_last_checkpoint().expect("checkpoint taken");
        let mut replica = Machine::restore(small_cfg().faulted(faulted_plan()), &bytes).unwrap();
        replica.run().unwrap();
        assert_eq!(
            outcome(&replica),
            want,
            "faulted resume diverged (checkpoint at cycle {at}, every={every})"
        );
    }
}

#[test]
fn restore_under_a_different_fault_plan_is_permitted() {
    // The config digest deliberately excludes the fault plan: the same
    // snapshot restores under a different fault seed (time-travel
    // replay). The restored run completes and stays self-consistent.
    let mut m = setup(small_cfg().faulted(faulted_plan()).checkpoint_every(500));
    m.run().unwrap();
    let (_, bytes) = m.take_last_checkpoint().expect("checkpoint taken");

    let other = FaultPlan::new(99).retry_budget(2).backoff(4, 32);
    let mut replica = Machine::restore(small_cfg().faulted(other), &bytes).unwrap();
    assert!(replica.run().is_ok());
}

#[test]
fn checkpoint_verified_run_passes() {
    let mut m = setup(small_cfg().checkpoint_every(700).checkpoint_verified());
    let res = m.run();
    assert!(
        res.is_ok(),
        "self-verification must accept its own checkpoint: {res:?}"
    );
}

#[test]
fn verified_multi_phase_run_skips_stale_checkpoints() {
    // Phase 1 takes checkpoints; phase 2 is shorter than the checkpoint
    // period, so no new checkpoint fires during it. Verification must
    // then skip the phase-1 checkpoint rather than replay it: a replica
    // quiesces at the end of the phase it was captured in and cannot
    // reproduce host actions (the spawn below) between the two runs.
    let mut m = setup(small_cfg().checkpoint_every(700).checkpoint_verified());
    m.run().expect("phase 1");
    assert!(
        m.last_checkpoint().is_some(),
        "phase 1 must have taken a checkpoint"
    );

    let mut pb = ProgramBuilder::new();
    let tick = {
        let mut f = pb.function("tick");
        let (base, v) = (Reg(0), Reg(1));
        f.ld8(v, base, 0);
        f.addi(v, v, 1);
        f.st8(base, 0, v);
        f.halt();
        f.finish()
    };
    let prog = Arc::new(pb.finish().unwrap());
    m.spawn_thread(0, prog, tick, &[0x90_0000]).unwrap();
    m.run()
        .expect("a short second phase must not be checked against a stale phase-1 checkpoint");
}

fn restore_err(cfg: MachineConfig, bytes: &[u8]) -> SnapshotError {
    match Machine::restore(cfg, bytes) {
        Err(e) => e,
        Ok(_) => panic!("restore unexpectedly succeeded"),
    }
}

#[test]
fn malformed_bytes_are_rejected_with_typed_errors() {
    let mut m = setup(small_cfg().checkpoint_every(400));
    m.run().unwrap();
    let (_, bytes) = m.take_last_checkpoint().expect("checkpoint taken");

    // Sanity: pristine bytes restore.
    assert!(Machine::restore(small_cfg(), &bytes).is_ok());

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert_eq!(restore_err(small_cfg(), &bad), SnapshotError::BadMagic);

    // Unsupported version.
    let mut bad = bytes.clone();
    bad[MAGIC.len()] = (VERSION + 1) as u8;
    assert_eq!(
        restore_err(small_cfg(), &bad),
        SnapshotError::UnsupportedVersion(VERSION + 1)
    );

    // Config mismatch: more tiles than the snapshot was taken under.
    match restore_err(MachineConfig::with_tiles(8), &bytes) {
        SnapshotError::ConfigMismatch { expected, found } => assert_ne!(expected, found),
        other => panic!("expected ConfigMismatch, got {other}"),
    }

    // Truncation at every structural boundary and a few interior points.
    for cut in [0, 4, 7, 11, 19, 27, bytes.len() / 2, bytes.len() - 1] {
        let err = restore_err(small_cfg(), &bytes[..cut]);
        assert!(
            matches!(
                err,
                SnapshotError::Truncated | SnapshotError::BadMagic | SnapshotError::Corrupted(_)
            ),
            "cut at {cut} gave {err}"
        );
    }

    // Payload corruption must fail the CRC, never panic.
    for offset in [28usize, 40, bytes.len() / 2, bytes.len() - 8] {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x55;
        let err = restore_err(small_cfg(), &bad);
        assert!(
            matches!(
                err,
                SnapshotError::Corrupted(_)
                    | SnapshotError::ConfigMismatch { .. }
                    | SnapshotError::Truncated
            ),
            "corruption at {offset} gave {err}"
        );
    }
}

/// Translation + tenancy enabled (DESIGN.md §10): TLBs fill and tenant
/// line tags spread mid-run, so snapshots carry real xlat state.
fn xlat_cfg(policy: TenantPolicy) -> MachineConfig {
    let mut cfg = small_cfg();
    cfg.xlat = Some(XlatConfig::paper_default());
    cfg.tenants = Some(TenantConfig::new(2, policy));
    cfg
}

#[test]
fn restore_with_translation_and_tenancy_reproduces_the_run() {
    for policy in [
        TenantPolicy::Unpartitioned,
        TenantPolicy::LlcWayPartition,
        TenantPolicy::EngineSlotQuota,
    ] {
        let mut base = setup(xlat_cfg(policy));
        base.run().unwrap();
        let want = outcome(&base);
        assert!(
            base.stats().tlb_misses > 0,
            "workload must actually walk ({policy:?})"
        );

        for every in [300u64, 1100] {
            let mut m = setup(xlat_cfg(policy).checkpoint_every(every));
            m.run().unwrap();
            assert_eq!(outcome(&m), want, "hook-free outcome ({policy:?})");
            let (at, bytes) = m.take_last_checkpoint().expect("checkpoint taken");
            assert!(at > 0 && at < want.0, "mid-run checkpoint at {at}");

            let mut replica = Machine::restore(xlat_cfg(policy), &bytes).unwrap();
            assert!(
                replica
                    .hw
                    .xlat
                    .as_ref()
                    .is_some_and(|x| (0..4).any(|t| x.tlb(t).occupancy() > 0)),
                "restored TLBs must carry mid-flight entries"
            );
            assert_eq!(replica.checkpoint(), bytes, "re-checkpoint byte-identity");
            replica.run().unwrap();
            assert_eq!(
                outcome(&replica),
                want,
                "xlat resume diverged ({policy:?}, checkpoint at {at})"
            );
        }
    }
}

#[test]
fn restore_with_tenant_scoped_outages_reproduces_the_run() {
    // Tenant 0 (tiles 0-1) loses engines mid-run; tenant 1 keeps serving.
    let plan = || {
        FaultPlan::new(1)
            .retry_budget(3)
            .backoff(8, 64)
            .gen_tenant_engine_outages(6, 0, 2, 4, 4000, 200, 1000)
    };
    let cfg = || xlat_cfg(TenantPolicy::EngineSlotQuota).faulted(plan());
    let mut base = setup(cfg());
    base.run().unwrap();
    let want = outcome(&base);

    let mut m = setup(cfg().checkpoint_every(500));
    m.run().unwrap();
    assert_eq!(outcome(&m), want, "hook-free outcome under tenant faults");
    let (at, bytes) = m.take_last_checkpoint().expect("checkpoint taken");
    let mut replica = Machine::restore(cfg(), &bytes).unwrap();
    replica.run().unwrap();
    assert_eq!(
        outcome(&replica),
        want,
        "tenant-fault resume diverged at {at}"
    );
}

/// Recomputes the container CRC after in-place payload surgery, so the
/// decoder reaches the section codec instead of failing the CRC gate.
fn reseal(bytes: &mut [u8]) {
    let len = bytes.len();
    let crc = levi_sim::snapshot::crc32(&bytes[8..len - 4]);
    bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn tampered_tlb_section_is_rejected_with_typed_errors() {
    let cfg = || xlat_cfg(TenantPolicy::Unpartitioned);
    let mut m = setup(cfg().checkpoint_every(400));
    m.run().unwrap();
    let (_, bytes) = m.take_last_checkpoint().expect("checkpoint taken");
    assert!(Machine::restore(cfg(), &bytes).is_ok(), "pristine restores");
    let pos = bytes
        .windows(4)
        .position(|w| w == b"TLBX")
        .expect("snapshot carries the TLBX section");

    // Presence flag flipped (valid CRC): the decoder must catch the
    // mismatch against the config-built machine, not panic.
    let mut bad = bytes.clone();
    bad[pos + 4] ^= 1;
    reseal(&mut bad);
    assert_eq!(
        restore_err(cfg(), &bad),
        SnapshotError::Corrupted("tlb presence mismatch")
    );

    // Tile-count corruption (valid CRC): typed codec error, no panic.
    let mut bad = bytes.clone();
    bad[pos + 5] ^= 0xFF;
    reseal(&mut bad);
    assert!(
        matches!(
            restore_err(cfg(), &bad),
            SnapshotError::Corrupted(_) | SnapshotError::Truncated
        ),
        "corrupted TLB count must fail typed"
    );

    // Truncation inside the section, with the header length and CRC
    // rewritten to match: the codec runs dry mid-TLB and reports it.
    let mut cut = bytes[..pos + 8].to_vec();
    let plen = (cut.len() - 28) as u64;
    cut[20..28].copy_from_slice(&plen.to_le_bytes());
    let crc = levi_sim::snapshot::crc32(&cut[8..]);
    cut.extend_from_slice(&crc.to_le_bytes());
    assert!(
        matches!(
            restore_err(cfg(), &cut),
            SnapshotError::Truncated | SnapshotError::Corrupted(_)
        ),
        "mid-section truncation must fail typed"
    );
}

#[test]
fn disabled_hook_takes_no_checkpoints() {
    let mut m = setup(small_cfg());
    m.run().unwrap();
    assert!(m.last_checkpoint().is_none());
    assert!(m.take_last_checkpoint().is_none());
}

#[test]
fn watchdog_and_deadlock_still_reported_with_hook_enabled() {
    // The hook re-pushes the popped entry; the watchdog must still fire.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let (p, i, n, v) = (Reg(1), Reg(2), Reg(3), Reg(4));
    f.imm(p, 0x10000).imm(i, 0).imm(n, 10_000);
    let top = f.label();
    let out = f.label();
    f.bind(top);
    f.bge_u(i, n, out);
    f.ld8(v, p, 0);
    f.addi(p, p, 64);
    f.addi(i, i, 1);
    f.jmp(top);
    f.bind(out);
    f.halt();
    let main = f.finish();
    let prog = Arc::new(pb.finish().unwrap());

    let mut cfg = small_cfg().checkpoint_every(100);
    cfg.max_cycles = 5_000;
    let mut m = Machine::try_new(cfg).unwrap();
    m.spawn_thread(0, prog, main, &[]).unwrap();
    match m.run() {
        Err(RunError::Watchdog { limit, .. }) => assert_eq!(limit, 5_000),
        other => panic!("expected watchdog, got {other:?}"),
    }
    assert!(
        m.last_checkpoint().is_some(),
        "checkpoints taken before abort"
    );
}

/// The last periodic checkpoint of a completed run of [`setup`].
fn last_checkpoint(cfg: MachineConfig) -> Vec<u8> {
    let mut m = setup(cfg.checkpoint_every(700));
    m.run().unwrap();
    m.take_last_checkpoint().expect("checkpoint taken").1
}

/// Pins the checkpoint format byte for byte. Every other test here
/// compares a re-checkpoint with its own bytes, which a format change that
/// reads and writes the same way would pass; these digests move with any
/// change to the encoding.
#[test]
fn checkpoint_bytes_are_pinned() {
    let traced = {
        let mut cfg = xlat_cfg(TenantPolicy::EngineSlotQuota)
            .faulted(faulted_plan())
            .traced();
        cfg.sample_interval = 250;
        cfg
    };
    let bytes = last_checkpoint(traced.clone());
    let m = Machine::restore(traced.clone(), &bytes).unwrap();
    let s = m.stats();
    assert!(s.trace.enabled() && s.trace.events().next().is_some());
    assert!(!s.spans.spans().is_empty() && !s.timeline.samples().is_empty());
    assert!(m.hw.xlat.as_ref().is_some_and(|x| x.tlb(0).occupancy() > 0));

    let got = [
        levi_sim::fnv1a(&last_checkpoint(small_cfg())),
        levi_sim::fnv1a(&last_checkpoint(xlat_cfg(TenantPolicy::LlcWayPartition))),
        levi_sim::fnv1a(&bytes),
    ];
    assert_eq!(
        got,
        [
            0xad54_6b0d_f143_6b45,
            0xe4cd_0b49_ae95_2bd9,
            0xdbde_8ee8_394c_a447
        ],
        "checkpoint bytes moved: {got:#018x?}"
    );
}

/// Replaces `len` payload bytes at `at` with `with`, then rewrites the
/// header's payload length and the CRC so the decoder reaches the edit.
fn splice(bytes: &[u8], at: usize, len: usize, with: &[u8]) -> Vec<u8> {
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&bytes[at + len..bytes.len() - 4]);
    let plen = (out.len() - 28) as u64;
    out[20..28].copy_from_slice(&plen.to_le_bytes());
    let crc = levi_sim::snapshot::crc32(&out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn restore_rejects_dangling_actor_ids() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    f.halt();
    let main = f.finish();
    let prog = Arc::new(pb.finish().unwrap());
    let mut m = Machine::try_new(small_cfg()).unwrap();
    m.spawn_thread(0, prog, main, &[]).unwrap();
    let bytes = m.checkpoint();
    assert!(
        Machine::restore(small_cfg(), &bytes).is_ok(),
        "pristine restores"
    );

    // SCHD: now, seq, live core threads, then the traces, free-slot,
    // run-queue and waiter lists; here only the run queue has an entry.
    let schd = bytes.windows(4).position(|w| w == b"SCHD").unwrap() + 4;
    let (free, runq) = (schd + 24, schd + 28);
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    assert_eq!((word(free - 4), word(free), word(runq)), (0, 0, 1));
    let (aid, waiters) = (runq + 4 + 16, runq + 4 + 20);
    assert_eq!((word(aid), word(waiters)), (0, 0));
    let dangling = 0xFFFF_FF00u32.to_le_bytes();

    let mut bad = bytes.clone();
    bad[aid..aid + 4].copy_from_slice(&dangling);
    reseal(&mut bad);
    assert_eq!(
        restore_err(small_cfg(), &bad),
        SnapshotError::Corrupted("run-queue actor id")
    );

    let one_free_slot = [&1u32.to_le_bytes()[..], &dangling].concat();
    assert_eq!(
        restore_err(small_cfg(), &splice(&bytes, free, 4, &one_free_slot)),
        SnapshotError::Corrupted("free-slot actor id")
    );

    // One waiter list: a future-fill condition naming the dangling id.
    let one_waiter = [
        &1u32.to_le_bytes()[..],
        &[0],
        &0x1000u64.to_le_bytes(),
        &1u32.to_le_bytes(),
        &dangling,
    ]
    .concat();
    assert_eq!(
        restore_err(small_cfg(), &splice(&bytes, waiters, 4, &one_waiter)),
        SnapshotError::Corrupted("waiter actor id")
    );
}
