//! Compile-time pin of the crate's public surface across the module
//! split. `Machine` became a facade over `sched` / `core_pipe` /
//! `ndc_host` / `invoke` / `hw/*`; every name below was importable from
//! the crate root before the split and must remain so. A removal or
//! rename breaks this file at compile time — no assertions needed, but a
//! handful of usages keep the imports from being optimized into
//! "unused" warnings.

#![allow(clippy::assertions_on_constants)]

use levi_sim::{
    AccessKind, ActorId, BankMapRange, CacheConfig, CycleWindow, DramFault, EnergyBreakdown,
    EnergyConfig, EngineFault, EngineId, EngineLevel, FaultPlan, FaultState, Histogram, Hw,
    InvokeSqueeze, LinkFault, LinkFaultKind, Machine, MachineConfig, MorphLevel, MorphRegion,
    ParkOwner, ParkedActor, Replacement, RunError, RunResult, Sample, SimError, Stats, StreamId,
    StreamMode, StreamState, TimeSeries, TraceCategory, TraceEvent, TraceKind, Tracer, Track, Walk,
    LINE_SIZE,
};

// Machine-associated types flow through the facade's re-export path too.
use levi_sim::machine::{
    ActorId as MachineActorId, ParkOwner as MachineParkOwner, RunError as MachineRunError,
};

#[test]
fn public_api_names_resolve() {
    // Type-position usages: each alias must name a real, nameable type.
    #[allow(clippy::too_many_arguments)]
    fn _takes(
        _: Option<&Machine>,
        _: Option<&Hw>,
        _: Option<&Stats>,
        _: Option<&Tracer>,
        _: Option<&Histogram>,
        _: Option<&TimeSeries>,
        _: Option<&EnergyBreakdown>,
        _: Option<&FaultState>,
        _: Option<&StreamState>,
        _: Option<&MorphRegion>,
        _: Option<&BankMapRange>,
        _: Option<&ParkedActor>,
        _: Option<&RunResult>,
        _: Option<&TraceEvent>,
        _: Option<&Sample>,
        _: Option<(DramFault, EngineFault, LinkFault, InvokeSqueeze)>,
        _: Option<(CacheConfig, EnergyConfig, Replacement)>,
    ) {
    }

    let aid: ActorId = 0;
    let _: MachineActorId = aid;
    let _: fn(MachineConfig) -> Result<Machine, SimError> = Machine::try_new;

    assert_eq!(LINE_SIZE, 64);
    assert_eq!(TraceCategory::Fault.as_str(), "fault");
    assert_eq!(TraceKind::InvokeIssue.category(), TraceCategory::Invoke);
    assert!(matches!(Track::Core(0), Track::Core(0)));
    assert!(matches!(AccessKind::Read, AccessKind::Read));
    assert!(matches!(Walk::Done { at: 3 }, Walk::Done { at: 3 }));
    assert!(matches!(StreamMode::RunAhead, StreamMode::RunAhead));
    assert!(matches!(MorphLevel::L2, MorphLevel::L2));
    assert!(matches!(
        LinkFaultKind::Slowdown { extra: 2 },
        LinkFaultKind::Slowdown { extra: 2 }
    ));
    assert!(matches!(ParkOwner::Core(1), MachineParkOwner::Core(1)));
    assert!(matches!(
        RunError::Watchdog { limit: 1, at: 2 },
        MachineRunError::Watchdog { limit: 1, at: 2 }
    ));

    let _ = StreamId(0);
    let _ = EngineId {
        tile: 0,
        level: EngineLevel::Llc,
    };
    let _ = CycleWindow::new(0, 10);
    let _ = FaultPlan::new(1);
}
