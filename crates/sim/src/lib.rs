//! # levi-sim — a cycle-approximate tiled-multicore simulator
//!
//! This crate is the hardware substrate of the Leviathan reproduction: a
//! deterministic, event-driven model of a tiled multicore with
//!
//! * scoreboarded cores (dependence-limited issue, MSHR-limited MLP, a
//!   gshare branch predictor, and fence semantics),
//! * private L1/L2 caches and a shared, inclusive, NUCA LLC with an
//!   in-tag MESI-style directory,
//! * a 2-D mesh NoC with per-link contention,
//! * bandwidth-limited DRAM controllers with the FIFO line cache used by
//!   Leviathan's DRAM object compaction, and
//! * near-data engines (dataflow fabrics) at every L2 and LLC bank, with
//!   the scheduling hardware for all four NDC paradigms: task offload,
//!   long-lived workloads, data-triggered actions, and streaming.
//!
//! The programming-level interface (actors, allocator, `Morph<T>`,
//! `Stream<T>`, futures) lives in the `leviathan` crate; workloads are
//! LevIR programs from `levi-isa`.
//!
//! ## Example
//!
//! ```
//! use levi_sim::{Machine, MachineConfig};
//! use levi_isa::{ProgramBuilder, Reg};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! // Store 42 to address 0x1000 and halt.
//! f.imm(Reg(1), 0x1000).imm(Reg(2), 42).st8(Reg(1), 0, Reg(2)).halt();
//! let func = f.finish();
//! let prog = Arc::new(pb.finish()?);
//!
//! let mut m = Machine::try_new(MachineConfig::with_tiles(4))?;
//! m.spawn_thread(0, prog, func, &[])?;
//! let result = m.run()?;
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
mod core_pipe;
pub mod dram;
pub mod energy;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hist;
pub mod hw;
mod invoke;
pub mod machine;
pub mod ndc;
mod ndc_host;
pub mod noc;
pub mod perf;
pub mod rng;
pub mod sched;
pub mod snapshot;
pub mod span;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod xlat;

pub use config::{CacheConfig, EnergyConfig, MachineConfig, Replacement, LINE_SIZE};
pub use energy::EnergyBreakdown;
pub use engine::{EngineId, EngineLevel};
pub use error::{InlineFault, SimError};
pub use fault::{
    CycleWindow, DramFault, EngineFault, FaultPlan, FaultState, InvokeSqueeze, LinkFault,
    LinkFaultKind,
};
pub use hist::Histogram;
pub use hw::{AccessKind, Hw, Walk};
pub use machine::{ActorId, Machine, ParkOwner, ParkedActor, RunError, RunResult};
pub use ndc::{BankMapRange, MorphLevel, MorphRegion, StreamId, StreamMode, StreamState};
pub use perf::{Phase, PhaseProfile};
pub use snapshot::{config_digest, fnv1a, Snapshot, SnapshotError};
pub use span::{CriticalPath, InvokeSpan, SlowInvoke, SpanId, SpanTable, StageCycles};
pub use stats::{Sample, Stats, TimeSeries, TOP_SLOW_INVOKES};
pub use telemetry::{Telemetry, TELEMETRY_VERSION};
pub use trace::{TraceCategory, TraceEvent, TraceKind, Tracer, Track};
pub use xlat::{TenantConfig, TenantMap, TenantPolicy, XlatConfig, XlatState};
