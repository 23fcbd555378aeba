//! Typed simulator errors.
//!
//! [`SimError`] replaces the panics that used to guard `levi-sim`'s public
//! construction and setup APIs (action lookup, thread spawning, stream
//! creation, configuration validation), so misuse is reportable and
//! testable instead of aborting the process. Runtime failures inside a
//! simulation surface through [`crate::machine::RunError`], which wraps a
//! `SimError` when a program trips one mid-run (e.g. invoking an
//! unregistered action, or a Morph constructor that never halts).

use std::fmt;

use levi_isa::{ActionId, ExecError};

/// An error from a `levi-sim` public API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An `invoke` named an action id that was never registered in the
    /// [`crate::ndc::ActionTable`].
    UnknownAction(ActionId),
    /// [`crate::Machine::spawn_thread`] targeted a core outside the
    /// machine.
    CoreOutOfRange {
        /// The requested core.
        core: u32,
        /// Number of cores in the machine.
        tiles: u32,
    },
    /// More entry-function arguments than argument registers.
    TooManyArgs {
        /// Arguments supplied.
        given: usize,
        /// Maximum supported (r0..r7).
        max: usize,
    },
    /// [`crate::Machine::create_stream`] with an unsupported entry size
    /// (v1 streams carry 8-byte entries).
    UnsupportedEntrySize {
        /// The requested entry size in bytes.
        entry_size: u64,
    },
    /// [`crate::Machine::create_stream`] with a zero-capacity buffer.
    ZeroStreamCapacity,
    /// A [`crate::MachineConfig`] field combination is invalid
    /// (see [`crate::MachineConfig::validate`]).
    InvalidConfig {
        /// Human-readable description of the offending field(s).
        what: String,
    },
    /// A Morph constructor or destructor, which runs to its `halt` inside
    /// a cache walk, stopped short of it.
    InlineAction {
        /// The action's function name.
        func: String,
        /// Why it stopped.
        fault: InlineFault,
    },
}

/// Why an inline Morph action stopped before its `halt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InlineFault {
    /// It retired this many instructions without halting.
    OutOfFuel(u64),
    /// It reached an NDC operation (named here), which an action running
    /// inside a cache walk cannot issue.
    NdcOp(&'static str),
    /// The interpreter refused to step it (e.g. its call stack overflowed).
    Exec(ExecError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownAction(id) => write!(f, "unregistered action {id:?}"),
            SimError::CoreOutOfRange { core, tiles } => {
                write!(f, "core {core} out of range (machine has {tiles} cores)")
            }
            SimError::TooManyArgs { given, max } => {
                write!(f, "{given} entry arguments given, at most {max} supported")
            }
            SimError::UnsupportedEntrySize { entry_size } => {
                write!(
                    f,
                    "stream entry size {entry_size} unsupported (v1 streams carry 8-byte entries)"
                )
            }
            SimError::ZeroStreamCapacity => write!(f, "stream capacity must be positive"),
            SimError::InvalidConfig { what } => write!(f, "invalid machine config: {what}"),
            SimError::InlineAction { func, fault } => {
                write!(f, "inline Morph action `{func}` ")?;
                match fault {
                    InlineFault::OutOfFuel(n) => write!(f, "did not halt within {n} instructions"),
                    InlineFault::NdcOp(op) => write!(f, "executed `{op}`, an NDC operation"),
                    InlineFault::Exec(e) => write!(f, "failed: {e}"),
                }
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = SimError::CoreOutOfRange { core: 9, tiles: 4 };
        assert_eq!(e.to_string(), "core 9 out of range (machine has 4 cores)");
        let e = SimError::UnknownAction(ActionId(3));
        assert!(e.to_string().contains("unregistered action"));
        let e = SimError::InvalidConfig {
            what: "quantum must be positive".into(),
        };
        assert!(e.to_string().contains("quantum"));
        let e = SimError::InlineAction {
            func: "ctor".into(),
            fault: InlineFault::NdcOp("invoke"),
        };
        assert_eq!(
            e.to_string(),
            "inline Morph action `ctor` executed `invoke`, an NDC operation"
        );
    }
}
