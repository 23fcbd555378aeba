//! Host-side self-profiling: scoped phase timers attributing simulator
//! wall-time to subsystems.
//!
//! The simulator's own speed is a first-class quantity (the ROADMAP
//! north-star is "as fast as the hardware allows"), so this module lets a
//! build measure *where* host time goes: construction, scheduling,
//! instruction execution, cache walks, NoC routing, DRAM service, invoke
//! scheduling, and flushes. Hooks are `prof_scope!` statements threaded
//! through the hot modules; each opens a scoped timer on a thread-local
//! stack and records *self time* — time in nested scopes is attributed to
//! the inner phase, not double-counted in the outer one.
//!
//! Everything here is feature-gated on `self-profile`:
//!
//! * **Feature off (the default):** `prof_scope!` expands to nothing, the
//!   thread-local state does not exist, and [`take`] returns an empty
//!   profile. Deterministic outputs are byte-identical to an
//!   uninstrumented build.
//! * **Feature on:** each scope costs two monotonic-clock reads plus a
//!   thread-local access. [`crate::Machine::run`] drains the accumulated
//!   profile into [`crate::Stats::host_phases`] when it returns, covering
//!   everything the calling thread measured since the previous drain
//!   (machine construction included).
//!
//! Wall-clock nanoseconds are *never* part of deterministic output: the
//! profile is not printed by `Stats`'s `Display` and feeds nothing in the
//! simulation. Consumers (telemetry dumps, the benchmark's traced pass)
//! read [`crate::Stats::host_phases`] explicitly.
//!
//! **Fast paths skip their scope.** Because a scope costs two clock reads
//! (~40–50 ns), the hottest early returns — core L1 hits, engine L1d
//! hits, same-tile NoC sends, DRAM FIFO-cache hits — resolve *before*
//! entering their subsystem's scope. Their (tiny) host time lands in the
//! enclosing phase (usually `Exec`), and `calls` counts scope entries,
//! i.e. slow-path events, not total subsystem invocations. This trades a
//! little attribution precision on cheap hits for not perturbing the very
//! paths the profile exists to optimize.

use std::fmt;

/// Declares [`Phase`], [`NUM_PHASES`], [`Phase::ALL`] and [`Phase::name`]
/// from one list of `Variant => "name"` entries, in index order.
macro_rules! phases {
    ($( $(#[$doc:meta])* $variant:ident => $name:literal, )*) => {
        /// Number of distinct [`Phase`]s.
        pub const NUM_PHASES: usize = [$($name),*].len();

        /// A simulator subsystem that host wall-time is attributed to.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Phase {
            $( $(#[$doc])* $variant, )*
        }

        impl Phase {
            /// Every phase, in declaration order (index order of the profile
            /// arrays).
            pub const ALL: [Phase; NUM_PHASES] = [$(Phase::$variant),*];

            /// Stable lowercase name (report keys).
            pub fn name(self) -> &'static str {
                match self {
                    $( Phase::$variant => $name, )*
                }
            }
        }
    };
}

phases! {
    /// Machine construction (`Machine::try_new`: cache/NoC/DRAM setup).
    Build => "build",
    /// Run-queue dispatch: pop, watchdog, sampling, wake bookkeeping.
    Sched => "sched",
    /// Instruction execution (issue, scoreboard, functional step).
    Exec => "exec",
    /// Cache-hierarchy miss walks (L2/LLC probes, directory, fills).
    /// L1/L1d hits resolve before the scope opens and land in the caller.
    Cache => "cache",
    /// NoC routing and link reservation for cross-tile messages.
    /// Same-tile sends return before the scope opens.
    Noc => "noc",
    /// DRAM controller queueing and service. FIFO-cache hits return
    /// before the scope opens.
    Dram => "dram",
    /// Invoke scheduling (placement, NACK, backpressure).
    Invoke => "invoke",
    /// Range flushes (Morph unregistration, cache drains).
    Flush => "flush",
}

impl Phase {
    /// Looks a phase up by its stable name.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated host wall-time per phase.
///
/// `ns[i]` is *self time*: nanoseconds spent in phase `Phase::ALL[i]`
/// excluding nested scopes. `calls[i]` counts scope entries. Always
/// compiled (the struct is part of [`crate::Stats`]); only populated when
/// the `self-profile` feature is on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Self-time nanoseconds per phase, indexed like [`Phase::ALL`].
    pub ns: [u64; NUM_PHASES],
    /// Scope entries per phase, indexed like [`Phase::ALL`].
    pub calls: [u64; NUM_PHASES],
}

impl PhaseProfile {
    /// Self-time nanoseconds attributed to `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Scope entries recorded for `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Total self-time across all phases (equals wall time covered by at
    /// least one scope).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_ns() == 0 && self.calls.iter().all(|&c| c == 0)
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for i in 0..NUM_PHASES {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// `(phase, self_ns, calls)` tuples sorted by descending self time
    /// (ties broken by declaration order), skipping phases never entered.
    pub fn ranked(&self) -> Vec<(Phase, u64, u64)> {
        let mut v: Vec<(Phase, u64, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, self.ns(p), self.calls(p)))
            .filter(|&(_, ns, calls)| ns > 0 || calls > 0)
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }
}

#[cfg(feature = "self-profile")]
mod active {
    use super::{PhaseProfile, NUM_PHASES};
    use std::cell::RefCell;
    use std::time::Instant;

    /// One open scope: its phase and the start of its current *segment*
    /// (segments restart when a nested scope opens or closes).
    struct Frame {
        phase: usize,
        seg_start: Instant,
    }

    #[derive(Default)]
    struct State {
        ns: [u64; NUM_PHASES],
        calls: [u64; NUM_PHASES],
        stack: Vec<Frame>,
    }

    thread_local! {
        static STATE: RefCell<State> = RefCell::default();
    }

    /// Closes its scope on drop, crediting the elapsed segment to the
    /// scope's phase and resuming the parent's segment.
    pub struct ScopeGuard {
        _not_send: std::marker::PhantomData<*const ()>,
    }

    /// Opens a scope for `phase`, pausing the enclosing scope's segment.
    pub fn enter(phase: super::Phase) -> ScopeGuard {
        STATE.with(|cell| {
            let now = Instant::now();
            let state = &mut *cell.borrow_mut();
            if let Some(top) = state.stack.last_mut() {
                state.ns[top.phase] += now.duration_since(top.seg_start).as_nanos() as u64;
                top.seg_start = now;
            }
            state.calls[phase as usize] += 1;
            state.stack.push(Frame {
                phase: phase as usize,
                seg_start: now,
            });
        });
        ScopeGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            STATE.with(|cell| {
                let now = Instant::now();
                let state = &mut *cell.borrow_mut();
                if let Some(frame) = state.stack.pop() {
                    state.ns[frame.phase] += now.duration_since(frame.seg_start).as_nanos() as u64;
                }
                if let Some(parent) = state.stack.last_mut() {
                    parent.seg_start = now;
                }
            });
        }
    }

    /// Drains this thread's accumulated profile, resetting the counters.
    /// Open scopes keep running; their in-flight segments land in the next
    /// drain.
    pub fn take() -> PhaseProfile {
        STATE.with(|cell| {
            let state = &mut *cell.borrow_mut();
            let profile = PhaseProfile {
                ns: state.ns,
                calls: state.calls,
            };
            state.ns = [0; NUM_PHASES];
            state.calls = [0; NUM_PHASES];
            profile
        })
    }
}

#[cfg(feature = "self-profile")]
pub use active::{enter, ScopeGuard};

/// Drains the calling thread's accumulated profile.
///
/// With the `self-profile` feature off this is a const empty profile; the
/// signature stays so callers need no feature gates.
#[cfg(feature = "self-profile")]
pub fn take() -> PhaseProfile {
    active::take()
}

/// Drains the calling thread's accumulated profile.
///
/// With the `self-profile` feature off this is a const empty profile; the
/// signature stays so callers need no feature gates.
#[cfg(not(feature = "self-profile"))]
pub fn take() -> PhaseProfile {
    PhaseProfile::default()
}

/// Opens a scoped phase timer for the rest of the enclosing block.
/// Expands to nothing (beyond evaluating its argument, a `Copy` enum)
/// without the `self-profile` feature.
#[cfg(feature = "self-profile")]
macro_rules! prof_scope {
    ($phase:expr) => {
        let _prof_guard = $crate::perf::enter($phase);
    };
}

/// Opens a scoped phase timer for the rest of the enclosing block.
/// Expands to nothing (beyond evaluating its argument, a `Copy` enum)
/// without the `self-profile` feature.
#[cfg(not(feature = "self-profile"))]
macro_rules! prof_scope {
    ($phase:expr) => {
        let _ = $phase;
    };
}

pub(crate) use prof_scope;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn profile_merge_and_rank() {
        let mut a = PhaseProfile::default();
        assert!(a.is_empty());
        a.ns[Phase::Cache as usize] = 50;
        a.calls[Phase::Cache as usize] = 2;
        let mut b = PhaseProfile::default();
        b.ns[Phase::Cache as usize] = 25;
        b.calls[Phase::Cache as usize] = 1;
        b.ns[Phase::Dram as usize] = 100;
        b.calls[Phase::Dram as usize] = 4;
        a.merge(&b);
        assert_eq!(a.ns(Phase::Cache), 75);
        assert_eq!(a.calls(Phase::Cache), 3);
        assert_eq!(a.total_ns(), 175);
        let ranked = a.ranked();
        assert_eq!(ranked[0].0, Phase::Dram);
        assert_eq!(ranked[1], (Phase::Cache, 75, 3));
        assert_eq!(ranked.len(), 2, "untouched phases are skipped");
    }

    #[test]
    fn take_matches_feature_state() {
        // Drain anything earlier tests on this thread left behind.
        let _ = take();
        {
            prof_scope!(Phase::Flush);
            std::hint::black_box(0u64);
        }
        let profile = take();
        if cfg!(feature = "self-profile") {
            assert_eq!(profile.calls(Phase::Flush), 1);
            assert_eq!(profile.ranked().len(), 1);
        } else {
            assert!(profile.is_empty(), "no-op without the feature");
        }
        assert!(take().is_empty(), "take drains");
    }

    #[cfg(feature = "self-profile")]
    #[test]
    fn nested_scopes_attribute_self_time() {
        let _ = take();
        let spin = |ns: u64| {
            let start = std::time::Instant::now();
            while (start.elapsed().as_nanos() as u64) < ns {
                std::hint::black_box(0u64);
            }
        };
        {
            prof_scope!(Phase::Sched);
            spin(200_000);
            {
                prof_scope!(Phase::Cache);
                spin(200_000);
            }
            spin(200_000);
        }
        let p = take();
        assert_eq!(p.calls(Phase::Sched), 1);
        assert_eq!(p.calls(Phase::Cache), 1);
        // Self time: the outer scope must not absorb the inner scope's
        // 200µs; both phases saw real time.
        assert!(p.ns(Phase::Cache) >= 200_000, "{p:?}");
        assert!(p.ns(Phase::Sched) >= 400_000, "{p:?}");
        assert!(
            p.ns(Phase::Sched) < p.total_ns(),
            "inner time was not double-counted: {p:?}"
        );
    }
}
