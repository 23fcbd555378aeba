//! The crash-recoverable run journal behind `levi-bench run --resume`.
//!
//! A journaled invocation appends one `done` record per completed sweep
//! variant — label, cycles, energy, full stats (via the `levi-sim`
//! snapshot codec), golden checksum, and aux values — to a line-oriented
//! text file. Re-running with `--resume` on the same journal loads those
//! records and skips the completed variants; because every simulated run
//! is a pure function of its configuration, a resumed invocation's merged
//! report is identical to an uninterrupted one.
//!
//! # File format
//!
//! ```text
//! levi-journal v2 quick=<0|1> fault=<seed>:<horizon>|none
//! done <figure> <sweep> <hex-encoded outcome record>
//! ```
//!
//! One record per line. `<sweep>` numbers the sweeps a figure runs (0 for
//! the common single-sweep figures), so a figure that sweeps twice cannot
//! alias records. The header binds the journal to the [`RunParams`] it
//! was written under, and a run with other parameters refuses to resume
//! from it. A torn **final** line — the record that was being written
//! when the process died — is skipped on load; corruption anywhere else
//! is a typed error.
//!
//! The runner talks to one process-wide journal, installed by
//! [`activate`] (`levi-bench run --resume`); with none active every call
//! is a no-op and sweeps run exactly as before.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use levi_isa::codec::{Reader, Writer};

use crate::codec::{hex_decode, hex_encode, LineStore};
use levi_sim::{EnergyBreakdown, Stats};
use levi_workloads::harness::{FaultSpec, RunOutcome};
use levi_workloads::metrics::RunMetrics;

/// The run parameters a journal's records depend on besides their
/// `(figure, sweep, label)` key: the scale and the fault plan. Records
/// from other parameters are not interchangeable, and nothing downstream
/// would notice the mix: a faulted run still matches its golden checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunParams {
    /// Reduced scale (`--quick`).
    pub quick: bool,
    /// The injected fault plan (`--fault-plan`), if any.
    pub fault: Option<FaultSpec>,
}

impl std::fmt::Display for RunParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quick={} fault=", u8::from(self.quick))?;
        match self.fault {
            Some(spec) => write!(f, "{}:{}", spec.seed, spec.horizon),
            None => write!(f, "none"),
        }
    }
}

const HEADER_PREFIX: &str = "levi-journal v2 ";

/// The journal header line for the given run parameters.
fn header(params: &RunParams) -> String {
    format!("{HEADER_PREFIX}{params}")
}

/// Parses a header line; `None` for any line [`header`] would not write,
/// including the headers of older journal versions.
fn parse_header(line: &str) -> Option<RunParams> {
    let (quick, fault) = line.strip_prefix(HEADER_PREFIX)?.split_once(' ')?;
    let quick = match quick {
        "quick=0" => false,
        "quick=1" => true,
        _ => return None,
    };
    let fault = match fault.strip_prefix("fault=")? {
        "none" => None,
        spec => {
            let (seed, horizon) = spec.split_once(':')?;
            Some(FaultSpec {
                seed: seed.parse().ok()?,
                horizon: horizon.parse().ok()?,
            })
        }
    };
    let params = RunParams { quick, fault };
    (header(&params) == line).then_some(params)
}

/// Why a journal could not be opened or parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(String),
    /// The header or an interior record is malformed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// The journal was written under other run parameters (scale or
    /// fault plan); resuming would merge incomparable outcomes.
    Mismatch {
        /// Parameters recorded in the journal header.
        journal: RunParams,
        /// Parameters of the resuming invocation.
        run: RunParams,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Malformed { line, what } => {
                write!(f, "journal line {line} malformed: {what}")
            }
            JournalError::Mismatch { journal, run } => write!(
                f,
                "journal was written with {journal} but this run has {run} \
                 (delete the journal or match --quick and --fault-plan)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A run journal: completed-variant records keyed by
/// `(figure, sweep index, label)`, plus the append handle.
pub struct Journal {
    store: LineStore,
    entries: HashMap<(String, u32, String), RunOutcome>,
}

impl Journal {
    /// Opens `path`, creating it with a fresh header if absent. An
    /// existing journal must carry a header for the same `params`; its
    /// `done` records become the resume set. Framing (header line, hex-armored
    /// records, synced appends) rides on [`crate::codec::LineStore`].
    ///
    /// # Errors
    /// I/O failures, a corrupt header or interior record, and a
    /// parameter mismatch are each a typed [`JournalError`]. A torn final line is
    /// tolerated (that is the record in flight when a previous run died).
    pub fn open(path: &str, params: RunParams) -> Result<Journal, JournalError> {
        let mut entries = HashMap::new();
        let (store, loaded) =
            LineStore::open(path, &header(&params)).map_err(|e| JournalError::Io(e.to_string()))?;
        if let Some(loaded) = loaded {
            let first = loaded.header.ok_or_else(|| JournalError::Malformed {
                line: 1,
                what: "empty journal (no header)".into(),
            })?;
            let journal = parse_header(&first).ok_or_else(|| JournalError::Malformed {
                line: 1,
                what: format!("bad header {first:?}"),
            })?;
            if journal != params {
                return Err(JournalError::Mismatch {
                    journal,
                    run: params,
                });
            }
            for rec in loaded.records {
                match parse_record(&rec.text) {
                    Ok((figure, sweep, label, outcome)) => {
                        entries.insert((figure, sweep, label), outcome);
                    }
                    Err(what) => {
                        // The torn tail of a crashed run is expected;
                        // damage anywhere else is corruption.
                        if rec.is_last {
                            eprintln!(
                                "levi-bench: journal {path}: ignoring torn final line \
                                 (in-flight record of a crashed run)"
                            );
                        } else {
                            return Err(JournalError::Malformed {
                                line: rec.line,
                                what,
                            });
                        }
                    }
                }
            }
        }
        Ok(Journal { store, entries })
    }

    /// The recorded outcome for `(figure, sweep, label)`, if present.
    pub fn lookup(&self, figure: &str, sweep: u32, label: &str) -> Option<RunOutcome> {
        self.entries
            .get(&(figure.to_string(), sweep, label.to_string()))
            .cloned()
    }

    /// How many completed-variant records the journal holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a completion record and syncs it to disk, so a kill
    /// arriving right after a variant finishes cannot lose its work.
    ///
    /// # Errors
    /// Propagates I/O failures as [`JournalError::Io`].
    pub fn record(
        &mut self,
        figure: &str,
        sweep: u32,
        label: &str,
        outcome: &RunOutcome,
    ) -> Result<(), JournalError> {
        let line = format!(
            "done {figure} {sweep} {}",
            hex_encode(&encode_outcome(label, outcome))
        );
        self.store
            .append(&line)
            .map_err(|e| JournalError::Io(e.to_string()))?;
        self.entries.insert(
            (figure.to_string(), sweep, label.to_string()),
            outcome.clone(),
        );
        Ok(())
    }
}

fn parse_record(line: &str) -> Result<(String, u32, String, RunOutcome), String> {
    let mut parts = line.splitn(4, ' ');
    let kind = parts.next().unwrap_or_default();
    if kind != "done" {
        return Err(format!("unknown record kind {kind:?}"));
    }
    let figure = parts.next().ok_or("missing figure")?.to_string();
    let sweep: u32 = parts
        .next()
        .ok_or("missing sweep index")?
        .parse()
        .map_err(|_| "bad sweep index")?;
    let blob = hex_decode(parts.next().ok_or("missing record blob")?)?;
    let (label, outcome) = decode_outcome(&blob).map_err(|e| format!("record blob: {e}"))?;
    Ok((figure, sweep, label, outcome))
}

// ---------------------------------------------------------------------------
// Outcome codec (label + RunOutcome <-> bytes, via levi_isa::codec)
// ---------------------------------------------------------------------------

fn encode_outcome(label: &str, o: &RunOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(label);
    w.str(&o.metrics.label);
    w.u64(o.metrics.cycles);
    for v in [
        o.metrics.energy.core_pj,
        o.metrics.energy.engine_pj,
        o.metrics.energy.cache_pj,
        o.metrics.energy.noc_pj,
        o.metrics.energy.dram_pj,
    ] {
        w.f64(v);
    }
    w.bytes(&o.metrics.stats.to_snapshot_bytes());
    w.u64(o.checksum);
    w.u64(o.aux.len() as u64);
    for (name, value) in &o.aux {
        w.str(name);
        w.u64(*value);
    }
    w.into_bytes()
}

fn decode_outcome(bytes: &[u8]) -> Result<(String, RunOutcome), String> {
    let mut r = Reader::new(bytes);
    let fail = |e: levi_isa::codec::CodecError| e.to_string();
    let label = r.str().map_err(fail)?.to_string();
    let metrics_label = r.str().map_err(fail)?.to_string();
    let cycles = r.u64().map_err(fail)?;
    let mut e = [0f64; 5];
    for v in &mut e {
        *v = r.f64().map_err(fail)?;
    }
    let stats_bytes = r.bytes().map_err(fail)?.to_vec();
    let stats = Stats::from_snapshot_bytes(&stats_bytes).map_err(|e| e.to_string())?;
    let checksum = r.u64().map_err(fail)?;
    let n_aux = r.u64().map_err(fail)? as usize;
    if n_aux > 1024 {
        return Err("implausible aux count".into());
    }
    let mut aux = Vec::with_capacity(n_aux);
    for _ in 0..n_aux {
        let name = r.str().map_err(fail)?.to_string();
        let value = r.u64().map_err(fail)?;
        aux.push((intern(&name), value));
    }
    if !r.is_exhausted() {
        return Err("trailing bytes in record".into());
    }
    let outcome = RunOutcome {
        metrics: RunMetrics {
            label: metrics_label,
            cycles,
            energy: EnergyBreakdown {
                core_pj: e[0],
                engine_pj: e[1],
                cache_pj: e[2],
                noc_pj: e[3],
                dram_pj: e[4],
            },
            stats,
        },
        checksum,
        aux,
    };
    Ok((label, outcome))
}

/// Interns an aux-value name back to `&'static str` (the in-memory type).
/// The leak is bounded by the vocabulary of distinct aux names.
fn intern(s: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("intern table poisoned");
    if let Some(hit) = names.iter().find(|n| **n == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    names.push(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// The process-wide active journal (runner integration)
// ---------------------------------------------------------------------------

struct Active {
    journal: Journal,
    /// The figure the sweep counter refers to; sweeps within one figure
    /// run sequentially, so a plain counter reproduces the same indices
    /// on every (re-)invocation.
    figure: String,
    next_sweep: u32,
}

static ACTIVE: OnceLock<Mutex<Active>> = OnceLock::new();

/// Makes `journal` the process-wide journal every later sweep resumes
/// from and records into.
///
/// # Panics
/// Panics if a journal is already active.
pub fn activate(journal: Journal) {
    let active = Mutex::new(Active {
        journal,
        figure: String::new(),
        next_sweep: 0,
    });
    assert!(ACTIVE.set(active).is_ok(), "a journal is already active");
}

/// Claims the next sweep index for `figure` in the active journal.
/// Returns `None` when no journal is active, in which case sweeps run
/// unjournaled.
pub fn begin_sweep(figure: &str) -> Option<u32> {
    let mut a = ACTIVE.get()?.lock().expect("journal poisoned");
    if a.figure != figure {
        a.figure = figure.to_string();
        a.next_sweep = 0;
    }
    let idx = a.next_sweep;
    a.next_sweep += 1;
    Some(idx)
}

/// The recorded outcome for `(figure, sweep, label)`, if a journal is
/// active and holds one.
pub fn lookup(figure: &str, sweep: u32, label: &str) -> Option<RunOutcome> {
    let a = ACTIVE.get()?.lock().expect("journal poisoned");
    a.journal.lookup(figure, sweep, label)
}

/// Records a completed variant in the active journal (no-op when none).
///
/// # Panics
/// Panics if the append fails: silently losing completion records would
/// make a later `--resume` re-run work it believed was saved.
pub fn record(figure: &str, sweep: u32, label: &str, outcome: &RunOutcome) {
    let Some(m) = ACTIVE.get() else {
        return;
    };
    let mut a = m.lock().expect("journal poisoned");
    a.journal
        .record(figure, sweep, label, outcome)
        .unwrap_or_else(|e| panic!("journal append failed: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use leviathan::{System, SystemConfig};

    const FULL: RunParams = RunParams {
        quick: false,
        fault: None,
    };

    fn sample_outcome(label: &str) -> RunOutcome {
        let sys = System::try_new(SystemConfig::small()).expect("small config is valid");
        let mut m = RunMetrics::capture(label, &sys);
        m.cycles = 12_345;
        m.energy.core_pj = 1.5;
        m.energy.dram_pj = 2.5;
        m.stats.invokes = 7;
        m.stats.invoke_rtt.record(40);
        RunOutcome::new(m, 0xfeed_beef)
            .with_aux("edges", 42)
            .with_aux("rounds", 3)
    }

    #[test]
    fn outcome_round_trips_through_the_codec() {
        let o = sample_outcome("Leviathan");
        let bytes = encode_outcome("Leviathan", &o);
        let (label, back) = decode_outcome(&bytes).expect("decodes");
        assert_eq!(label, "Leviathan");
        assert_eq!(back.metrics.label, "Leviathan");
        assert_eq!(back.metrics.cycles, 12_345);
        assert_eq!(back.metrics.energy.core_pj, 1.5);
        assert_eq!(back.metrics.energy.dram_pj, 2.5);
        assert_eq!(back.checksum, 0xfeed_beef);
        assert_eq!(back.aux_value("edges"), Some(42));
        assert_eq!(back.aux_value("rounds"), Some(3));
        assert_eq!(back.metrics.stats.digest(), o.metrics.stats.digest());
    }

    #[test]
    fn journal_persists_and_resumes() {
        let dir = std::env::temp_dir().join("levi-journal-test-persist");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.journal");
        let path = path.to_str().unwrap();

        let mut j = Journal::open(path, FULL).expect("fresh journal");
        assert!(j.is_empty());
        let o = sample_outcome("Baseline");
        j.record("fig05_phi", 0, "Baseline", &o).expect("append");
        drop(j);

        let j = Journal::open(path, FULL).expect("reopen");
        assert_eq!(j.len(), 1);
        let back = j.lookup("fig05_phi", 0, "Baseline").expect("recorded");
        assert_eq!(back.metrics.cycles, 12_345);
        assert!(j.lookup("fig05_phi", 1, "Baseline").is_none());
        assert!(j.lookup("fig05_phi", 0, "Leviathan").is_none());
        assert!(j.lookup("other", 0, "Baseline").is_none());

        // Scale mismatch is refused.
        let quick = RunParams {
            quick: true,
            ..FULL
        };
        match Journal::open(path, quick) {
            Err(JournalError::Mismatch { journal, run }) => {
                assert_eq!(journal, FULL);
                assert_eq!(run, quick);
            }
            other => panic!("expected Mismatch, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_bound_to_the_fault_plan() {
        let dir = std::env::temp_dir().join("levi-journal-test-fault");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.journal");
        let path = path.to_str().unwrap();

        let faulted = RunParams {
            quick: true,
            fault: Some(FaultSpec::new(3)),
        };
        let mut j = Journal::open(path, faulted).expect("fresh journal");
        j.record("fig05_phi", 0, "Baseline", &sample_outcome("Baseline"))
            .expect("append");
        drop(j);
        assert_eq!(Journal::open(path, faulted).expect("same plan").len(), 1);

        // A fault-free resume, or one under another plan, must not merge
        // the faulted cycle counts.
        for run in [
            RunParams {
                fault: None,
                ..faulted
            },
            RunParams {
                fault: Some(FaultSpec::new(4)),
                ..faulted
            },
            RunParams {
                fault: Some(FaultSpec {
                    horizon: 1000,
                    ..FaultSpec::new(3)
                }),
                ..faulted
            },
        ] {
            match Journal::open(path, run) {
                Err(e @ JournalError::Mismatch { .. }) => {
                    assert_eq!(
                        e,
                        JournalError::Mismatch {
                            journal: faulted,
                            run
                        }
                    );
                    assert!(e.to_string().contains("fault=3:200000"), "{e}");
                }
                other => panic!("expected Mismatch for {run}, got {:?}", other.err()),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v1_header_is_malformed() {
        let dir = std::env::temp_dir().join("levi-journal-test-v1");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.journal");
        let path = path.to_str().unwrap();
        std::fs::write(path, "levi-journal v1 quick=1\n").unwrap();
        let quick = RunParams {
            quick: true,
            ..FULL
        };
        match Journal::open(path, quick) {
            Err(JournalError::Malformed { line: 1, .. }) => {}
            other => panic!("expected Malformed, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_skipped_but_interior_damage_is_an_error() {
        let dir = std::env::temp_dir().join("levi-journal-test-torn");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.journal");
        let path = path.to_str().unwrap();

        let mut j = Journal::open(path, FULL).expect("fresh journal");
        j.record("fig", 0, "A", &sample_outcome("A")).unwrap();
        j.record("fig", 0, "B", &sample_outcome("B")).unwrap();
        drop(j);

        // Tear the final line, as a kill mid-append would.
        let text = std::fs::read_to_string(path).unwrap();
        let torn = &text[..text.len() - 20];
        std::fs::write(path, torn).unwrap();
        let j = Journal::open(path, FULL).expect("torn tail tolerated");
        assert_eq!(j.len(), 1, "only the intact record survives");
        assert!(j.lookup("fig", 0, "A").is_some());
        drop(j);

        // Now damage an interior line: that is corruption, not a crash.
        let mut lines: Vec<String> = std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        let mut j = Journal::open(path, FULL).unwrap();
        j.record("fig", 0, "C", &sample_outcome("C")).unwrap();
        drop(j);
        let tail = std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .to_string();
        lines[1] = lines[1][..lines[1].len() - 9].to_string();
        lines.push(tail);
        std::fs::write(path, format!("{}\n", lines.join("\n"))).unwrap();
        match Journal::open(path, FULL) {
            Err(JournalError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_names_the_scale_and_fault_plan() {
        let faulted = RunParams {
            quick: true,
            fault: Some(FaultSpec {
                seed: 3,
                horizon: 5000,
            }),
        };
        assert_eq!(header(&FULL), "levi-journal v2 quick=0 fault=none");
        assert_eq!(header(&faulted), "levi-journal v2 quick=1 fault=3:5000");
        for params in [FULL, faulted] {
            assert_eq!(parse_header(&header(&params)), Some(params));
        }
        for bad in [
            "levi-journal v2 quick=1",
            "levi-journal v2 quick=2 fault=none",
            "levi-journal v2 quick=1 fault=3",
            "levi-journal v2 quick=1 fault=03:5000",
            "levi-journal v2 quick=1 fault=none ",
        ] {
            assert_eq!(parse_header(bad), None, "{bad}");
        }
    }
}
