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
//! levi-journal v3 quick=<0|1> fault=<seed>:<horizon>|none
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
//! Records are hex-armored `levi_isa::codec` bytes, so the file stays
//! line-oriented whatever a record holds, and every append is synced to
//! disk before it counts as done.
//!
//! `levi-bench run --resume` opens one journal and hands it to the
//! runner in [`crate::runner::RunCtx::journal`]; each sweep job records
//! its outcome there as soon as it finishes and passes its golden check.
//! Without a journal, sweeps run unjournaled.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{Mutex, OnceLock};

use levi_isa::codec::{Reader, Writer};

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

/// The header's version names the record encoding. v3 records carry the
/// snapshot codec's version-2 trace events; v2 records (trace events by
/// name) are refused rather than misread.
const HEADER_PREFIX: &str = "levi-journal v3 ";

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
/// `(figure, sweep index, label)`, the file they are appended to, and the
/// sweep counter of the figure being run.
pub struct Journal {
    path: String,
    entries: HashMap<(String, u32, String), RunOutcome>,
    /// The figure `next_sweep` counts for. A figure's sweeps run one
    /// after another, so a plain counter reproduces the same indices on
    /// every (re-)invocation.
    figure: String,
    next_sweep: u32,
}

impl Journal {
    /// Opens `path`, creating it with a fresh header if absent. An
    /// existing journal must carry a header for the same `params`; its
    /// `done` records become the resume set.
    ///
    /// # Errors
    /// I/O failures, a corrupt header or interior record, and a
    /// parameter mismatch are each a typed [`JournalError`]. A torn final
    /// line is tolerated (that is the record in flight when a previous
    /// run died).
    pub fn open(path: &str, params: RunParams) -> Result<Journal, JournalError> {
        let io = |e: std::io::Error| JournalError::Io(format!("{path}: {e}"));
        let mut journal = Journal {
            path: path.to_string(),
            entries: HashMap::new(),
            figure: String::new(),
            next_sweep: 0,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(path, format!("{}\n", header(&params))).map_err(io)?;
                return Ok(journal);
            }
            Err(e) => return Err(io(e)),
        };
        let lines: Vec<&str> = text.lines().collect();
        let first = lines.first().ok_or_else(|| JournalError::Malformed {
            line: 1,
            what: "empty journal (no header)".into(),
        })?;
        let written = parse_header(first).ok_or_else(|| JournalError::Malformed {
            line: 1,
            what: format!("bad header {first:?}"),
        })?;
        if written != params {
            return Err(JournalError::Mismatch {
                journal: written,
                run: params,
            });
        }
        for (i, line) in lines.iter().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            match parse_record(line) {
                Ok((figure, sweep, label, outcome)) => {
                    journal.entries.insert((figure, sweep, label), outcome);
                }
                // The torn tail of a crashed run is expected; damage
                // anywhere else is corruption.
                Err(_) if i + 1 == lines.len() => eprintln!(
                    "levi-bench: journal {path}: ignoring torn final line \
                     (in-flight record of a crashed run)"
                ),
                Err(what) => return Err(JournalError::Malformed { line: i + 1, what }),
            }
        }
        Ok(journal)
    }

    /// Claims the next sweep index for `figure`: 0 for its first sweep,
    /// then 1, 2, ... for each further sweep it runs.
    pub fn begin_sweep(&mut self, figure: &str) -> u32 {
        if self.figure != figure {
            self.figure = figure.to_string();
            self.next_sweep = 0;
        }
        self.next_sweep += 1;
        self.next_sweep - 1
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
            "done {figure} {sweep} {}\n",
            hex_encode(&encode_outcome(label, outcome))
        );
        std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut f| {
                f.write_all(line.as_bytes())?;
                f.sync_data()
            })
            .map_err(|e| JournalError::Io(format!("{}: {e}", self.path)))?;
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

/// Hex-armors a binary payload onto one line.
fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes a [`hex_encode`]d payload. Odd length and non-hex digits are
/// errors (the torn-tail signal).
fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let s = s.trim_end();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex blob".into());
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        let byte = u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| "bad hex digit")?;
        out.push(byte);
    }
    Ok(out)
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

    /// A fresh journal path in a directory of its own.
    fn temp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("levi-journal-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("j.journal").to_str().unwrap().to_string()
    }

    #[test]
    fn hex_round_trips_and_rejects_damage() {
        assert_eq!(hex_encode(&[0x00, 0xab, 0xff]), "00abff");
        assert_eq!(hex_decode("00abff").unwrap(), vec![0x00, 0xab, 0xff]);
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("0g").is_err());
        assert!(hex_decode("abc").is_err());
    }

    #[test]
    fn open_creates_with_header_and_reloads_records() {
        let path = &temp("create");
        let mut j = Journal::open(path, FULL).expect("fresh journal");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "levi-journal v3 quick=0 fault=none\n",
            "a fresh journal holds only its header"
        );
        j.record("fig", 0, "A", &sample_outcome("A")).unwrap();
        j.record("fig", 1, "A", &sample_outcome("A")).unwrap();
        drop(j);
        let text = std::fs::read_to_string(path).unwrap();
        let kinds: Vec<&str> = text.lines().skip(1).map(|l| &l[..11]).collect();
        assert_eq!(kinds, ["done fig 0 ", "done fig 1 "]);
        let j = Journal::open(path, FULL).expect("reopen");
        assert_eq!(j.len(), 2);
        assert!(j.lookup("fig", 1, "A").is_some());
    }

    #[test]
    fn blank_lines_are_skipped_and_last_line_is_flagged() {
        let path = &temp("blanks");
        let mut j = Journal::open(path, FULL).unwrap();
        j.record("fig", 0, "A", &sample_outcome("A")).unwrap();
        j.record("fig", 0, "B", &sample_outcome("B")).unwrap();
        drop(j);
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (hdr, a, b) = (lines[0], lines[1], lines[2]);

        std::fs::write(path, format!("{hdr}\n{a}\n\n{b}")).unwrap();
        assert_eq!(Journal::open(path, FULL).expect("blank skipped").len(), 2);

        // Torn on the last line (line 4): a crash artifact.
        std::fs::write(path, format!("{hdr}\n{a}\n\n{}", &b[..30])).unwrap();
        assert_eq!(Journal::open(path, FULL).expect("torn tail").len(), 1);

        // The same damage followed by a blank line is no longer the last
        // line, so it is corruption.
        std::fs::write(path, format!("{hdr}\n{a}\n\n{}\n\n", &b[..30])).unwrap();
        match Journal::open(path, FULL) {
            Err(JournalError::Malformed { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected Malformed, got {:?}", other.err()),
        }
    }

    #[test]
    fn an_empty_journal_is_malformed() {
        let path = &temp("empty");
        std::fs::write(path, "").unwrap();
        match Journal::open(path, FULL) {
            Err(JournalError::Malformed { line: 1, what }) => {
                assert!(what.contains("no header"), "{what}");
            }
            other => panic!("expected Malformed, got {:?}", other.err()),
        }
    }

    #[test]
    fn sweep_indices_restart_for_each_figure() {
        let mut j = Journal::open(&temp("sweeps"), FULL).unwrap();
        assert_eq!(j.begin_sweep("a"), 0);
        assert_eq!(j.begin_sweep("a"), 1);
        assert_eq!(j.begin_sweep("b"), 0);
        assert_eq!(j.begin_sweep("a"), 0);
    }

    #[test]
    fn journal_persists_and_resumes() {
        let path = &temp("persist");

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
    }

    #[test]
    fn journal_is_bound_to_the_fault_plan() {
        let path = &temp("fault");

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
    }

    #[test]
    fn older_journal_versions_are_malformed() {
        let quick = RunParams {
            quick: true,
            ..FULL
        };
        // v2 records hold stats whose trace events the current codec
        // would misread; v1 predates the fault-plan binding.
        for old in [
            "levi-journal v1 quick=1",
            "levi-journal v2 quick=1 fault=none",
        ] {
            let path = &temp("old");
            std::fs::write(path, format!("{old}\n")).unwrap();
            match Journal::open(path, quick) {
                Err(JournalError::Malformed { line: 1, .. }) => {}
                other => panic!("{old}: expected Malformed, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn torn_final_line_is_skipped_but_interior_damage_is_an_error() {
        let path = &temp("torn");

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
        assert_eq!(header(&FULL), "levi-journal v3 quick=0 fault=none");
        assert_eq!(header(&faulted), "levi-journal v3 quick=1 fault=3:5000");
        for params in [FULL, faulted] {
            assert_eq!(parse_header(&header(&params)), Some(params));
        }
        for bad in [
            "levi-journal v3 quick=1",
            "levi-journal v3 quick=2 fault=none",
            "levi-journal v3 quick=1 fault=3",
            "levi-journal v3 quick=1 fault=03:5000",
            "levi-journal v3 quick=1 fault=none ",
        ] {
            assert_eq!(parse_header(bad), None, "{bad}");
        }
    }
}
