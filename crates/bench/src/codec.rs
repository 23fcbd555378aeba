//! On-disk framing for the crash journal behind `levi-bench run --resume`
//! ([`crate::journal`]).
//!
//! The journal persists records across process lifetimes, which needs a
//! self-describing header line, binary payloads that survive a text-file
//! round trip, appends that are synced before they count as durable, and
//! tolerance for the torn final line a kill mid-append leaves behind:
//!
//! * [`hex_encode`] / [`hex_decode`] — the payload armor. Record blobs
//!   are `levi_isa::codec` bytes hex-armored onto one line, so framing
//!   stays line-oriented no matter what the payload contains.
//! * [`LineStore`] — open-or-create with a header line, enumerate
//!   records with their positions (so the caller can apply the torn-tail
//!   policy), and synced appends.
//!
//! The *semantic* layer stays with the journal, which treats a malformed
//! final record as a crash artifact and malformed interior records as
//! typed errors. `LineStore` only reports what is on disk and where.

use std::io::Write as _;

/// Why a [`LineStore`] operation failed. Purely I/O: content problems
/// are the caller's to classify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreError(pub String);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line store I/O error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

/// One non-blank record line of an existing store file.
#[derive(Clone, Debug)]
pub struct Record {
    /// 1-based line number in the file (for error messages).
    pub line: usize,
    /// The record text, excluding the newline.
    pub text: String,
    /// True when this record is the final line of the file — the only
    /// position where damage is a plausible crash artifact rather than
    /// corruption.
    pub is_last: bool,
}

/// The parsed contents of an existing store file.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// The first line of the file, or `None` for an empty file.
    pub header: Option<String>,
    /// Every non-blank line after the header, in file order.
    pub records: Vec<Record>,
}

/// An append-only line file with a one-line self-describing header.
#[derive(Debug)]
pub struct LineStore {
    path: String,
}

impl LineStore {
    /// Opens `path`. An absent file is created holding just
    /// `fresh_header`; an existing file is read and returned as
    /// [`Loaded`] for the caller to validate (header match, record
    /// parsing, torn-tail policy).
    ///
    /// # Errors
    /// Propagates I/O failures as [`StoreError`].
    pub fn open(path: &str, fresh_header: &str) -> Result<(LineStore, Option<Loaded>), StoreError> {
        let store = LineStore {
            path: path.to_string(),
        };
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let lines: Vec<&str> = text.lines().collect();
                let header = lines.first().map(|l| l.to_string());
                let last = lines.len();
                let records = lines
                    .iter()
                    .enumerate()
                    .skip(1)
                    .filter(|(_, l)| !l.trim().is_empty())
                    .map(|(i, l)| Record {
                        line: i + 1,
                        text: l.to_string(),
                        is_last: i + 1 == last,
                    })
                    .collect();
                Ok((store, Some(Loaded { header, records })))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                store.reset(fresh_header)?;
                Ok((store, None))
            }
            Err(e) => Err(StoreError(format!("{path}: {e}"))),
        }
    }

    /// Appends one record line and syncs it to disk, so a kill arriving
    /// right after the append cannot lose it.
    ///
    /// # Errors
    /// Propagates I/O failures as [`StoreError`].
    pub fn append(&self, record: &str) -> Result<(), StoreError> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError(format!("{}: {e}", self.path)))?;
        f.write_all(format!("{record}\n").as_bytes())
            .and_then(|()| f.sync_data())
            .map_err(|e| StoreError(format!("{}: {e}", self.path)))
    }

    /// Truncates the file back to a fresh header.
    fn reset(&self, fresh_header: &str) -> Result<(), StoreError> {
        std::fs::write(&self.path, format!("{fresh_header}\n"))
            .map_err(|e| StoreError(format!("{}: {e}", self.path)))
    }
}

/// Hex-armors a binary payload onto one line.
pub fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes a [`hex_encode`]d payload.
///
/// # Errors
/// Odd length and non-hex digits are errors (the torn-tail signal).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("levi-codec-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.lines").to_str().unwrap().to_string()
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
        let path = temp("create");
        let (store, loaded) = LineStore::open(&path, "test-store v1").unwrap();
        assert!(loaded.is_none(), "fresh file has nothing to load");
        store.append("alpha 1").unwrap();
        store.append("beta 2").unwrap();

        let (_, loaded) = LineStore::open(&path, "test-store v1").unwrap();
        let loaded = loaded.expect("existing file loads");
        assert_eq!(loaded.header.as_deref(), Some("test-store v1"));
        let texts: Vec<&str> = loaded.records.iter().map(|r| r.text.as_str()).collect();
        assert_eq!(texts, ["alpha 1", "beta 2"]);
        assert_eq!(loaded.records[0].line, 2);
        assert!(!loaded.records[0].is_last);
        assert!(loaded.records[1].is_last);
    }

    #[test]
    fn blank_lines_are_skipped_and_last_line_is_flagged() {
        let path = temp("blanks");
        std::fs::write(&path, "hdr\nrec-a\n\nrec-b").unwrap();
        let (_, loaded) = LineStore::open(&path, "hdr").unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].line, 2);
        assert!(!loaded.records[0].is_last);
        assert_eq!(loaded.records[1].line, 4);
        assert!(loaded.records[1].is_last);
    }

    #[test]
    fn reset_truncates_to_a_fresh_header() {
        let path = temp("reset");
        let (store, _) = LineStore::open(&path, "hdr v1").unwrap();
        store.append("junk").unwrap();
        store.reset("hdr v2").unwrap();
        let (_, loaded) = LineStore::open(&path, "hdr v2").unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.header.as_deref(), Some("hdr v2"));
        assert!(loaded.records.is_empty());
    }

    #[test]
    fn empty_file_loads_with_no_header() {
        let path = temp("empty");
        std::fs::write(&path, "").unwrap();
        let (_, loaded) = LineStore::open(&path, "hdr").unwrap();
        let loaded = loaded.unwrap();
        assert!(loaded.header.is_none());
        assert!(loaded.records.is_empty());
    }
}
