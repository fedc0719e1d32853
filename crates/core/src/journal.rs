//! Shared framing for durable, checksummed JSONL journals.
//!
//! Two subsystems persist append-only journals: the sweep harness (one
//! row per finished grid cell, `sweep::journal`) and the online service
//! (one row per accepted submission or clock grant,
//! `fairsched_served::journal`). Both need the same wire discipline, so
//! the machinery lives here once:
//!
//! * **Sealed lines.** Every line is a JSON object whose final field is
//!   `"crc"`, the FNV-1a checksum of everything before it. A torn
//!   final line (the process was SIGKILLed mid-write) or a corrupted line
//!   fails [`unseal_line`] or the checksum comparison and is *skipped* on
//!   replay — never trusted, never panicked over.
//! * **Schema versions.** Every body carries `"v":N`; a line from an
//!   unknown (newer) schema degrades to a skip with a warning, not a
//!   crash.
//! * **One codec.** Rows are [`Json`] values: writers build them (see
//!   [`row`]) and [`crate::json`] renders them, so keys come out sorted
//!   (`"crc"` is still appended last); readers get each verified line
//!   parsed once. Floats round-trip through Rust's shortest-representation
//!   `Display`, which keeps replayed rows bit-identical to the run that
//!   wrote them.
//!
//! [`LineWriter`] owns the file half: append-only writes of sealed
//! lines with explicit [`LineWriter::flush`] (kernel handoff — a SIGKILL
//! then loses nothing) and [`LineWriter::sync`] (fsync — a power cut
//! then loses nothing) so each consumer picks its own durability batch
//! size. [`replay_lines`] owns the read half: framing, checksum, parse,
//! and version checks per line, with every skip warned and counted.

use crate::json::{self, Json};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// FNV-1a (64-bit): the journal checksum and the sweep-plan fingerprint.
/// Not cryptographic — it guards against truncation and bit rot, not
/// tampering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Builds a journal row: the entries of `fields` (a JSON object) plus the
/// schema version `"v"` and the record `"kind"` every row carries.
pub fn row(version: u64, kind: &str, fields: Json) -> Json {
    let Json::Obj(mut map) = fields else {
        panic!("journal row fields must be a JSON object, got {fields:?}");
    };
    map.insert("v".into(), Json::UInt(version));
    map.insert("kind".into(), Json::Str(kind.into()));
    Json::Obj(map)
}

/// Renders `row` (a JSON object) as one sealed line:
/// `line = body + ',"crc":N}' + '\n'`, where `body` is the rendered object
/// without its closing `}` and `N = fnv1a(body)`.
pub fn seal_line(row: &Json) -> String {
    let text = row.render();
    let body = text
        .strip_suffix('}')
        .expect("journal rows are JSON objects");
    format!("{body},\"crc\":{}}}\n", fnv1a(body.as_bytes()))
}

/// Splits a sealed line back into `(body, crc)`; `None` when the framing
/// is absent (torn write).
pub fn unseal_line(line: &str) -> Option<(&str, u64)> {
    let line = line.strip_suffix('}')?;
    let at = line.rfind(",\"crc\":")?;
    let crc: u64 = line[at + 7..].parse().ok()?;
    Some((&line[..at], crc))
}

/// The append side of a journal file: sealed lines into a buffered
/// writer, with flush (SIGKILL durability) and fsync (power-cut
/// durability) under the caller's control so each consumer chooses its
/// own batching policy.
pub struct LineWriter {
    out: BufWriter<File>,
}

impl LineWriter {
    /// Creates (truncating) `path`.
    pub fn create(path: &Path) -> std::io::Result<LineWriter> {
        Ok(LineWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens `path` for appending (resume / recovery: the header is
    /// already there).
    pub fn append(path: &Path) -> std::io::Result<LineWriter> {
        Ok(LineWriter {
            out: BufWriter::new(OpenOptions::new().append(true).open(path)?),
        })
    }

    /// Seals `row` and writes the line into the buffer (no flush).
    /// Returns the number of bytes written.
    pub fn write_sealed(&mut self, row: &Json) -> std::io::Result<u64> {
        let line = seal_line(row);
        self.out.write_all(line.as_bytes())?;
        Ok(line.len() as u64)
    }

    /// Hands buffered lines to the kernel: a SIGKILLed process then loses
    /// nothing already written.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }

    /// Flushes and fsyncs: a power cut then loses nothing already
    /// written.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }
}

impl Drop for LineWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// Replays `path` line by line, verifying framing, checksum, JSON syntax,
/// and schema version, and hands each *verified row* to `on_line`. Every
/// failed line — torn, corrupt, unparseable, unknown version, or rejected
/// by `on_line` with a reason — is skipped with a warning carrying
/// `skip_consequence` (e.g. `"the affected cell will re-run"`), never
/// panicked over.
/// Returns the number of skipped lines. A missing file replays as empty.
pub fn replay_lines(
    path: &Path,
    version: u64,
    skip_consequence: &str,
    mut on_line: impl FnMut(&Json) -> Result<(), String>,
) -> std::io::Result<usize> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut text)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    }
    let mut skipped = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let why = match verified_row(line, version) {
            Err(why) => why.to_string(),
            Ok(row) => match on_line(&row) {
                Ok(()) => continue,
                Err(why) => why,
            },
        };
        fairsched_obs::log::warn(format!(
            "journal {}: skipping line {} ({why}); {skip_consequence}",
            path.display(),
            lineno + 1,
        ));
        skipped += 1;
    }
    Ok(skipped)
}

/// One line's framing, checksum, syntax, and version checks: the parsed
/// row, or why the line is skipped.
fn verified_row(line: &str, version: u64) -> Result<Json, &'static str> {
    let (body, crc) = unseal_line(line).ok_or("torn or unframed line")?;
    if fnv1a(body.as_bytes()) != crc {
        return Err("checksum mismatch");
    }
    let row = json::parse(&format!("{body}}}")).map_err(|_| "malformed JSON")?;
    if row.get("v").and_then(Json::as_u64) != Some(version) {
        return Err("unknown schema version");
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fairsched-core-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn n_row(version: u64, n: u64) -> Json {
        row(version, "n", Json::obj([("n", Json::UInt(n))]))
    }

    #[test]
    fn sealed_lines_round_trip_and_verify() {
        let r = row(1, "x", Json::obj([("s", Json::Str("a\"b".into()))]));
        let line = seal_line(&r);
        let body = r#"{"kind":"x","s":"a\"b","v":1"#;
        assert_eq!(
            line,
            format!("{body},\"crc\":{}}}\n", fnv1a(body.as_bytes()))
        );
        let (back, crc) = unseal_line(line.trim_end()).unwrap();
        assert_eq!(back, body);
        assert_eq!(crc, fnv1a(body.as_bytes()));
        assert_eq!(verified_row(line.trim_end(), 1), Ok(r));
    }

    #[test]
    fn torn_corrupt_and_future_lines_are_skipped_with_warnings() {
        let path = tmp("mixed.jsonl");
        let mut w = LineWriter::create(&path).unwrap();
        w.write_sealed(&n_row(1, 1)).unwrap();
        w.write_sealed(&n_row(1, 2)).unwrap();
        w.write_sealed(&n_row(99, 3)).unwrap();
        w.sync().unwrap();
        drop(w);
        // Append a correctly sealed body that is not JSON, then corrupt
        // line 2 and tear the tail.
        let bad = "{\"v\":1,\"n\":";
        let text = std::fs::read_to_string(&path).unwrap()
            + &format!("{bad},\"crc\":{}}}\n", fnv1a(bad.as_bytes()));
        let corrupted = text.replacen("\"n\":2", "\"n\":5", 1) + "{\"v\":1,\"n\":4,\"crc";
        std::fs::write(&path, corrupted).unwrap();
        let mut seen = Vec::new();
        let mut skipped = 0;
        let warnings = fairsched_obs::log::capture(|| {
            skipped = replay_lines(&path, 1, "row ignored", |row| {
                seen.push(row.get("n").and_then(Json::as_u64).unwrap());
                Ok(())
            })
            .unwrap();
        });
        assert_eq!(seen, vec![1]);
        assert_eq!(skipped, 4);
        assert!(warnings.iter().any(|(_, m)| m.contains("checksum")));
        assert!(warnings.iter().any(|(_, m)| m.contains("schema version")));
        assert!(warnings.iter().any(|(_, m)| m.contains("torn")));
        assert!(warnings.iter().any(|(_, m)| m.contains("malformed JSON")));
    }

    #[test]
    fn missing_files_replay_as_empty() {
        let skipped = replay_lines(&tmp("never-written.jsonl"), 1, "ignored", |_| {
            panic!("no lines expected")
        })
        .unwrap();
        assert_eq!(skipped, 0);
    }

    #[test]
    fn consumer_rejections_count_as_skips() {
        let path = tmp("rejected.jsonl");
        let mut w = LineWriter::create(&path).unwrap();
        w.write_sealed(&n_row(1, 1)).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut skipped = 0;
        let warnings = fairsched_obs::log::capture(|| {
            skipped = replay_lines(&path, 1, "ignored", |_| Err("not my kind".into())).unwrap();
        });
        assert_eq!(skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("not my kind")));
    }
}
