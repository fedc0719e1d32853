//! The durable results journal: append-only, checksummed, schema-versioned
//! JSONL.
//!
//! Layout: one header line carrying the plan fingerprint and cell count,
//! then one line per *terminal* cell outcome (ok / failed / timed_out /
//! poisoned — in-process retries are not journaled). The wire discipline —
//! sealed `"crc"` lines, torn-write tolerance, schema-version skipping —
//! lives in the shared [`crate::journal`] module, which the online
//! service's submission journal uses too, and rows are [`Json`] values
//! rendered by [`crate::json`] (keys sorted). This module owns only the
//! sweep schema: what a cell row says and how a replay folds rows into
//! resume state.
//!
//! Floats render with Rust's shortest-round-trip `Display` and parse back
//! exactly, which makes a replayed row's metrics bit-identical to the run
//! that produced them — the property the kill-and-resume test pins. A
//! metric that is not a finite number (`null` on the wire) makes the row
//! malformed; it is never read as a default.

use crate::journal::{replay_lines, row, seal_line, LineWriter};
use crate::json::Json;
use crate::runner::OutcomeMetrics;
use std::path::Path;

/// The journal schema version this build writes.
pub const SCHEMA_VERSION: u64 = 1;

/// How a cell's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Simulation completed; metrics are present.
    Ok,
    /// The simulator rejected the cell with a typed error (deterministic —
    /// never retried).
    Failed,
    /// The watchdog cancelled the cell and every retry.
    TimedOut,
    /// The cell panicked; quarantined with its payload, never retried.
    Poisoned,
}

impl CellStatus {
    /// The status keyword as journaled (`ok`, `failed`, `timed_out`,
    /// `poisoned`).
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::TimedOut => "timed_out",
            CellStatus::Poisoned => "poisoned",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => CellStatus::Ok,
            "failed" => CellStatus::Failed,
            "timed_out" => CellStatus::TimedOut,
            "poisoned" => CellStatus::Poisoned,
            _ => return None,
        })
    }
}

/// One journaled cell outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Dense cell index within the plan.
    pub cell: u64,
    /// Policy identifier (redundant with the index; kept for grep-ability).
    pub policy: String,
    /// Workload generator seed of the cell's trace.
    pub workload_seed: u64,
    /// Fault point label.
    pub fault: String,
    /// The derived per-cell fault sub-seed actually injected.
    pub fault_seed: u64,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Error / panic message for non-ok rows; empty for ok.
    pub detail: String,
    /// The scalar summary, present exactly when `status` is `Ok`.
    pub metrics: Option<OutcomeMetrics>,
}

fn header_row(fingerprint: u64, cells: u64) -> Json {
    row(
        SCHEMA_VERSION,
        "header",
        Json::obj([
            ("fingerprint", Json::UInt(fingerprint)),
            ("cells", Json::UInt(cells)),
        ]),
    )
}

fn f64_array(vals: &[f64]) -> Json {
    Json::Arr(vals.iter().copied().map(Json::Float).collect())
}

/// A fixed-width array of numbers; `None` on any other shape.
fn f64_array_from<const N: usize>(v: Option<&Json>) -> Option<[f64; N]> {
    let vals: Vec<f64> = v?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<_>>()?;
    vals.try_into().ok()
}

impl CellRow {
    /// The journal row: schema version, `"kind":"cell"`, every field, and
    /// the metrics when present.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cell", Json::UInt(self.cell)),
            ("policy", Json::Str(self.policy.clone())),
            ("workload_seed", Json::UInt(self.workload_seed)),
            ("fault", Json::Str(self.fault.clone())),
            ("fault_seed", Json::UInt(self.fault_seed)),
            ("status", Json::Str(self.status.as_str().into())),
            ("attempts", Json::UInt(self.attempts.into())),
            ("detail", Json::Str(self.detail.clone())),
        ];
        if let Some(m) = &self.metrics {
            fields.extend([
                ("percent_unfair", Json::Float(m.percent_unfair)),
                ("average_miss_time", Json::Float(m.average_miss_time)),
                ("average_turnaround", Json::Float(m.average_turnaround)),
                ("loss_of_capacity", Json::Float(m.loss_of_capacity)),
                ("utilization", Json::Float(m.utilization)),
                ("miss_by_width", f64_array(&m.miss_by_width)),
                ("turnaround_by_width", f64_array(&m.turnaround_by_width)),
            ]);
        }
        row(SCHEMA_VERSION, "cell", Json::obj(fields))
    }

    /// The sealed JSONL line (newline included).
    pub fn to_jsonl(&self) -> String {
        seal_line(&self.to_json())
    }

    /// Decodes a cell row; `None` when a field is missing, mistyped, or
    /// out of range (the replay then skips the line).
    pub fn from_json(v: &Json) -> Option<CellRow> {
        let u64_of = |key: &str| v.get(key).and_then(Json::as_u64);
        let f64_of = |key: &str| v.get(key).and_then(Json::as_f64);
        let str_of = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        let status = CellStatus::parse(v.get("status").and_then(Json::as_str)?)?;
        let metrics = if status == CellStatus::Ok {
            Some(OutcomeMetrics {
                percent_unfair: f64_of("percent_unfair")?,
                average_miss_time: f64_of("average_miss_time")?,
                average_turnaround: f64_of("average_turnaround")?,
                loss_of_capacity: f64_of("loss_of_capacity")?,
                utilization: f64_of("utilization")?,
                miss_by_width: f64_array_from(v.get("miss_by_width"))?,
                turnaround_by_width: f64_array_from(v.get("turnaround_by_width"))?,
            })
        } else {
            None
        };
        Some(CellRow {
            cell: u64_of("cell")?,
            policy: str_of("policy")?,
            workload_seed: u64_of("workload_seed")?,
            fault: str_of("fault")?,
            fault_seed: u64_of("fault_seed")?,
            status,
            attempts: u32::try_from(u64_of("attempts")?).ok()?,
            detail: str_of("detail")?,
            metrics,
        })
    }
}

/// Streams sealed rows into the journal. Every row is flushed to the
/// kernel as it is written (a process kill loses nothing), and the file is
/// fsynced every `batch` rows plus on [`JournalWriter::sync`]/drop (a
/// power cut loses at most one batch).
pub struct JournalWriter {
    out: LineWriter,
    pending: usize,
    batch: usize,
}

/// Rows per fsync batch: small enough that a crash re-runs at most a
/// handful of cells, large enough not to serialize the sweep on disk
/// flushes.
const SYNC_BATCH: usize = 8;

impl JournalWriter {
    /// Creates (truncates) `path` and writes the header line.
    pub fn create(path: &Path, fingerprint: u64, cells: u64) -> std::io::Result<Self> {
        let mut w = JournalWriter {
            out: LineWriter::create(path)?,
            pending: 0,
            batch: SYNC_BATCH,
        };
        w.write_sealed(&header_row(fingerprint, cells))?;
        w.sync()?;
        Ok(w)
    }

    /// Opens `path` for appending (resume: the header is already there).
    pub fn append(path: &Path) -> std::io::Result<Self> {
        Ok(JournalWriter {
            out: LineWriter::append(path)?,
            pending: 0,
            batch: SYNC_BATCH,
        })
    }

    fn write_sealed(&mut self, row: &Json) -> std::io::Result<()> {
        let bytes = self.out.write_sealed(row)?;
        // Hand the row to the kernel right away: a SIGKILLed process then
        // loses nothing — only the fsync (power-cut durability) is
        // batched, because it is the expensive half.
        self.out.flush()?;
        fairsched_obs::counters::record_journal_bytes(bytes);
        self.pending += 1;
        if self.pending >= self.batch {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one sealed row.
    pub fn write_row(&mut self, row: &CellRow) -> std::io::Result<()> {
        self.write_sealed(&row.to_json())
    }

    /// Flushes buffered rows and fsyncs the file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.out.sync()?;
        self.pending = 0;
        Ok(())
    }
}

/// What a journal replay recovered.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// The header's plan fingerprint, when a valid header was found.
    pub fingerprint: Option<u64>,
    /// The header's declared cell count.
    pub cells: Option<u64>,
    /// Valid rows in file order. Duplicates (a cell journaled twice across
    /// a kill boundary) are kept; [`JournalReplay::latest_rows`] dedupes.
    pub rows: Vec<CellRow>,
    /// Malformed lines skipped (torn writes, checksum mismatches, unknown
    /// schema versions).
    pub skipped: usize,
}

impl JournalReplay {
    /// The set of cell indices with a journaled terminal outcome — what
    /// `--resume` skips.
    pub fn done_cells(&self) -> std::collections::HashSet<u64> {
        self.rows.iter().map(|r| r.cell).collect()
    }

    /// One row per cell (first write wins — a cell is only ever journaled
    /// again if a torn write hid the first row, in which case the rerun's
    /// row is the only *valid* one), sorted by cell index.
    pub fn latest_rows(&self) -> Vec<CellRow> {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<CellRow> = self
            .rows
            .iter()
            .filter(|r| seen.insert(r.cell))
            .cloned()
            .collect();
        out.sort_by_key(|r| r.cell);
        out
    }
}

/// Replays a journal, skipping (with a warning, never a panic) every line
/// that fails framing, checksum, or schema-version checks. A missing file
/// replays as empty.
pub fn replay(path: &Path) -> std::io::Result<JournalReplay> {
    let mut replay = JournalReplay::default();
    let skipped = replay_lines(
        path,
        SCHEMA_VERSION,
        "the affected cell will re-run",
        |row| match row.get("kind").and_then(Json::as_str) {
            Some("header") => {
                replay.fingerprint = row.get("fingerprint").and_then(Json::as_u64);
                replay.cells = row.get("cells").and_then(Json::as_u64);
                Ok(())
            }
            Some("cell") => match CellRow::from_json(row) {
                Some(row) => {
                    replay.rows.push(row);
                    Ok(())
                }
                None => Err("malformed cell row".into()),
            },
            _ => Err("unknown record kind".into()),
        },
    )?;
    replay.skipped = skipped;
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{fnv1a, unseal_line};

    fn cell_row(cell: u64, status: CellStatus) -> CellRow {
        CellRow {
            cell,
            policy: "cplant24.nomax.all".into(),
            workload_seed: 42,
            fault: "clean".into(),
            fault_seed: 7,
            status,
            attempts: 1,
            detail: if status == CellStatus::Ok {
                String::new()
            } else {
                "it \"broke\"\nbadly".into()
            },
            metrics: (status == CellStatus::Ok).then_some(OutcomeMetrics {
                percent_unfair: 0.25,
                average_miss_time: 123.456789,
                average_turnaround: 1.0e6 + 0.125,
                loss_of_capacity: 0.015625,
                utilization: 0.87,
                miss_by_width: [0.0, 1.5, 2.25, 0.1, 7.0, 0.5, 0.0, 3.75, 9.0, 0.25, 1.0],
                turnaround_by_width: [
                    10.0, 20.0, 30.5, 40.0, 50.0, 60.0, 70.5, 80.0, 90.0, 100.0, 110.0,
                ],
            }),
        }
    }

    fn write_journal(path: &Path, rows: &[CellRow]) {
        let mut w = JournalWriter::create(path, 99, rows.len() as u64).unwrap();
        for r in rows {
            w.write_row(r).unwrap();
        }
        w.sync().unwrap();
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fairsched-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let path = tmp("roundtrip.jsonl");
        let rows = vec![
            cell_row(0, CellStatus::Ok),
            cell_row(1, CellStatus::Poisoned),
        ];
        write_journal(&path, &rows);
        let replay = replay(&path).unwrap();
        assert_eq!(replay.fingerprint, Some(99));
        assert_eq!(replay.cells, Some(2));
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.rows, rows);
    }

    #[test]
    fn truncated_final_line_is_skipped_with_a_warning() {
        let path = tmp("truncated.jsonl");
        write_journal(
            &path,
            &[cell_row(0, CellStatus::Ok), cell_row(1, CellStatus::Ok)],
        );
        // Tear the last line mid-write, as a SIGKILL would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 25];
        std::fs::write(&path, torn).unwrap();
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.skipped, 1);
        assert_eq!(replay.done_cells().len(), 1);
        assert!(warnings
            .iter()
            .any(|(_, m)| m.contains("torn") && m.contains("re-run")));
    }

    #[test]
    fn corrupted_checksum_is_skipped_with_a_warning() {
        let path = tmp("corrupt.jsonl");
        write_journal(
            &path,
            &[cell_row(0, CellStatus::Ok), cell_row(1, CellStatus::Ok)],
        );
        // Flip a metric digit in row 0's line; its crc no longer matches.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("0.25", "0.35", 1);
        assert_ne!(text, corrupted, "corruption must hit");
        std::fs::write(&path, corrupted).unwrap();
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.rows[0].cell, 1);
        assert_eq!(replay.skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("checksum")));
    }

    #[test]
    fn unknown_schema_version_is_skipped_with_a_warning() {
        let path = tmp("version.jsonl");
        write_journal(&path, &[cell_row(0, CellStatus::Ok)]);
        // Append a validly-sealed row from a "future" schema.
        let future = seal_line(&row(999, "cell", Json::obj([("cell", Json::UInt(5))])));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&future);
        std::fs::write(&path, text).unwrap();
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.skipped, 1);
        assert!(warnings.iter().any(|(_, m)| m.contains("schema version")));
        assert!(!replay.done_cells().contains(&5));
    }

    #[test]
    fn missing_file_replays_as_empty() {
        let replay = super::replay(&tmp("never-written.jsonl")).unwrap();
        assert!(replay.rows.is_empty());
        assert_eq!(replay.fingerprint, None);
    }

    #[test]
    fn latest_rows_dedupes_and_sorts() {
        let path = tmp("dedupe.jsonl");
        let mut first = cell_row(3, CellStatus::Ok);
        first.attempts = 1;
        let mut dup = cell_row(3, CellStatus::Ok);
        dup.attempts = 2;
        write_journal(
            &path,
            &[first.clone(), cell_row(1, CellStatus::Failed), dup],
        );
        let replay = super::replay(&path).unwrap();
        let latest = replay.latest_rows();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].cell, 1);
        assert_eq!(latest[1].cell, 3);
        assert_eq!(latest[1].attempts, 1, "first write wins");
    }

    #[test]
    fn detail_strings_survive_escaping() {
        for detail in [
            "it \"broke\"\nbadly",
            "a \\ backslash and a trailing one \\",
            "bell \u{7}, tab \t, nul \u{0}",
            "non-ASCII: déjà vu — 失敗 🚀",
        ] {
            let r = CellRow {
                detail: detail.into(),
                ..cell_row(0, CellStatus::Poisoned)
            };
            let line = r.to_jsonl();
            assert_eq!(line.matches('\n').count(), 1, "{line}");
            let (body, crc) = unseal_line(line.trim_end()).unwrap();
            assert_eq!(fnv1a(body.as_bytes()), crc);
            let parsed = CellRow::from_json(&crate::json::parse(&format!("{body}}}")).unwrap());
            assert_eq!(parsed.as_ref().map(|p| p.detail.as_str()), Some(detail));
            assert_eq!(parsed, Some(r));
        }
    }

    #[test]
    fn null_or_nan_metrics_are_malformed_not_zero() {
        let path = tmp("nan.jsonl");
        let mut nan = cell_row(0, CellStatus::Ok);
        nan.metrics.as_mut().unwrap().average_miss_time = f64::NAN;
        let mut null_width = cell_row(1, CellStatus::Ok);
        null_width.metrics.as_mut().unwrap().miss_by_width[3] = f64::INFINITY;
        write_journal(&path, &[nan, null_width, cell_row(2, CellStatus::Ok)]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"average_miss_time\":null"), "{text}");
        let mut got = None;
        let warnings = fairsched_obs::log::capture(|| got = Some(super::replay(&path).unwrap()));
        let replay = got.unwrap();
        assert_eq!(replay.skipped, 2);
        assert_eq!(replay.rows, vec![cell_row(2, CellStatus::Ok)]);
        assert!(warnings
            .iter()
            .any(|(_, m)| m.contains("malformed cell row")));
    }

    /// The committed size-based journals, whose keys are in field
    /// declaration order rather than sorted, replay in full and exactly.
    #[test]
    fn committed_result_journals_replay_in_full() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (file, fingerprint, first_unfair) in [
            ("size_based.jsonl", 1249493366402676484, 0.09474161378059837),
            (
                "size_based.exact.jsonl",
                5751725067904951324,
                0.056890299184043515,
            ),
        ] {
            let replay = super::replay(&dir.join(file)).unwrap();
            assert_eq!(replay.fingerprint, Some(fingerprint), "{file}");
            assert_eq!(replay.cells, Some(15), "{file}");
            assert_eq!(replay.skipped, 0, "{file}");
            assert_eq!(replay.rows.len(), 15, "{file}");
            let unfair = replay.rows[0].metrics.as_ref().unwrap().percent_unfair;
            assert_eq!(unfair.to_bits(), f64::to_bits(first_unfair), "{file}");
            for r in &replay.rows {
                assert_eq!(r.status, CellStatus::Ok, "{file}");
                let back = CellRow::from_json(&crate::json::parse(&r.to_json().render()).unwrap());
                assert_eq!(back.as_ref(), Some(r), "{file}: re-encoding is lossless");
            }
        }
    }
}
