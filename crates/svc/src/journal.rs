//! Crash-safe append-only job journal.
//!
//! The journal makes async admissions durable: every accepted async job
//! is recorded **before** its `202 Accepted` leaves the server
//! (write-ahead), and every completion is recorded when the worker
//! finishes. After a crash — including `kill -9` — the engine replays
//! the journal on startup: finished jobs are restored with their exact
//! response bytes (so polling them answers byte-identically to the
//! pre-crash server), and accepted-but-unfinished jobs are re-enqueued
//! and re-run. Because scheduling is deterministic, the re-run produces
//! the same bytes the lost run would have.
//!
//! # On-disk format
//!
//! A flat sequence of length-prefixed, checksummed frames, encoded and
//! scanned by the store's segment codec (`store/segment.rs`):
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a checksum][JSON payload]
//! ```
//!
//! Each [`append`](Journal::append) is a single `write(2)` of one whole
//! frame, so a crash can only ever truncate the **tail** of the file
//! mid-frame. [`Journal::open`] stops replay at the first short or
//! checksum-failing frame and truncates the file back to the last
//! intact record, so recovery never trusts torn bytes. No `fsync` is
//! issued: data handed to `write(2)` survives process death (it lives
//! in the page cache); only whole-machine power loss can lose the tail,
//! and the truncating replay handles that too.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Map, Value};

use crate::store::segment;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// An async submission was admitted; `body` is the original request
    /// body, so replay can re-resolve and re-run the job.
    Accepted {
        /// Content-hash job id.
        id: String,
        /// The original `POST /v1/schedule` body.
        body: String,
    },
    /// The job finished; `body` is the exact response body served.
    Done {
        /// Content-hash job id.
        id: String,
        /// Whether the response came from the degraded EDF fallback.
        degraded: bool,
        /// The rendered response body.
        body: String,
    },
    /// The job finished and its response bytes are durable in the
    /// persistent schedule store ([`crate::store`]) — the journal
    /// records only the fact, not the bytes, which keeps it bounded.
    /// Replay resolves the body from the store by the id alone, whose
    /// two 64-bit halves are the store index's key, and accepts the
    /// record only if its stored full key hashes back to the id. A
    /// store miss falls back to a re-run from the `Accepted` body
    /// (deterministic scheduling reproduces the same bytes).
    DoneStored {
        /// Content-hash job id.
        id: String,
        /// Whether the response came from the degraded EDF fallback.
        degraded: bool,
    },
    /// The job failed terminally.
    Failed {
        /// Content-hash job id.
        id: String,
        /// The failure message.
        error: String,
    },
}

impl Record {
    /// The job id this record belongs to.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Record::Accepted { id, .. }
            | Record::Done { id, .. }
            | Record::DoneStored { id, .. }
            | Record::Failed { id, .. } => id,
        }
    }

    fn to_json(&self) -> String {
        let mut m = Map::new();
        match self {
            Record::Accepted { id, body } => {
                m.insert("t", Value::String("acc".to_owned()));
                m.insert("id", Value::String(id.clone()));
                m.insert("body", Value::String(body.clone()));
            }
            Record::Done { id, degraded, body } => {
                m.insert("t", Value::String("done".to_owned()));
                m.insert("id", Value::String(id.clone()));
                m.insert("degraded", Value::Bool(*degraded));
                m.insert("body", Value::String(body.clone()));
            }
            Record::DoneStored { id, degraded } => {
                m.insert("t", Value::String("done-stored".to_owned()));
                m.insert("id", Value::String(id.clone()));
                m.insert("degraded", Value::Bool(*degraded));
            }
            Record::Failed { id, error } => {
                m.insert("t", Value::String("fail".to_owned()));
                m.insert("id", Value::String(id.clone()));
                m.insert("error", Value::String(error.clone()));
            }
        }
        serde_json::to_string(&Value::Object(m)).expect("serialization is infallible")
    }

    fn from_json(text: &str) -> Option<Record> {
        let value: Value = serde_json::from_str(text).ok()?;
        let obj = match &value {
            Value::Object(m) => m,
            _ => return None,
        };
        let field = |name: &str| -> Option<String> {
            match obj.get(name) {
                Some(Value::String(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let id = field("id")?;
        match field("t")?.as_str() {
            "acc" => Some(Record::Accepted {
                id,
                body: field("body")?,
            }),
            "done" => Some(Record::Done {
                id,
                degraded: matches!(obj.get("degraded"), Some(Value::Bool(true))),
                body: field("body")?,
            }),
            "done-stored" => Some(Record::DoneStored {
                id,
                degraded: matches!(obj.get("degraded"), Some(Value::Bool(true))),
            }),
            "fail" => Some(Record::Failed {
                id,
                error: field("error")?,
            }),
            _ => None,
        }
    }
}

/// Encodes one record as a complete frame: length prefix, checksum,
/// JSON payload.
fn encode_frame(record: &Record) -> Vec<u8> {
    segment::encode_frame(record.to_json().as_bytes())
}

/// An open journal file; appends are serialized through a mutex.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replaying every
    /// intact record already on disk. A torn or corrupt tail — the
    /// signature of a crash mid-append — is truncated away so new
    /// records extend the last intact one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (open, read, truncate).
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Vec<Record>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let scan = segment::scan_frames(&buf, |payload| {
            std::str::from_utf8(payload)
                .ok()
                .and_then(Record::from_json)
        });
        if scan.valid_len != buf.len() as u64 {
            file.set_len(scan.valid_len)?;
        }
        let records = scan.records.into_iter().map(|f| f.record).collect();
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                path,
            },
            records,
        ))
    }

    /// Appends one record as a single atomic-enough write: the whole
    /// frame goes down in one `write_all`, so a crash can only truncate
    /// it, never interleave it with another record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write failures.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        self.file
            .lock()
            .expect("journal lock")
            .write_all(&encode_frame(record))
    }

    /// Rewrites the journal to hold exactly `keep`, atomically: the
    /// replacement is written to a sibling temp file and renamed over
    /// the journal, so a crash at any point leaves either the old or
    /// the new journal intact, never a mix. Used at startup once
    /// replayed response bytes are durable in the schedule store —
    /// records whose bodies the store can serve no longer need to ride
    /// in the journal, which keeps it bounded across restart cycles.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the old journal (and
    /// the open handle) remain in effect.
    pub fn compact(&self, keep: &[Record]) -> io::Result<()> {
        let mut bytes = Vec::new();
        for record in keep {
            bytes.extend_from_slice(&encode_frame(record));
        }
        let mut tmp_name = self.path.as_os_str().to_owned();
        tmp_name.push(".compact-tmp");
        let tmp = PathBuf::from(tmp_name);

        // Hold the append lock across the swap so no record lands in
        // the file we are about to replace.
        let mut guard = self.file.lock().expect("journal lock");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        *guard = file;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A unique temp path per test, cleaned up on drop.
    struct TempJournal(PathBuf);

    impl TempJournal {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("noc-journal-{}-{name}", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempJournal(path)
        }
    }

    impl Drop for TempJournal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample() -> Vec<Record> {
        vec![
            Record::Accepted {
                id: "a1".into(),
                body: r#"{"graph":{},"platform":"mesh:2x2"}"#.into(),
            },
            Record::Done {
                id: "a1".into(),
                degraded: true,
                body: r#"{"scheduler":"edf"}"#.into(),
            },
            Record::Failed {
                id: "b2".into(),
                error: "boom".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip_across_reopen() {
        let tmp = TempJournal::new("round-trip");
        let (journal, replayed) = Journal::open(&tmp.0).expect("opens");
        assert!(replayed.is_empty());
        for r in sample() {
            journal.append(&r).expect("appends");
        }
        drop(journal);
        let (_journal, replayed) = Journal::open(&tmp.0).expect("reopens");
        assert_eq!(replayed, sample());
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let tmp = TempJournal::new("torn-tail");
        let (journal, _) = Journal::open(&tmp.0).expect("opens");
        for r in sample() {
            journal.append(&r).expect("appends");
        }
        drop(journal);
        // Simulate a crash mid-append: chop half the last frame off.
        let bytes = std::fs::read(&tmp.0).expect("reads");
        std::fs::write(&tmp.0, &bytes[..bytes.len() - 10]).expect("truncates");

        let (journal, replayed) = Journal::open(&tmp.0).expect("recovers");
        assert_eq!(replayed, sample()[..2], "intact prefix survives");
        let extra = Record::Failed {
            id: "c3".into(),
            error: "later".into(),
        };
        journal.append(&extra).expect("appends after recovery");
        drop(journal);
        let (_journal, replayed) = Journal::open(&tmp.0).expect("reopens");
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[2], extra);
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let tmp = TempJournal::new("corrupt");
        let (journal, _) = Journal::open(&tmp.0).expect("opens");
        for r in sample() {
            journal.append(&r).expect("appends");
        }
        drop(journal);
        let mut bytes = std::fs::read(&tmp.0).expect("reads");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip a payload byte of the final record
        std::fs::write(&tmp.0, &bytes).expect("writes");
        let (_journal, replayed) = Journal::open(&tmp.0).expect("recovers");
        assert_eq!(replayed, sample()[..2], "corrupt record is dropped");
    }

    #[test]
    fn absurd_length_prefix_is_truncated_and_appendable() {
        let tmp = TempJournal::new("absurd-length");
        let (journal, _) = Journal::open(&tmp.0).expect("opens");
        for r in sample() {
            journal.append(&r).expect("appends");
        }
        drop(journal);
        // A last frame whose length prefix claims ~4 GiB: the scan must
        // stop before it rather than trust (or allocate for) it.
        let mut bytes = std::fs::read(&tmp.0).expect("reads");
        let intact = bytes.len() as u64;
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xab; 8 + 32]);
        std::fs::write(&tmp.0, &bytes).expect("writes");

        let (journal, replayed) = Journal::open(&tmp.0).expect("recovers");
        assert_eq!(replayed, sample(), "the valid prefix replays");
        assert_eq!(std::fs::metadata(&tmp.0).expect("meta").len(), intact);
        let extra = Record::Failed {
            id: "c3".into(),
            error: "later".into(),
        };
        journal.append(&extra).expect("appends after recovery");
        drop(journal);
        let (_journal, replayed) = Journal::open(&tmp.0).expect("reopens");
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[3], extra);
    }

    #[test]
    fn empty_and_missing_files_replay_nothing() {
        let tmp = TempJournal::new("empty");
        let (_journal, replayed) = Journal::open(&tmp.0).expect("creates");
        assert!(replayed.is_empty());
    }

    #[test]
    fn done_stored_records_round_trip() {
        let tmp = TempJournal::new("done-stored");
        let record = Record::DoneStored {
            id: "a1".into(),
            degraded: true,
        };
        let (journal, _) = Journal::open(&tmp.0).expect("opens");
        journal.append(&record).expect("appends");
        drop(journal);
        let (_journal, replayed) = Journal::open(&tmp.0).expect("reopens");
        assert_eq!(replayed, vec![record]);
    }

    #[test]
    fn compaction_keeps_exactly_the_requested_records_and_stays_appendable() {
        let tmp = TempJournal::new("compact");
        let (journal, _) = Journal::open(&tmp.0).expect("opens");
        for r in sample() {
            journal.append(&r).expect("appends");
        }
        let size_before = std::fs::metadata(&tmp.0).expect("meta").len();
        let keep = vec![sample()[0].clone()];
        journal.compact(&keep).expect("compacts");
        assert!(
            std::fs::metadata(&tmp.0).expect("meta").len() < size_before,
            "compaction must shrink the journal"
        );
        let extra = Record::DoneStored {
            id: "a1".into(),
            degraded: false,
        };
        journal.append(&extra).expect("appends after compaction");
        drop(journal);
        let (_journal, replayed) = Journal::open(&tmp.0).expect("reopens");
        assert_eq!(replayed, vec![keep[0].clone(), extra]);
    }

    #[test]
    fn compaction_to_empty_is_valid() {
        let tmp = TempJournal::new("compact-empty");
        let (journal, _) = Journal::open(&tmp.0).expect("opens");
        for r in sample() {
            journal.append(&r).expect("appends");
        }
        journal.compact(&[]).expect("compacts");
        assert_eq!(std::fs::metadata(&tmp.0).expect("meta").len(), 0);
        drop(journal);
        let (_journal, replayed) = Journal::open(&tmp.0).expect("reopens");
        assert!(replayed.is_empty());
    }
}
