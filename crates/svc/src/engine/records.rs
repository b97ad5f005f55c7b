//! Record plumbing: finished records into the store and the journal,
//! and the record reads peers make (internal lookup, digest,
//! replication, anti-entropy).

use std::sync::atomic::Ordering;

use super::Engine;
use crate::cache::JobOutput;
use crate::cluster::{RecordEnvelope, RecordSource};
use crate::hash::ContentHash;
use crate::journal::Record;
use crate::obs::LogLevel;
use crate::store::Store;

impl Engine {
    /// Appends to the journal when one is configured. Append failures
    /// are logged, not fatal: a full disk degrades crash durability,
    /// never availability.
    pub(super) fn journal_append(&self, record: &Record) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(record) {
                self.log.event(
                    LogLevel::Error,
                    "journal-append-failed",
                    &format!("journal append failed: {e}"),
                    &[],
                );
            }
        }
    }

    /// Stores a finished output at its id's content hash: the memory
    /// tier always, the disk tier only when this node owns or
    /// replicates the hash (every node in single-node mode). Returns
    /// disk durability.
    pub(super) fn store_output(&self, id: &str, key: &str, output: &JobOutput) -> bool {
        // Every id is a rendered content hash, so this never fails.
        let Some(hash) = ContentHash::parse(id) else {
            return false;
        };
        let write_disk = self
            .cluster
            .as_ref()
            .is_none_or(|cluster| cluster.stores_locally(id));
        self.store.insert_at(hash, key, output, write_disk)
    }

    /// Serves one internal `GET /v1/internal/lookup/<hash>`: resolves
    /// the 32-hex content hash to the stored record, memory tier first,
    /// then disk. Both tiers are addressed by the hash itself, and the
    /// record's key must hash back to it, so a collision can never
    /// leak another request's bytes.
    #[must_use]
    pub fn internal_lookup(&self, hash: &str) -> Option<(String, JobOutput)> {
        let resolved = self.lookup_record(hash)?;
        if let Some(cluster) = &self.cluster {
            cluster
                .stats()
                .lookups_served
                .fetch_add(1, Ordering::Relaxed);
        }
        Some(resolved)
    }

    /// Resolves a 32-hex content hash to its stored record without
    /// touching the peer-lookup counters — shared by the internal
    /// lookup endpoint, the anti-entropy sweep and journal replay.
    pub(super) fn lookup_record(&self, id: &str) -> Option<(String, JobOutput)> {
        self.store.get_by_id(ContentHash::parse(id)?)
    }

    /// The record ids this node *durably* holds — the body of
    /// `GET /v1/internal/digest`, i.e. what peers may rely on when
    /// deciding whether this node needs a record re-replicated. With
    /// a healthy disk tier that is the disk index (anti-entropy's
    /// convergence target); memory-only nodes report LRU-resident
    /// records instead.
    #[must_use]
    pub fn digest_ids(&self) -> Vec<String> {
        ids_of(match self.store.disk() {
            Some(disk) if !disk.is_degraded() => disk.indexed(),
            _ => self.store.memory_hashes(),
        })
    }

    /// Every id this node can push during anti-entropy: the disk tier
    /// plus memory-resident records — a node may hold bytes it does
    /// not own on disk (e.g. computed during a partition) and must
    /// still be able to push them to their owners.
    fn replicable_ids(&self) -> Vec<String> {
        let mut hashes = self.store.disk().map_or_else(Vec::new, Store::indexed);
        hashes.extend(self.store.memory_hashes());
        ids_of(hashes)
    }

    /// Applies one internal `POST /v1/internal/record/<hash>` body: a
    /// peer's [`RecordEnvelope`] whose canonical key must hash to the
    /// addressed id. The record is persisted like a locally computed
    /// one (ownership-aware), making this node able to serve the
    /// exact bytes after the computing node dies.
    ///
    /// # Errors
    ///
    /// A message describing why the envelope was rejected; the server
    /// answers it as a 400.
    pub fn apply_replica(&self, hash: &str, body: &str) -> Result<(), String> {
        let envelope: RecordEnvelope =
            serde_json::from_str(body).map_err(|e| format!("invalid record envelope: {e}"))?;
        if crate::hash::content_hash(&envelope.key) != hash {
            return Err("envelope key does not hash to the addressed id".to_owned());
        }
        let key = envelope.key.clone();
        let output = envelope.into_output();
        self.store_output(hash, &key, &output);
        if let Some(cluster) = &self.cluster {
            cluster
                .stats()
                .replication_received
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl RecordSource for Engine {
    fn held_ids(&self) -> Vec<String> {
        self.replicable_ids()
    }

    fn fetch(&self, id: &str) -> Option<(String, JobOutput)> {
        self.lookup_record(id)
    }
}

/// Renders content hashes as sorted, distinct 32-hex ids.
fn ids_of(mut hashes: Vec<ContentHash>) -> Vec<String> {
    hashes.sort_unstable();
    hashes.dedup();
    hashes.iter().map(ContentHash::to_string).collect()
}
