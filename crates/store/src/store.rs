//! The durable store: atomic checksummed snapshots plus an append-only
//! journal per pipeline stage.
//!
//! Layout inside the checkpoint directory:
//!
//! ```text
//! <dir>/MANIFEST          stage -> (seq, checksum) index, informational
//! <dir>/<stage>.snap      current snapshot (magic, version, checksum)
//! <dir>/<stage>.snap.prev previous generation, fallback if .snap is bad
//! <dir>/<stage>.journal   CRC-framed incremental records since seq 0
//! ```
//!
//! Snapshot writes are crash-safe by construction: encode to
//! `<stage>.snap.tmp`, fsync, demote the old snapshot to `.prev`, rename
//! the temp file into place (rename is atomic), then rewrite the manifest
//! the same way. A crash between any two steps leaves either the old or
//! the new generation fully intact. Journal reads stop at the first frame
//! whose length or CRC does not validate — a torn append loses at most
//! the tail that was being written, never earlier records.

use crate::codec::{crc32, fnv1a64, ByteReader, ByteWriter};
use crate::config::StoreConfig;
use crate::error::StoreError;
use crate::vfs::{StdFs, Vfs};
use cafc_obs::Obs;
use std::path::{Path, PathBuf};

/// On-disk magic prefix for snapshot files.
const MAGIC: &[u8; 8] = b"CAFCSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A decoded snapshot: the sequence number progress had reached and the
/// stage-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Units of progress covered by this snapshot.
    pub seq: u64,
    /// Stage-encoded state.
    pub payload: Vec<u8>,
}

/// A decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Record kind discriminant (stage-defined).
    pub kind: u8,
    /// Stage-encoded record body.
    pub payload: Vec<u8>,
}

/// Durable state for the pipeline stages, generic over the [`Vfs`].
pub struct Store {
    vfs: Box<dyn Vfs>,
    dir: PathBuf,
    config: StoreConfig,
    obs: Obs,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Open (creating if needed) a store rooted at `dir` on the real
    /// filesystem.
    pub fn open(dir: &Path, config: StoreConfig, obs: Obs) -> Result<Store, StoreError> {
        Store::open_with_vfs(Box::new(StdFs), dir, config, obs)
    }

    /// Open a store over an explicit [`Vfs`] — tests pass a
    /// [`ChaosFs`](crate::ChaosFs) here.
    pub fn open_with_vfs(
        mut vfs: Box<dyn Vfs>,
        dir: &Path,
        config: StoreConfig,
        obs: Obs,
    ) -> Result<Store, StoreError> {
        vfs.create_dir_all(dir)?;
        Ok(Store {
            vfs,
            dir: dir.to_owned(),
            config,
            obs,
        })
    }

    /// The configured checkpoint cadence and durability options.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snap_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.snap"))
    }

    fn prev_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.snap.prev"))
    }

    fn tmp_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.snap.tmp"))
    }

    fn journal_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.journal"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    // ---- snapshots -----------------------------------------------------

    fn encode_snapshot(stage: &str, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_str(stage);
        w.put_u64(seq);
        w.put_bytes(payload);
        let mut bytes = w.into_bytes();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    fn decode_snapshot(stage: &str, path: &str, bytes: &[u8]) -> Result<Snapshot, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Corrupt {
                path: path.to_owned(),
                detail: format!("snapshot too small ({} bytes)", bytes.len()),
            });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(tail);
        let stored = u64::from_le_bytes(stored);
        if fnv1a64(body) != stored {
            return Err(StoreError::Corrupt {
                path: path.to_owned(),
                detail: "snapshot checksum mismatch".to_owned(),
            });
        }
        let mut r = ByteReader::new(body, path);
        if r.get_bytes()? != MAGIC {
            return Err(StoreError::Corrupt {
                path: path.to_owned(),
                detail: "bad snapshot magic".to_owned(),
            });
        }
        let version = r.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::VersionMismatch {
                path: path.to_owned(),
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let found_stage = r.get_str()?.to_owned();
        if found_stage != stage {
            return Err(StoreError::StageMismatch {
                path: path.to_owned(),
                expected: stage.to_owned(),
                found: found_stage,
            });
        }
        let seq = r.get_u64()?;
        let payload = r.get_bytes()?.to_vec();
        Ok(Snapshot { seq, payload })
    }

    /// Atomically persist a snapshot for `stage` covering progress up to
    /// `seq`. The previous snapshot survives as `.snap.prev` so a fault
    /// while writing this one cannot lose more than one generation.
    pub fn snapshot(&mut self, stage: &str, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let bytes = Store::encode_snapshot(stage, seq, payload);
        let checksum = fnv1a64(&bytes[..bytes.len() - 8]);
        let tmp = self.tmp_path(stage);
        let snap = self.snap_path(stage);
        let prev = self.prev_path(stage);
        self.vfs.write(&tmp, &bytes)?;
        self.vfs.sync(&tmp)?;
        if self.vfs.exists(&snap) {
            self.vfs.rename(&snap, &prev)?;
        }
        self.vfs.rename(&tmp, &snap)?;
        self.obs.incr("store.snapshots");
        // The manifest is an informational index; it is written with the
        // same temp+rename dance but a fault here is not load-bearing —
        // recovery validates the snapshot files themselves.
        self.rewrite_manifest(stage, seq, checksum)?;
        Ok(())
    }

    fn rewrite_manifest(&mut self, stage: &str, seq: u64, checksum: u64) -> Result<(), StoreError> {
        let mut entries = self.read_manifest();
        match entries.iter_mut().find(|(s, _, _)| s == stage) {
            Some(entry) => {
                entry.1 = seq;
                entry.2 = checksum;
            }
            None => entries.push((stage.to_owned(), seq, checksum)),
        }
        entries.sort();
        let mut w = ByteWriter::new();
        w.put_usize(entries.len());
        for (s, q, c) in &entries {
            w.put_str(s);
            w.put_u64(*q);
            w.put_u64(*c);
        }
        let mut bytes = w.into_bytes();
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let tmp = self.dir.join("MANIFEST.tmp");
        let manifest = self.manifest_path();
        self.vfs.write(&tmp, &bytes)?;
        self.vfs.sync(&tmp)?;
        self.vfs.rename(&tmp, &manifest)
    }

    /// The manifest's (stage, seq, checksum) entries; a missing or corrupt
    /// manifest yields an empty list (and counts a discard) because the
    /// snapshots themselves are the source of truth.
    pub fn read_manifest(&mut self) -> Vec<(String, u64, u64)> {
        let path = self.manifest_path();
        if !self.vfs.exists(&path) {
            return Vec::new();
        }
        let Ok(bytes) = self.vfs.read(&path) else {
            return Vec::new();
        };
        match Store::decode_manifest(&bytes) {
            Some(entries) => entries,
            None => {
                self.obs.incr("store.corrupt_discards");
                Vec::new()
            }
        }
    }

    fn decode_manifest(bytes: &[u8]) -> Option<Vec<(String, u64, u64)>> {
        if bytes.len() < 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(tail);
        if fnv1a64(body) != u64::from_le_bytes(stored) {
            return None;
        }
        let mut r = ByteReader::new(body, "MANIFEST");
        let n = r.get_usize().ok()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let s = r.get_str().ok()?.to_owned();
            let q = r.get_u64().ok()?;
            let c = r.get_u64().ok()?;
            entries.push((s, q, c));
        }
        Some(entries)
    }

    /// Load the most recent valid snapshot for `stage`: the current
    /// generation if it validates, else the previous generation, else
    /// `None` (fresh start). Checksum and structural failures fall back a
    /// generation and count `store.corrupt_discards`; version and stage
    /// mismatches are hard errors — they mean the directory belongs to a
    /// different build or pipeline and silently restarting would mask it.
    pub fn load_snapshot(&mut self, stage: &str) -> Result<Option<Snapshot>, StoreError> {
        for path in [self.snap_path(stage), self.prev_path(stage)] {
            if !self.vfs.exists(&path) {
                continue;
            }
            let label = path.display().to_string();
            let bytes = match self.vfs.read(&path) {
                Ok(bytes) => bytes,
                Err(_) => {
                    self.obs.incr("store.corrupt_discards");
                    continue;
                }
            };
            match Store::decode_snapshot(stage, &label, &bytes) {
                Ok(snap) => {
                    self.obs.incr("store.recoveries");
                    return Ok(Some(snap));
                }
                Err(err @ StoreError::VersionMismatch { .. })
                | Err(err @ StoreError::StageMismatch { .. }) => return Err(err),
                Err(_) => {
                    self.obs.incr("store.corrupt_discards");
                }
            }
        }
        Ok(None)
    }

    // ---- journal -------------------------------------------------------

    /// Append one record to `stage`'s journal. The frame is
    /// `u32 len | u32 crc | u8 kind | payload`, CRC over kind+payload, so
    /// recovery can tell a complete frame from a torn tail.
    pub fn journal_append(
        &mut self,
        stage: &str,
        kind: u8,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let mut body = Vec::with_capacity(payload.len() + 1);
        body.push(kind);
        body.extend_from_slice(payload);
        let mut frame = Vec::with_capacity(body.len() + 8);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let path = self.journal_path(stage);
        self.vfs.append(&path, &frame)?;
        self.vfs.sync(&path)?;
        self.obs.incr("store.journal_appends");
        Ok(())
    }

    /// Read every valid journal record for `stage`, stopping at the first
    /// frame that fails length or CRC validation (the conservative prefix).
    /// Discarded tail bytes count `store.corrupt_discards`.
    pub fn journal_records(&mut self, stage: &str) -> Result<Vec<JournalRecord>, StoreError> {
        let path = self.journal_path(stage);
        if !self.vfs.exists(&path) {
            return Ok(Vec::new());
        }
        let bytes = self.vfs.read(&path)?;
        let (records, consumed) = Store::scan_journal(&bytes);
        if consumed < bytes.len() {
            self.obs.incr("store.corrupt_discards");
        }
        Ok(records)
    }

    /// Parse the valid frame prefix; returns records plus consumed length.
    fn scan_journal(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
        let mut records = Vec::new();
        let mut pos = 0usize;
        while bytes.len() - pos >= 8 {
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&bytes[pos..pos + 4]);
            let len = u32::from_le_bytes(len4) as usize;
            let mut crc4 = [0u8; 4];
            crc4.copy_from_slice(&bytes[pos + 4..pos + 8]);
            let stored_crc = u32::from_le_bytes(crc4);
            let Some(end) = pos.checked_add(8).and_then(|s| s.checked_add(len)) else {
                break;
            };
            if len == 0 || end > bytes.len() {
                break;
            }
            let body = &bytes[pos + 8..end];
            if crc32(body) != stored_crc {
                break;
            }
            records.push(JournalRecord {
                kind: body[0],
                payload: body[1..].to_vec(),
            });
            pos = end;
        }
        (records, pos)
    }

    /// Rewrite `stage`'s journal as its valid prefix only, atomically.
    /// Called once at resume so a torn tail left by the crash does not get
    /// appended after.
    pub fn journal_truncate_to_valid(&mut self, stage: &str) -> Result<(), StoreError> {
        let path = self.journal_path(stage);
        if !self.vfs.exists(&path) {
            return Ok(());
        }
        let bytes = self.vfs.read(&path)?;
        let (_, consumed) = Store::scan_journal(&bytes);
        if consumed == bytes.len() {
            return Ok(());
        }
        self.obs.incr("store.corrupt_discards");
        let tmp = self.dir.join(format!("{stage}.journal.tmp"));
        self.vfs.write(&tmp, &bytes[..consumed])?;
        self.vfs.sync(&tmp)?;
        self.vfs.rename(&tmp, &path)
    }

    /// Drop all durable state for `stage` — a fresh (non-`--resume`) run
    /// starts from nothing.
    pub fn reset_stage(&mut self, stage: &str) -> Result<(), StoreError> {
        for path in [
            self.snap_path(stage),
            self.prev_path(stage),
            self.tmp_path(stage),
            self.journal_path(stage),
        ] {
            self.vfs.remove(&path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{ChaosFs, FaultKind, FaultPlan};
    use std::collections::HashMap;

    // Minimal in-memory Vfs (mirrors the one in vfs.rs tests).
    #[derive(Debug, Default, Clone)]
    struct MemFs {
        files: std::rc::Rc<std::cell::RefCell<HashMap<PathBuf, Vec<u8>>>>,
    }

    impl Vfs for MemFs {
        fn read(&mut self, path: &Path) -> Result<Vec<u8>, StoreError> {
            self.files
                .borrow()
                .get(path)
                .cloned()
                .ok_or_else(|| StoreError::Io {
                    op: "read",
                    path: path.display().to_string(),
                    detail: "not found".into(),
                })
        }
        fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
            self.files
                .borrow_mut()
                .insert(path.to_owned(), bytes.to_vec());
            Ok(())
        }
        fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
            self.files
                .borrow_mut()
                .entry(path.to_owned())
                .or_default()
                .extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self, _path: &Path) -> Result<(), StoreError> {
            Ok(())
        }
        fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
            let mut files = self.files.borrow_mut();
            match files.remove(from) {
                Some(data) => {
                    files.insert(to.to_owned(), data);
                    Ok(())
                }
                None => Err(StoreError::Io {
                    op: "rename",
                    path: from.display().to_string(),
                    detail: "not found".into(),
                }),
            }
        }
        fn create_dir_all(&mut self, _path: &Path) -> Result<(), StoreError> {
            Ok(())
        }
        fn exists(&mut self, path: &Path) -> bool {
            self.files.borrow().contains_key(path)
        }
        fn remove(&mut self, path: &Path) -> Result<(), StoreError> {
            self.files.borrow_mut().remove(path);
            Ok(())
        }
    }

    fn mem_store(fs: MemFs) -> Store {
        Store::open_with_vfs(
            Box::new(fs),
            Path::new("ckpt"),
            StoreConfig::new(),
            Obs::disabled(),
        )
        .expect("open")
    }

    #[test]
    fn snapshot_round_trips() {
        let mut store = mem_store(MemFs::default());
        store.snapshot("crawl", 42, b"payload").unwrap();
        let snap = store.load_snapshot("crawl").unwrap().expect("present");
        assert_eq!(snap.seq, 42);
        assert_eq!(snap.payload, b"payload");
        assert_eq!(store.read_manifest().len(), 1);
    }

    #[test]
    fn missing_snapshot_is_none() {
        let mut store = mem_store(MemFs::default());
        assert_eq!(store.load_snapshot("crawl").unwrap(), None);
    }

    #[test]
    fn corrupt_snapshot_falls_back_a_generation() {
        let fs = MemFs::default();
        let mut store = mem_store(fs.clone());
        store.snapshot("crawl", 1, b"first").unwrap();
        store.snapshot("crawl", 2, b"second").unwrap();
        // Corrupt the current generation by hand.
        let snap_path = PathBuf::from("ckpt/crawl.snap");
        let mut bytes = fs.files.borrow().get(&snap_path).unwrap().clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs.files.borrow_mut().insert(snap_path, bytes);
        let snap = store
            .load_snapshot("crawl")
            .unwrap()
            .expect("prev survives");
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.payload, b"first");
    }

    #[test]
    fn stage_mismatch_is_a_hard_error() {
        let fs = MemFs::default();
        let mut store = mem_store(fs.clone());
        store.snapshot("crawl", 1, b"x").unwrap();
        let crawl_bytes = fs
            .files
            .borrow()
            .get(&PathBuf::from("ckpt/crawl.snap"))
            .unwrap()
            .clone();
        fs.files
            .borrow_mut()
            .insert(PathBuf::from("ckpt/kmeans.snap"), crawl_bytes);
        let err = store.load_snapshot("kmeans").unwrap_err();
        assert!(matches!(err, StoreError::StageMismatch { .. }), "{err}");
    }

    #[test]
    fn journal_round_trips_and_stops_at_torn_tail() {
        let fs = MemFs::default();
        let mut store = mem_store(fs.clone());
        store.journal_append("crawl", 1, b"one").unwrap();
        store.journal_append("crawl", 2, b"two").unwrap();
        store.journal_append("crawl", 3, b"three").unwrap();
        // Tear the last frame.
        let path = PathBuf::from("ckpt/crawl.journal");
        let mut bytes = fs.files.borrow().get(&path).unwrap().clone();
        bytes.truncate(bytes.len() - 2);
        fs.files.borrow_mut().insert(path.clone(), bytes);
        let records = store.journal_records("crawl").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, 1);
        assert_eq!(records[0].payload, b"one");
        assert_eq!(records[1].payload, b"two");
        // Truncation rewrites to exactly the valid prefix.
        store.journal_truncate_to_valid("crawl").unwrap();
        let after = store.journal_records("crawl").unwrap();
        assert_eq!(after.len(), 2);
        store.journal_append("crawl", 4, b"four").unwrap();
        assert_eq!(store.journal_records("crawl").unwrap().len(), 3);
    }

    #[test]
    fn journal_bit_flip_discards_from_flip_onward() {
        let fs = MemFs::default();
        let mut store = mem_store(fs.clone());
        for i in 0..5u8 {
            store.journal_append("s", i, &[i; 8]).unwrap();
        }
        let path = PathBuf::from("ckpt/s.journal");
        let mut bytes = fs.files.borrow().get(&path).unwrap().clone();
        let frame = 8 + 9; // header + kind + payload
        bytes[2 * frame + 10] ^= 0x01; // flip a bit inside frame 2's body
        fs.files.borrow_mut().insert(path, bytes);
        let records = store.journal_records("s").unwrap();
        assert_eq!(records.len(), 2, "frames after the flip are discarded");
    }

    #[test]
    fn reset_stage_clears_everything() {
        let mut store = mem_store(MemFs::default());
        store.snapshot("s", 1, b"x").unwrap();
        store.journal_append("s", 0, b"y").unwrap();
        store.reset_stage("s").unwrap();
        assert_eq!(store.load_snapshot("s").unwrap(), None);
        assert!(store.journal_records("s").unwrap().is_empty());
    }

    #[test]
    fn crash_during_snapshot_write_keeps_old_generation() {
        // Fault every mutating op index in turn; after each "crash" the
        // store must still load a valid snapshot (old or new).
        for kind in FaultKind::ALL {
            for at in 0..8u64 {
                let fs = MemFs::default();
                let mut clean = mem_store(fs.clone());
                clean.snapshot("s", 1, b"generation-1").unwrap();
                let clean_ops_baseline = 0; // plan indexes ops of the faulty store only
                let _ = clean_ops_baseline;
                let (chaos, _ctl) =
                    ChaosFs::controlled(fs.clone(), FaultPlan::AtOp { op: at, kind });
                let mut faulty = Store::open_with_vfs(
                    Box::new(chaos),
                    Path::new("ckpt"),
                    StoreConfig::new(),
                    Obs::disabled(),
                )
                .expect("open");
                let _ = faulty.snapshot("s", 2, b"generation-2");
                drop(faulty);
                let mut recovered = mem_store(fs);
                let snap = recovered
                    .load_snapshot("s")
                    .unwrap_or_else(|e| panic!("{}@{at}: {e}", kind.label()));
                let snap = snap.unwrap_or_else(|| panic!("{}@{at}: no generation", kind.label()));
                assert!(
                    snap.payload == b"generation-1" || snap.payload == b"generation-2",
                    "{}@{at}: got {:?}",
                    kind.label(),
                    snap.payload
                );
            }
        }
    }
}
