//! The filesystem boundary: every byte the store reads or writes goes
//! through a [`Vfs`], so the whole durability layer can be exercised
//! against an injected-fault filesystem the same way the crawler is
//! exercised against [`ChaosFetcher`](https://docs.rs/cafc-crawler)
//! faults. [`StdFs`] is the production implementation; [`ChaosFs`] wraps
//! any `Vfs` and deterministically injects torn writes, silent short
//! writes, ENOSPC, EIO-on-fsync and bit-flip corruption.

use crate::error::StoreError;
use cafc_check::Seed;
use std::cell::RefCell;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;

/// Filesystem primitives used by the store. Implementations decide what
/// "the disk" looks like; the store supplies atomicity (temp + fsync +
/// rename) and validation (checksums, torn-tail discard) on top.
pub trait Vfs {
    /// Read a whole file.
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, StoreError>;
    /// Create or truncate `path` and write `bytes`.
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError>;
    /// Append `bytes` to `path`, creating it if absent.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError>;
    /// Flush `path` (file or directory) to stable storage.
    fn sync(&mut self, path: &Path) -> Result<(), StoreError>;
    /// Atomically rename `from` to `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError>;
    /// Create `path` and its parents.
    fn create_dir_all(&mut self, path: &Path) -> Result<(), StoreError>;
    /// Whether `path` exists.
    fn exists(&mut self, path: &Path) -> bool;
    /// Remove a file; missing files are not an error.
    fn remove(&mut self, path: &Path) -> Result<(), StoreError>;
}

fn io_err(op: &'static str, path: &Path, err: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: err.to_string(),
    }
}

/// The production filesystem: `std::fs` with real `fsync`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl Vfs for StdFs {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, StoreError> {
        fs::read(path).map_err(|e| io_err("read", path, e))
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        fs::write(path, bytes).map_err(|e| io_err("write", path, e))
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("append", path, e))?;
        file.write_all(bytes).map_err(|e| io_err("append", path, e))
    }

    fn sync(&mut self, path: &Path) -> Result<(), StoreError> {
        let file = fs::File::open(path).map_err(|e| io_err("sync", path, e))?;
        file.sync_all().map_err(|_| StoreError::SyncFailed {
            path: path.display().to_string(),
        })
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
        fs::rename(from, to).map_err(|e| io_err("rename", from, e))
    }

    fn create_dir_all(&mut self, path: &Path) -> Result<(), StoreError> {
        fs::create_dir_all(path).map_err(|e| io_err("create_dir_all", path, e))
    }

    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&mut self, path: &Path) -> Result<(), StoreError> {
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", path, e)),
        }
    }
}

/// The filesystem fault taxonomy — the store-side mirror of the fetch
/// layer's transient/permanent/truncate classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write persists a prefix of the data, then the process "dies"
    /// (the call returns an error the driver treats as a crash).
    TornWrite,
    /// The write persists a prefix but *reports success* — only the
    /// checksum catches it later.
    ShortWrite,
    /// ENOSPC: nothing is written, the call errors.
    NoSpace,
    /// `fsync` returns EIO; durability of prior writes is unknown.
    SyncEio,
    /// One bit of the payload is flipped before landing on disk; the call
    /// reports success — silent corruption for recovery to detect.
    BitFlip,
}

impl FaultKind {
    /// All fault kinds, for exhaustive crash-test sweeps.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TornWrite,
        FaultKind::ShortWrite,
        FaultKind::NoSpace,
        FaultKind::SyncEio,
        FaultKind::BitFlip,
    ];

    /// Stable lowercase label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn-write",
            FaultKind::ShortWrite => "short-write",
            FaultKind::NoSpace => "no-space",
            FaultKind::SyncEio => "sync-eio",
            FaultKind::BitFlip => "bit-flip",
        }
    }
}

/// When [`ChaosFs`] injects faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlan {
    /// Inject nothing; still count mutating operations (used to measure a
    /// run's op trace before choosing injection points).
    None,
    /// Inject exactly one fault, at the `op`-th mutating operation
    /// (0-based over writes, appends, syncs and renames).
    AtOp {
        /// Index of the mutating operation to fault.
        op: u64,
        /// The fault to inject there.
        kind: FaultKind,
    },
    /// Seeded random faults: each mutating operation faults with
    /// probability `rate`, fault kind drawn uniformly — the same seed
    /// replays the same schedule.
    Seeded {
        /// Stream seed.
        seed: u64,
        /// Per-operation fault probability in `[0, 1]`.
        rate: f64,
    },
}

// Salt constants separating the chaos decision streams (cf. ChaosFetcher).
const SALT_FIRE: u64 = 0x11;
const SALT_KIND: u64 = 0x12;
const SALT_BIT: u64 = 0x13;

#[derive(Debug)]
struct ChaosState {
    plan: FaultPlan,
    ops: u64,
    injected: u64,
}

/// Shared view of a [`ChaosFs`]'s operation counter, usable after the
/// filesystem itself has been boxed into a [`Store`](crate::Store).
#[derive(Debug, Clone)]
pub struct ChaosControl {
    state: Rc<RefCell<ChaosState>>,
}

impl ChaosControl {
    /// Mutating operations seen so far (writes, appends, syncs, renames).
    pub fn ops(&self) -> u64 {
        self.state.borrow().ops
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.borrow().injected
    }
}

/// A deterministic fault-injecting wrapper around another [`Vfs`].
///
/// Reads are never faulted (corruption is injected at write time, where a
/// real disk would plant it); every *mutating* operation — write, append,
/// sync, rename — increments an operation counter and consults the
/// [`FaultPlan`].
#[derive(Debug)]
pub struct ChaosFs<V> {
    inner: V,
    state: Rc<RefCell<ChaosState>>,
}

impl<V: Vfs> ChaosFs<V> {
    /// Wrap `inner` with the given plan, returning the filesystem and a
    /// counter handle that stays valid after the filesystem is boxed.
    pub fn controlled(inner: V, plan: FaultPlan) -> (Self, ChaosControl) {
        let state = Rc::new(RefCell::new(ChaosState {
            plan,
            ops: 0,
            injected: 0,
        }));
        let control = ChaosControl {
            state: Rc::clone(&state),
        };
        (ChaosFs { inner, state }, control)
    }

    /// Wrap `inner` with the given plan.
    pub fn new(inner: V, plan: FaultPlan) -> Self {
        Self::controlled(inner, plan).0
    }

    /// Count one mutating operation and decide whether it faults.
    fn decide(&mut self) -> Option<FaultKind> {
        let mut state = self.state.borrow_mut();
        let op = state.ops;
        state.ops += 1;
        let fault = match state.plan {
            FaultPlan::None => None,
            FaultPlan::AtOp { op: at, kind } => (op == at).then_some(kind),
            FaultPlan::Seeded { seed, rate } => {
                let fire = Seed::new(seed).unit(op, 0, SALT_FIRE) < rate;
                fire.then(|| {
                    let pick = Seed::new(seed).unit(op, 0, SALT_KIND);
                    let idx = ((pick * FaultKind::ALL.len() as f64) as usize)
                        .min(FaultKind::ALL.len() - 1);
                    FaultKind::ALL[idx]
                })
            }
        };
        if fault.is_some() {
            state.injected += 1;
        }
        fault
    }

    /// Deterministic bit position to flip in a payload of `len` bytes.
    fn flip_bit(&self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let (seed, op) = {
            let state = self.state.borrow();
            let seed = match state.plan {
                FaultPlan::Seeded { seed, .. } => seed,
                _ => 0,
            };
            (seed, state.ops)
        };
        let unit = Seed::new(seed).unit(op, 0, SALT_BIT);
        let bit = ((unit * (bytes.len() * 8) as f64) as usize).min(bytes.len() * 8 - 1);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

impl<V: Vfs> Vfs for ChaosFs<V> {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, StoreError> {
        self.inner.read(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        match self.decide() {
            None => self.inner.write(path, bytes),
            Some(FaultKind::TornWrite) => {
                self.inner.write(path, &bytes[..bytes.len() / 2])?;
                Err(StoreError::Io {
                    op: "write",
                    path: path.display().to_string(),
                    detail: "injected: torn write".to_owned(),
                })
            }
            Some(FaultKind::ShortWrite) => {
                // Persist a strict prefix but report success.
                let keep = if bytes.is_empty() { 0 } else { bytes.len() - 1 };
                self.inner
                    .write(path, &bytes[..keep.min(bytes.len() * 3 / 4)])
            }
            Some(FaultKind::NoSpace) => Err(StoreError::NoSpace {
                path: path.display().to_string(),
            }),
            Some(FaultKind::SyncEio) => self.inner.write(path, bytes),
            Some(FaultKind::BitFlip) => {
                let mut flipped = bytes.to_vec();
                self.flip_bit(&mut flipped);
                self.inner.write(path, &flipped)
            }
        }
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        match self.decide() {
            None => self.inner.append(path, bytes),
            Some(FaultKind::TornWrite) => {
                self.inner.append(path, &bytes[..bytes.len() / 2])?;
                Err(StoreError::Io {
                    op: "append",
                    path: path.display().to_string(),
                    detail: "injected: torn append".to_owned(),
                })
            }
            Some(FaultKind::ShortWrite) => {
                let keep = if bytes.is_empty() { 0 } else { bytes.len() - 1 };
                self.inner
                    .append(path, &bytes[..keep.min(bytes.len() * 3 / 4)])
            }
            Some(FaultKind::NoSpace) => Err(StoreError::NoSpace {
                path: path.display().to_string(),
            }),
            Some(FaultKind::SyncEio) => self.inner.append(path, bytes),
            Some(FaultKind::BitFlip) => {
                let mut flipped = bytes.to_vec();
                self.flip_bit(&mut flipped);
                self.inner.append(path, &flipped)
            }
        }
    }

    fn sync(&mut self, path: &Path) -> Result<(), StoreError> {
        match self.decide() {
            Some(FaultKind::SyncEio) => Err(StoreError::SyncFailed {
                path: path.display().to_string(),
            }),
            Some(FaultKind::NoSpace) => Err(StoreError::NoSpace {
                path: path.display().to_string(),
            }),
            // Torn/short/bit-flip have no meaning for fsync; pass through.
            _ => self.inner.sync(path),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
        match self.decide() {
            Some(FaultKind::TornWrite) | Some(FaultKind::NoSpace) => {
                // The rename never happens: the process "dies" first.
                Err(StoreError::Io {
                    op: "rename",
                    path: from.display().to_string(),
                    detail: "injected: crash before rename".to_owned(),
                })
            }
            // Rename is atomic on a real filesystem: no partial states.
            _ => self.inner.rename(from, to),
        }
    }

    fn create_dir_all(&mut self, path: &Path) -> Result<(), StoreError> {
        self.inner.create_dir_all(path)
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove(&mut self, path: &Path) -> Result<(), StoreError> {
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::path::PathBuf;

    /// A trivial in-memory Vfs for exercising ChaosFs without disk.
    #[derive(Debug, Default)]
    struct MemFs {
        files: HashMap<PathBuf, Vec<u8>>,
    }

    impl Vfs for MemFs {
        fn read(&mut self, path: &Path) -> Result<Vec<u8>, StoreError> {
            self.files.get(path).cloned().ok_or_else(|| StoreError::Io {
                op: "read",
                path: path.display().to_string(),
                detail: "not found".into(),
            })
        }
        fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
            self.files.insert(path.to_owned(), bytes.to_vec());
            Ok(())
        }
        fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
            self.files
                .entry(path.to_owned())
                .or_default()
                .extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self, _path: &Path) -> Result<(), StoreError> {
            Ok(())
        }
        fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
            match self.files.remove(from) {
                Some(data) => {
                    self.files.insert(to.to_owned(), data);
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
            self.files.contains_key(path)
        }
        fn remove(&mut self, path: &Path) -> Result<(), StoreError> {
            self.files.remove(path);
            Ok(())
        }
    }

    #[test]
    fn torn_write_persists_prefix_and_errors() {
        let (mut fs, ctl) = ChaosFs::controlled(
            MemFs::default(),
            FaultPlan::AtOp {
                op: 0,
                kind: FaultKind::TornWrite,
            },
        );
        let p = Path::new("f");
        let err = fs.write(p, b"0123456789").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert_eq!(fs.read(p).unwrap(), b"01234");
        assert_eq!(ctl.ops(), 1);
        assert_eq!(ctl.injected(), 1);
    }

    #[test]
    fn short_write_truncates_silently() {
        let mut fs = ChaosFs::new(
            MemFs::default(),
            FaultPlan::AtOp {
                op: 0,
                kind: FaultKind::ShortWrite,
            },
        );
        let p = Path::new("f");
        fs.write(p, b"0123456789").expect("silent fault reports ok");
        assert!(fs.read(p).unwrap().len() < 10);
    }

    #[test]
    fn no_space_writes_nothing() {
        let mut fs = ChaosFs::new(
            MemFs::default(),
            FaultPlan::AtOp {
                op: 0,
                kind: FaultKind::NoSpace,
            },
        );
        let p = Path::new("f");
        assert!(matches!(
            fs.write(p, b"x").unwrap_err(),
            StoreError::NoSpace { .. }
        ));
        assert!(!fs.exists(p));
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut fs = ChaosFs::new(
            MemFs::default(),
            FaultPlan::AtOp {
                op: 0,
                kind: FaultKind::BitFlip,
            },
        );
        let p = Path::new("f");
        let data = vec![0u8; 64];
        fs.write(p, &data).expect("silent fault reports ok");
        let stored = fs.read(p).unwrap();
        let flipped: u32 = stored
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn sync_eio_faults_only_the_sync() {
        let mut fs = ChaosFs::new(
            MemFs::default(),
            FaultPlan::AtOp {
                op: 1,
                kind: FaultKind::SyncEio,
            },
        );
        let p = Path::new("f");
        fs.write(p, b"data").expect("op 0 clean");
        assert!(matches!(
            fs.sync(p).unwrap_err(),
            StoreError::SyncFailed { .. }
        ));
        assert_eq!(fs.read(p).unwrap(), b"data");
    }

    #[test]
    fn seeded_plan_replays_identically() {
        let run = |seed| {
            let (mut fs, ctl) =
                ChaosFs::controlled(MemFs::default(), FaultPlan::Seeded { seed, rate: 0.5 });
            let mut outcomes = Vec::new();
            for i in 0..32u32 {
                let p = PathBuf::from(format!("f{i}"));
                outcomes.push(fs.write(&p, &[0u8; 16]).is_ok());
            }
            (outcomes, ctl.injected())
        };
        let (a, ai) = run(9);
        let (b, bi) = run(9);
        assert_eq!(a, b);
        assert_eq!(ai, bi);
        let (c, _) = run(10);
        assert_ne!(a, c, "different seed, different schedule");
    }
}
