//! Crash-safe checkpointing for the clustering stages.
//!
//! Both algorithms are deterministic given their inputs, so the durable
//! record is just their *decision log*, kept in the [`Store`]'s
//! append-only journal:
//!
//! * **k-means** (stage `"kmeans"`): one record per iteration holding the
//!   full assignment vector. Resume replays journaled iterations —
//!   skipping the O(n·k) similarity pass — and continues live from the
//!   first unjournaled one. Centroids are rebuilt from the assignments on
//!   both paths, so the replayed prefix is bit-identical.
//! * **HAC** (stage `"hac"`): one record per merge step holding the merged
//!   pair `(i, j)`. Resume replays the merges — skipping the closest-pair
//!   scans — and continues live.
//!
//! Each journal starts with a fingerprint of the run's inputs (item
//! count, seeds/initial groups, every option); resuming under different
//! inputs is a typed [`StoreError::FingerprintMismatch`], never a silent
//! wrong answer. The invariant — crash at any injected fault point +
//! resume ≡ uninterrupted run, bit-identically — is pinned by
//! `tests/crash_recovery.rs`.

use crate::hac::{hac_driver, HacOptions, Linkage};
use crate::kmeans::{kmeans_driver, KMeansOptions, KMeansOutcome};
use crate::partition::Partition;
use crate::space::ClusterSpace;
use cafc_exec::ExecPolicy;
use cafc_obs::Obs;
use cafc_store::{fnv1a64, ByteReader, ByteWriter, Store, StoreError};
use std::collections::VecDeque;

/// Journal record: run fingerprint (written once, at stage start).
const KIND_FINGERPRINT: u8 = 0;
/// Journal record: one algorithm decision (k-means iteration / HAC merge).
const KIND_DECISION: u8 = 1;

/// Shared open/validate logic: truncate the torn journal tail, verify the
/// fingerprint (writing it on a fresh or effectively-fresh start), and
/// return the decision payloads left to replay.
fn open_stage(
    store: &mut Store,
    stage: &'static str,
    fingerprint: u64,
    resume: bool,
) -> Result<VecDeque<Vec<u8>>, StoreError> {
    let fp_payload = || {
        let mut w = ByteWriter::new();
        w.put_u64(fingerprint);
        w.into_bytes()
    };
    if !resume {
        store.reset_stage(stage)?;
        store.journal_append(stage, KIND_FINGERPRINT, &fp_payload())?;
        return Ok(VecDeque::new());
    }
    store.journal_truncate_to_valid(stage)?;
    let mut pending = VecDeque::new();
    let mut saw_fingerprint = false;
    for rec in store.journal_records(stage)? {
        match rec.kind {
            KIND_FINGERPRINT => {
                let mut r = ByteReader::new(&rec.payload, stage);
                if r.get_u64()? != fingerprint {
                    return Err(StoreError::FingerprintMismatch {
                        stage: stage.to_owned(),
                    });
                }
                saw_fingerprint = true;
            }
            KIND_DECISION => pending.push_back(rec.payload),
            // Unknown kinds are future format extensions: ignore.
            _ => {}
        }
    }
    if !saw_fingerprint {
        // Nothing durable: a --resume against an empty directory is a
        // fresh start.
        store.journal_append(stage, KIND_FINGERPRINT, &fp_payload())?;
    }
    Ok(pending)
}

/// Replays and journals k-means iterations. Lives only inside
/// [`kmeans_resumable`]; the plain entry points run without one.
pub(crate) struct KMeansCheckpointer<'s> {
    store: &'s mut Store,
    pending: VecDeque<Vec<u8>>,
}

impl KMeansCheckpointer<'_> {
    /// The journaled assignment vector for 0-based iteration `iter`, if the
    /// interrupted run recorded one. Validates shape against the live run.
    pub(crate) fn replay_iteration(
        &mut self,
        iter: usize,
        n: usize,
        k: usize,
    ) -> Result<Option<Vec<usize>>, StoreError> {
        let Some(payload) = self.pending.pop_front() else {
            return Ok(None);
        };
        let mut r = ByteReader::new(&payload, "kmeans.journal");
        let rec_iter = r.get_u64()?;
        if rec_iter != iter as u64 {
            return Err(StoreError::ReplayDiverged {
                stage: "kmeans".to_owned(),
                detail: format!("journal holds iteration {rec_iter}, live run is at {iter}"),
            });
        }
        let len = r.get_usize()?;
        if len != n {
            return Err(StoreError::ReplayDiverged {
                stage: "kmeans".to_owned(),
                detail: format!("journaled assignment covers {len} items, space has {n}"),
            });
        }
        let mut assignment = Vec::with_capacity(n);
        for item in 0..n {
            let c = r.get_u32()? as usize;
            if c >= k {
                return Err(StoreError::ReplayDiverged {
                    stage: "kmeans".to_owned(),
                    detail: format!(
                        "journaled cluster {c} for item {item} is out of range (k = {k})"
                    ),
                });
            }
            assignment.push(c);
        }
        Ok(Some(assignment))
    }

    /// Journal a live iteration's assignment vector.
    pub(crate) fn record_iteration(
        &mut self,
        iter: usize,
        assignment: &[usize],
    ) -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        w.put_u64(iter as u64);
        w.put_usize(assignment.len());
        for &c in assignment {
            // Cluster indices are bounded by k, which the CLI caps far below
            // u32::MAX; saturate defensively rather than truncate.
            w.put_u32(u32::try_from(c).unwrap_or(u32::MAX));
        }
        self.store
            .journal_append("kmeans", KIND_DECISION, &w.into_bytes())
    }

    /// End of run: fail if journaled iterations were never reached (the
    /// journal belongs to a different run).
    pub(crate) fn finish(&mut self, iterations: usize) -> Result<(), StoreError> {
        if !self.pending.is_empty() {
            return Err(StoreError::ReplayDiverged {
                stage: "kmeans".to_owned(),
                detail: format!(
                    "run converged after {iterations} iterations but the journal holds {} more",
                    self.pending.len()
                ),
            });
        }
        Ok(())
    }
}

/// Replays and journals HAC merge decisions. Lives only inside
/// [`hac_resumable`]; the plain entry points run without one.
pub(crate) struct HacCheckpointer<'s> {
    store: &'s mut Store,
    pending: VecDeque<Vec<u8>>,
}

impl HacCheckpointer<'_> {
    /// The journaled merge pair for `step`, if the interrupted run recorded
    /// one. `valid` checks the pair against the live run's group state.
    pub(crate) fn replay_merge<V>(
        &mut self,
        step: u64,
        valid: V,
    ) -> Result<Option<(usize, usize)>, StoreError>
    where
        V: Fn(usize, usize) -> bool,
    {
        let Some(payload) = self.pending.pop_front() else {
            return Ok(None);
        };
        let mut r = ByteReader::new(&payload, "hac.journal");
        let rec_step = r.get_u64()?;
        if rec_step != step {
            return Err(StoreError::ReplayDiverged {
                stage: "hac".to_owned(),
                detail: format!("journal holds merge step {rec_step}, live run is at {step}"),
            });
        }
        let bi = r.get_usize()?;
        let bj = r.get_usize()?;
        if !valid(bi, bj) {
            return Err(StoreError::ReplayDiverged {
                stage: "hac".to_owned(),
                detail: format!("journaled merge ({bi}, {bj}) is invalid at step {step}"),
            });
        }
        Ok(Some((bi, bj)))
    }

    /// Journal a live merge decision.
    pub(crate) fn record_merge(
        &mut self,
        step: u64,
        bi: usize,
        bj: usize,
    ) -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        w.put_u64(step);
        w.put_usize(bi);
        w.put_usize(bj);
        self.store
            .journal_append("hac", KIND_DECISION, &w.into_bytes())
    }

    /// End of run: fail if journaled merges were never reached.
    pub(crate) fn finish(&mut self, steps: u64) -> Result<(), StoreError> {
        if !self.pending.is_empty() {
            return Err(StoreError::ReplayDiverged {
                stage: "hac".to_owned(),
                detail: format!(
                    "run finished after {steps} merges but the journal holds {} more",
                    self.pending.len()
                ),
            });
        }
        Ok(())
    }
}

fn kmeans_fingerprint(n: usize, seeds: &[Vec<usize>], opts: &KMeansOptions) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(n);
    w.put_usize(seeds.len());
    for seed in seeds {
        w.put_usize(seed.len());
        for &m in seed {
            w.put_usize(m);
        }
    }
    w.put_f64(opts.move_fraction_threshold);
    w.put_usize(opts.max_iterations);
    fnv1a64(&w.into_bytes())
}

fn hac_fingerprint(n: usize, initial: &[Vec<usize>], opts: &HacOptions) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(n);
    w.put_usize(initial.len());
    for group in initial {
        w.put_usize(group.len());
        for &m in group {
            w.put_usize(m);
        }
    }
    w.put_usize(opts.target_clusters);
    w.put_u8(match opts.linkage {
        Linkage::Single => 0,
        Linkage::Complete => 1,
        Linkage::Average => 2,
        Linkage::Centroid => 3,
    });
    fnv1a64(&w.into_bytes())
}

/// [`kmeans`](crate::kmeans()) with durable checkpoints: every
/// iteration's assignment vector is journaled as it completes, and — when
/// `resume` is true — journaled iterations replay without recomputing
/// their O(n·k) similarity pass. A resumed run produces a bit-identical
/// [`KMeansOutcome`] to an uninterrupted one.
///
/// The journal is keyed by a fingerprint of `(space.len(), seeds, opts)`;
/// resuming under different inputs is refused with
/// [`StoreError::FingerprintMismatch`]. The space's *contents* cannot be
/// fingerprinted through the [`ClusterSpace`] trait — callers mutating
/// items between runs get [`StoreError::ReplayDiverged`] at the first
/// inconsistent decision instead.
#[allow(clippy::too_many_arguments)]
pub fn kmeans_resumable<S>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    policy: ExecPolicy,
    obs: &Obs,
    store: &mut Store,
    resume: bool,
) -> Result<KMeansOutcome, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let fingerprint = kmeans_fingerprint(space.len(), seeds, opts);
    let pending = open_stage(store, "kmeans", fingerprint, resume)?;
    let mut ckpt = KMeansCheckpointer { store, pending };
    kmeans_driver(space, seeds, opts, policy, obs, Some(&mut ckpt))
}

/// [`hac`](crate::hac()) with durable checkpoints: every merge
/// decision is journaled as it is made, and — when `resume` is true —
/// journaled merges replay without rerunning their closest-pair scans. A
/// resumed run produces a bit-identical [`Partition`] to an uninterrupted
/// one. Fingerprinting and divergence behave as in [`kmeans_resumable`].
#[allow(clippy::too_many_arguments)]
pub fn hac_resumable<S>(
    space: &S,
    initial: &[Vec<usize>],
    opts: &HacOptions,
    policy: ExecPolicy,
    obs: &Obs,
    store: &mut Store,
    resume: bool,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let fingerprint = hac_fingerprint(space.len(), initial, opts);
    let pending = open_stage(store, "hac", fingerprint, resume)?;
    let mut ckpt = HacCheckpointer { store, pending };
    hac_driver(space, initial, opts, policy, obs, Some(&mut ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hac::hac;
    use crate::kmeans::kmeans;
    use crate::space::DenseSpace;
    use cafc_store::{ChaosFs, FaultKind, FaultPlan, StdFs, StoreConfig};

    fn space() -> DenseSpace {
        // Three loose blobs so both algorithms take several steps.
        let mut points = Vec::new();
        for blob in 0..3 {
            for i in 0..6 {
                points.push(vec![blob as f64 * 10.0 + (i as f64) * 0.3]);
            }
        }
        DenseSpace::new(points)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cafc-cluster-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_at(dir: &std::path::Path) -> Store {
        Store::open(dir, StoreConfig::new(), Obs::disabled()).expect("open store")
    }

    #[test]
    fn kmeans_crash_and_resume_is_bit_identical() {
        let space = space();
        let seeds = vec![vec![0], vec![6], vec![12]];
        let opts = KMeansOptions::strict();
        let baseline = kmeans(&space, &seeds, &opts, ExecPolicy::Serial, &Obs::disabled());

        let dir = tmp_dir("kmeans");
        for at in 0..6u64 {
            let _ = std::fs::remove_dir_all(&dir);
            let (chaos, _ctl) = ChaosFs::controlled(
                StdFs,
                FaultPlan::AtOp {
                    op: at,
                    kind: FaultKind::TornWrite,
                },
            );
            let mut store =
                Store::open_with_vfs(Box::new(chaos), &dir, StoreConfig::new(), Obs::disabled())
                    .expect("open");
            let crashed = kmeans_resumable(
                &space,
                &seeds,
                &opts,
                ExecPolicy::Serial,
                &Obs::disabled(),
                &mut store,
                false,
            );
            if let Ok(outcome) = crashed {
                assert_eq!(outcome.partition, baseline.partition);
                continue;
            }
            let mut store = store_at(&dir);
            let resumed = kmeans_resumable(
                &space,
                &seeds,
                &opts,
                ExecPolicy::Serial,
                &Obs::disabled(),
                &mut store,
                true,
            )
            .expect("resume");
            assert_eq!(resumed.partition, baseline.partition, "crash at op {at}");
            assert_eq!(resumed.iterations, baseline.iterations);
            assert_eq!(resumed.converged, baseline.converged);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hac_crash_and_resume_is_bit_identical_every_linkage() {
        let space = space();
        let dir = tmp_dir("hac");
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Centroid,
        ] {
            let opts = HacOptions {
                target_clusters: 3,
                linkage,
            };
            let baseline = hac(&space, &[], &opts, ExecPolicy::Serial, &Obs::disabled());
            for at in 0..6u64 {
                let _ = std::fs::remove_dir_all(&dir);
                let (chaos, _ctl) = ChaosFs::controlled(
                    StdFs,
                    FaultPlan::AtOp {
                        op: at,
                        kind: FaultKind::NoSpace,
                    },
                );
                let mut store = Store::open_with_vfs(
                    Box::new(chaos),
                    &dir,
                    StoreConfig::new(),
                    Obs::disabled(),
                )
                .expect("open");
                let crashed = hac_resumable(
                    &space,
                    &[],
                    &opts,
                    ExecPolicy::Serial,
                    &Obs::disabled(),
                    &mut store,
                    false,
                );
                if let Ok(partition) = crashed {
                    assert_eq!(partition, baseline);
                    continue;
                }
                let mut store = store_at(&dir);
                let resumed = hac_resumable(
                    &space,
                    &[],
                    &opts,
                    ExecPolicy::Serial,
                    &Obs::disabled(),
                    &mut store,
                    true,
                )
                .expect("resume");
                assert_eq!(resumed, baseline, "{linkage:?} crash at op {at}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_different_inputs_is_refused() {
        let space = space();
        let seeds = vec![vec![0], vec![6], vec![12]];
        let opts = KMeansOptions::strict();
        let dir = tmp_dir("fp");
        let mut store = store_at(&dir);
        kmeans_resumable(
            &space,
            &seeds,
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            false,
        )
        .expect("first run");
        let err = kmeans_resumable(
            &space,
            &[vec![0], vec![6]],
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            true,
        )
        .expect_err("different seeds must refuse to resume");
        assert!(
            matches!(err, StoreError::FingerprintMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_of_a_finished_run_replays_everything() {
        let space = space();
        let opts = HacOptions {
            target_clusters: 3,
            linkage: Linkage::Centroid,
        };
        let baseline = hac(&space, &[], &opts, ExecPolicy::Serial, &Obs::disabled());
        let dir = tmp_dir("finished");
        let mut store = store_at(&dir);
        hac_resumable(
            &space,
            &[],
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            false,
        )
        .expect("first run");
        let resumed = hac_resumable(
            &space,
            &[],
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            true,
        )
        .expect("resume of finished run");
        assert_eq!(resumed, baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
