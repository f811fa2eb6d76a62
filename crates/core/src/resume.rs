//! Crash-safe checkpointing for the ingestion stage.
//!
//! [`FormPageCorpus::from_html_ingest_resumable`] processes pages in
//! batches — the store's `checkpoint_every`, rounded up to a multiple of
//! [`IngestLimits::shard_pages`] so a resumed run reproduces the exact
//! chunk boundaries of an uninterrupted one —
//! and snapshots the complete accumulated state after each batch: the
//! shared term dictionary in id order, every kept page's lossless PC/FC
//! count entries (zero-weight entries included, so document frequencies
//! survive the round trip), and the full [`IngestReport`]. TF-IDF is
//! applied only once all pages are in, exactly as in the plain path, so
//! the final corpus is bit-identical.
//!
//! The snapshot embeds a fingerprint chained over every input page's
//! content hash; resuming against different inputs is a typed
//! [`StoreError::FingerprintMismatch`], never a silently wrong corpus.

use crate::ingest::{DegradedReason, IngestError, IngestLimits, IngestReport, PageOutcome};
use crate::model::{emit_ingest_metrics, ingest_shard, FormPageCorpus, IngestMerge, ModelOptions};
use cafc_exec::ExecPolicy;
use cafc_obs::Obs;
use cafc_store::{fnv1a64, ByteReader, ByteWriter, Store, StoreError};
use cafc_text::{TermDict, TermId};
use cafc_vsm::CountsBuilder;

/// The store stage ingestion state lives under.
const STAGE: &str = "ingest";
/// Journal record: run fingerprint (written once, at stage start).
const KIND_FINGERPRINT: u8 = 0;
/// Journal record: per-batch progress audit (pages done, kept, quarantined).
const KIND_BATCH: u8 = 1;

/// The accumulated mid-run state the snapshot persists.
struct IngestState {
    dict: TermDict,
    pc_counts: Vec<CountsBuilder>,
    fc_counts: Vec<CountsBuilder>,
    report: IngestReport,
    pages_done: usize,
}

impl IngestState {
    fn fresh() -> IngestState {
        IngestState {
            dict: TermDict::new(),
            pc_counts: Vec::new(),
            fc_counts: Vec::new(),
            report: IngestReport::default(),
            pages_done: 0,
        }
    }
}

fn put_counts(w: &mut ByteWriter, counts: &CountsBuilder) {
    let entries = counts.entries();
    w.put_usize(entries.len());
    for (term, weight) in entries {
        w.put_u32(term.0);
        w.put_f64(weight);
    }
}

fn get_counts(r: &mut ByteReader<'_>) -> Result<CountsBuilder, StoreError> {
    let n = r.get_usize()?;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let term = TermId(r.get_u32()?);
        let weight = r.get_f64()?;
        entries.push((term, weight));
    }
    Ok(CountsBuilder::from_entries(&entries))
}

fn put_outcome(w: &mut ByteWriter, outcome: &PageOutcome) {
    match outcome {
        PageOutcome::Ok => w.put_u8(0),
        PageOutcome::Degraded { reasons } => {
            w.put_u8(1);
            w.put_usize(reasons.len());
            for reason in reasons {
                // Index into DegradedReason::ALL: stable as long as new
                // reasons append (the snapshot version gates layout changes).
                let idx = DegradedReason::ALL.iter().position(|r| r == reason);
                w.put_u8(idx.unwrap_or(u8::MAX as usize) as u8);
            }
        }
        PageOutcome::Quarantined { error } => {
            w.put_u8(2);
            match error {
                IngestError::TooLarge { bytes, limit } => {
                    w.put_u8(0);
                    w.put_usize(*bytes);
                    w.put_usize(*limit);
                }
                IngestError::EmptyDocument => w.put_u8(1),
                IngestError::BudgetExhausted { needed, budget } => {
                    w.put_u8(2);
                    w.put_usize(*needed);
                    w.put_usize(*budget);
                }
            }
        }
    }
}

fn get_outcome(r: &mut ByteReader<'_>, path: &str) -> Result<PageOutcome, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_owned(),
        detail,
    };
    match r.get_u8()? {
        0 => Ok(PageOutcome::Ok),
        1 => {
            let n = r.get_usize()?;
            let mut reasons = Vec::with_capacity(n.min(DegradedReason::ALL.len()));
            for _ in 0..n {
                let idx = r.get_u8()? as usize;
                let reason = DegradedReason::ALL
                    .get(idx)
                    .copied()
                    .ok_or_else(|| corrupt(format!("unknown degraded-reason index {idx}")))?;
                reasons.push(reason);
            }
            Ok(PageOutcome::Degraded { reasons })
        }
        2 => {
            let error = match r.get_u8()? {
                0 => IngestError::TooLarge {
                    bytes: r.get_usize()?,
                    limit: r.get_usize()?,
                },
                1 => IngestError::EmptyDocument,
                2 => IngestError::BudgetExhausted {
                    needed: r.get_usize()?,
                    budget: r.get_usize()?,
                },
                other => return Err(corrupt(format!("unknown ingest-error code {other}"))),
            };
            Ok(PageOutcome::Quarantined { error })
        }
        other => Err(corrupt(format!("unknown page-outcome tag {other}"))),
    }
}

fn encode_state(merge: &IngestMerge, pages_done: usize, fingerprint: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(fingerprint);
    w.put_usize(pages_done);
    w.put_usize(merge.dict.len());
    for (_, term) in merge.dict.iter() {
        w.put_str(term);
    }
    for counts in [&merge.pc_counts, &merge.fc_counts] {
        w.put_usize(counts.len());
        for c in counts.iter() {
            put_counts(&mut w, c);
        }
    }
    w.put_usize(merge.report.outcomes.len());
    for outcome in &merge.report.outcomes {
        put_outcome(&mut w, outcome);
    }
    w.put_usize(merge.report.kept.len());
    for &k in &merge.report.kept {
        w.put_usize(k);
    }
    w.into_bytes()
}

fn decode_state(payload: &[u8], fingerprint: u64) -> Result<IngestState, StoreError> {
    let path = "ingest.snap";
    let mut r = ByteReader::new(payload, path);
    if r.get_u64()? != fingerprint {
        return Err(StoreError::FingerprintMismatch {
            stage: STAGE.to_owned(),
        });
    }
    let pages_done = r.get_usize()?;
    let n_terms = r.get_usize()?;
    let mut dict = TermDict::new();
    for _ in 0..n_terms {
        let term = r.get_str()?.to_owned();
        dict.intern(&term);
    }
    let mut both = Vec::with_capacity(2);
    for _ in 0..2 {
        let n = r.get_usize()?;
        let mut counts = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            counts.push(get_counts(&mut r)?);
        }
        both.push(counts);
    }
    let fc_counts = both.pop().unwrap_or_default();
    let pc_counts = both.pop().unwrap_or_default();
    let n_outcomes = r.get_usize()?;
    let mut outcomes = Vec::with_capacity(n_outcomes.min(1 << 20));
    for _ in 0..n_outcomes {
        outcomes.push(get_outcome(&mut r, path)?);
    }
    let n_kept = r.get_usize()?;
    let mut kept = Vec::with_capacity(n_kept.min(1 << 20));
    for _ in 0..n_kept {
        kept.push(r.get_usize()?);
    }
    Ok(IngestState {
        dict,
        pc_counts,
        fc_counts,
        report: IngestReport { outcomes, kept },
        pages_done,
    })
}

/// Chained hash over the page count and every page's content: the run's
/// identity for resume validation.
fn run_fingerprint(pages: &[&str], opts: &ModelOptions, limits: &IngestLimits) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(pages.len());
    for &html in pages {
        w.put_u64(fnv1a64(html.as_bytes()));
    }
    w.put_f64(opts.weights.title);
    w.put_f64(opts.weights.heading);
    w.put_f64(opts.weights.anchor);
    w.put_f64(opts.weights.body);
    w.put_f64(opts.weights.form_text);
    w.put_f64(opts.weights.form_option);
    w.put_f64(opts.weights.form_value);
    w.put_usize(limits.hard_max_bytes);
    w.put_usize(limits.soft_max_bytes);
    w.put_usize(limits.max_terms);
    // The corpus budget changes which pages are kept, so it is part of the
    // run's identity. `shard_pages` deliberately is not: the built corpus
    // is bit-identical under any shard size (DESIGN.md §17), so resuming
    // under a different one is safe.
    w.put_usize(limits.max_corpus_bytes);
    fnv1a64(&w.into_bytes())
}

impl FormPageCorpus {
    /// [`FormPageCorpus::from_html_ingest_obs`] with durable checkpoints:
    /// pages are ingested in `store.config().checkpoint_every`-sized
    /// batches (rounded up to whole vectorization chunks), the accumulated
    /// dictionary/counts/report are snapshotted after each batch, and —
    /// when `resume` is true — ingestion restarts from the last durable
    /// batch boundary. The resulting corpus and [`IngestReport`] are
    /// bit-identical to an uninterrupted run; resuming against different
    /// pages, weights or limits is refused with
    /// [`StoreError::FingerprintMismatch`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_html_ingest_resumable<'a, I>(
        pages: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
        policy: ExecPolicy,
        obs: &Obs,
        store: &mut Store,
        resume: bool,
    ) -> Result<(FormPageCorpus, IngestReport), StoreError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let pages: Vec<&str> = pages.into_iter().collect();
        let fingerprint = run_fingerprint(&pages, opts, limits);
        let every = usize::try_from(store.config().checkpoint_every)
            .unwrap_or(usize::MAX)
            .max(1);
        // Round up to whole chunks so batch boundaries never split a chunk:
        // the same chunks as an uninterrupted run, so the same per-chunk
        // metrics (the corpus would match under any split).
        let chunk = limits.shard_pages.max(1);
        let batch = every.div_ceil(chunk).max(1).saturating_mul(chunk);

        let state = if resume {
            match store.load_snapshot(STAGE)? {
                Some(snap) => {
                    let state = decode_state(&snap.payload, fingerprint)?;
                    if state.pages_done > pages.len() {
                        return Err(StoreError::FingerprintMismatch {
                            stage: STAGE.to_owned(),
                        });
                    }
                    state
                }
                None => {
                    // Nothing durable: a --resume against an empty
                    // directory is a fresh start.
                    store.journal_append(STAGE, KIND_FINGERPRINT, &{
                        let mut w = ByteWriter::new();
                        w.put_u64(fingerprint);
                        w.into_bytes()
                    })?;
                    IngestState::fresh()
                }
            }
        } else {
            store.reset_stage(STAGE)?;
            store.journal_append(STAGE, KIND_FINGERPRINT, &{
                let mut w = ByteWriter::new();
                w.put_u64(fingerprint);
                w.into_bytes()
            })?;
            IngestState::fresh()
        };

        let ingest_span = obs.span("ingest");
        // The shared merge enforces the corpus budget exactly like the
        // non-resumable paths; `used_bytes` is recomputed from the kept
        // counts, so a resumed run repeats the budget decisions of an
        // uninterrupted one.
        let mut pages_done = state.pages_done;
        let mut merge = IngestMerge::from_parts(
            state.dict,
            state.pc_counts,
            state.fc_counts,
            state.report,
            limits,
        );
        while pages_done < pages.len() {
            let end = (pages_done + batch).min(pages.len());
            ingest_shard(
                &pages[pages_done..end],
                opts,
                limits,
                policy,
                obs,
                &mut merge,
            );
            pages_done = end;
            store.snapshot(
                STAGE,
                pages_done as u64,
                &encode_state(&merge, pages_done, fingerprint),
            )?;
            let mut audit = ByteWriter::new();
            audit.put_usize(pages_done);
            audit.put_usize(merge.report.kept.len());
            audit.put_usize(merge.report.quarantined());
            store.journal_append(STAGE, KIND_BATCH, &audit.into_bytes())?;
        }
        drop(ingest_span);

        emit_ingest_metrics(&merge.report, obs);
        let corpus = Self::finish(
            merge.dict,
            merge.pc_counts,
            merge.fc_counts,
            None,
            opts,
            policy,
            obs,
        );
        Ok((corpus, merge.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_store::{ChaosFs, FaultKind, FaultPlan, StdFs, StoreConfig};

    fn pages() -> Vec<String> {
        (0..40)
            .map(|i| {
                if i % 13 == 7 {
                    // An all-markup page: quarantined as EmptyDocument.
                    "<div><span></span></div>".to_owned()
                } else {
                    format!(
                        "<html><title>books {i}</title><body>novel author isbn {i} \
                         <form><input name=q><option>fiction {i}</option></form></body></html>"
                    )
                }
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cafc-ingest-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_corpora_identical(
        a: &(FormPageCorpus, IngestReport),
        b: &(FormPageCorpus, IngestReport),
    ) {
        assert_eq!(a.1, b.1, "reports differ");
        assert_eq!(a.0.len(), b.0.len());
        assert_eq!(a.0.dict.len(), b.0.dict.len());
        for i in 0..a.0.len() {
            assert_eq!(a.0.pc[i], b.0.pc[i], "pc vector {i}");
            assert_eq!(a.0.fc[i], b.0.fc[i], "fc vector {i}");
        }
    }

    #[test]
    fn checkpointed_ingest_matches_plain_ingest() {
        let pages = pages();
        let opts = ModelOptions::default();
        let limits = IngestLimits::default();
        let baseline =
            FormPageCorpus::from_html_ingest(pages.iter().map(String::as_str), &opts, &limits);

        let dir = tmp_dir("clean");
        let mut store = Store::open(
            &dir,
            StoreConfig::new().with_checkpoint_every(10),
            Obs::disabled(),
        )
        .expect("open");
        let resumable = FormPageCorpus::from_html_ingest_resumable(
            pages.iter().map(String::as_str),
            &opts,
            &limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            false,
        )
        .expect("resumable ingest");
        assert_corpora_identical(&baseline, &resumable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_and_resume_is_bit_identical() {
        let pages = pages();
        let opts = ModelOptions::default();
        let limits = IngestLimits::default();
        let baseline =
            FormPageCorpus::from_html_ingest(pages.iter().map(String::as_str), &opts, &limits);

        let dir = tmp_dir("crash");
        for at in [1u64, 3, 5, 8] {
            let _ = std::fs::remove_dir_all(&dir);
            let (chaos, _ctl) = ChaosFs::controlled(
                StdFs,
                FaultPlan::AtOp {
                    op: at,
                    kind: FaultKind::TornWrite,
                },
            );
            let mut store = Store::open_with_vfs(
                Box::new(chaos),
                &dir,
                StoreConfig::new().with_checkpoint_every(10),
                Obs::disabled(),
            )
            .expect("open");
            let crashed = FormPageCorpus::from_html_ingest_resumable(
                pages.iter().map(String::as_str),
                &opts,
                &limits,
                ExecPolicy::Serial,
                &Obs::disabled(),
                &mut store,
                false,
            );
            if let Ok(done) = crashed {
                assert_corpora_identical(&baseline, &done);
                continue;
            }
            let mut store = Store::open(
                &dir,
                StoreConfig::new().with_checkpoint_every(10),
                Obs::disabled(),
            )
            .expect("reopen");
            let resumed = FormPageCorpus::from_html_ingest_resumable(
                pages.iter().map(String::as_str),
                &opts,
                &limits,
                ExecPolicy::Serial,
                &Obs::disabled(),
                &mut store,
                true,
            )
            .expect("resume");
            assert_corpora_identical(&baseline, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_different_pages_is_refused() {
        let pages = pages();
        let opts = ModelOptions::default();
        let limits = IngestLimits::default();
        let dir = tmp_dir("fp");
        let mut store = Store::open(&dir, StoreConfig::new(), Obs::disabled()).expect("open");
        FormPageCorpus::from_html_ingest_resumable(
            pages.iter().map(String::as_str),
            &opts,
            &limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            false,
        )
        .expect("first run");
        let err = FormPageCorpus::from_html_ingest_resumable(
            pages.iter().rev().map(String::as_str),
            &opts,
            &limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
            &mut store,
            true,
        )
        .expect_err("different pages must refuse to resume");
        assert!(
            matches!(err, StoreError::FingerprintMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
