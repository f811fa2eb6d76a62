//! Crash-safe checkpointing for the resilient crawl.
//!
//! The crawl's durable state has two layers in the [`Store`]:
//!
//! * **Snapshots** (stage `"crawl"`): the complete [`CrawlState`] — pages,
//!   stats, clock, breakers, frontier, parked jobs — plus the fetcher's
//!   per-page attempt counters, written atomically every
//!   `checkpoint_every` jobs.
//! * **Journal**: one record per *dead-lettered* job. Everything else a
//!   job does is deterministic given the restored state (the
//!   [`ChaosFetcher`](crate::ChaosFetcher)'s fault schedule is a pure
//!   function of seed and attempt counts), so live jobs after the snapshot
//!   simply re-execute and land on identical results. Dead-lettered jobs
//!   are the exception — they are *replayed* from the journal instead of
//!   re-fetched, so a resumed crawl never re-attempts a permanently failed
//!   host.
//!
//! Resume therefore reconstructs the exact state the crawl would have had
//! at the crash point: the invariant (pinned by `tests/crash_recovery.rs`)
//! is that crash-at-any-fault-point + resume produces the same
//! [`CrawlResult`] and [`CrawlStats`], bit-identically, as an
//! uninterrupted run. Obs metrics are *not* part of that contract: a
//! resumed process re-emits counters only for the work it performed
//! itself.

use crate::breaker::{BreakerSnapshot, BreakerState, HostBreakers};
use crate::fetch::Fetcher;
use crate::retry::SimClock;
use crate::stats::{AbandonReason, CrawlStats, DeadLetter};
use crate::{crawl_driver, CrawlResult, CrawlState, Job, ResilientConfig, ResilientCrawlOutcome};
use cafc_obs::Obs;
use cafc_store::{fnv1a64, ByteReader, ByteWriter, Store, StoreError};
use cafc_webgraph::{PageId, Url, WebGraph};
use std::collections::{HashMap, VecDeque};

/// The store stage all crawl state lives under.
const STAGE: &str = "crawl";
/// Journal record: run fingerprint (written once, at crawl start).
const KIND_FINGERPRINT: u8 = 0;
/// Journal record: a dead-lettered job and its full effects.
const KIND_DEAD_LETTER: u8 = 1;

fn reason_code(reason: AbandonReason) -> u8 {
    match reason {
        AbandonReason::Permanent => 0,
        AbandonReason::RetriesExhausted => 1,
        AbandonReason::HostCircuitOpen => 2,
    }
}

fn reason_from(code: u8, path: &str) -> Result<AbandonReason, StoreError> {
    match code {
        0 => Ok(AbandonReason::Permanent),
        1 => Ok(AbandonReason::RetriesExhausted),
        2 => Ok(AbandonReason::HostCircuitOpen),
        other => Err(StoreError::Corrupt {
            path: path.to_owned(),
            detail: format!("unknown abandon reason code {other}"),
        }),
    }
}

fn state_code(state: BreakerState) -> u8 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

fn state_from(code: u8, path: &str) -> Result<BreakerState, StoreError> {
    match code {
        0 => Ok(BreakerState::Closed),
        1 => Ok(BreakerState::Open),
        2 => Ok(BreakerState::HalfOpen),
        other => Err(StoreError::Corrupt {
            path: path.to_owned(),
            detail: format!("unknown breaker state code {other}"),
        }),
    }
}

fn put_breaker(w: &mut ByteWriter, snap: &BreakerSnapshot) {
    w.put_u8(state_code(snap.state));
    w.put_u32(snap.consecutive_failures);
    w.put_u32(snap.probe_successes);
    w.put_u64(snap.open_until_ms);
    w.put_u64(snap.trips);
}

fn get_breaker(r: &mut ByteReader<'_>, path: &str) -> Result<BreakerSnapshot, StoreError> {
    Ok(BreakerSnapshot {
        state: state_from(r.get_u8()?, path)?,
        consecutive_failures: r.get_u32()?,
        probe_successes: r.get_u32()?,
        open_until_ms: r.get_u64()?,
        trips: r.get_u64()?,
    })
}

/// One journaled dead-letter job: the seq it happened at, the job itself,
/// and the complete post-job values of everything the job mutated.
#[derive(Debug)]
struct DeadLetterEvent {
    seq: u64,
    page: u32,
    depth: u64,
    reason: AbandonReason,
    dl_attempts: u32,
    // Post-job absolute values of the scalar stats the job can touch.
    attempts: u64,
    successes: u64,
    retries: u64,
    abandoned: u64,
    transient_failures: u64,
    permanent_failures: u64,
    truncated_pages: u64,
    redirects_followed: u64,
    breaker_trips: u64,
    breaker_rejections: u64,
    parked: u64,
    clock_after_ms: u64,
    host: String,
    breaker: BreakerSnapshot,
    fetch_attempts_after: u64,
}

impl DeadLetterEvent {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.seq);
        w.put_u32(self.page);
        w.put_u64(self.depth);
        w.put_u8(reason_code(self.reason));
        w.put_u32(self.dl_attempts);
        for v in [
            self.attempts,
            self.successes,
            self.retries,
            self.abandoned,
            self.transient_failures,
            self.permanent_failures,
            self.truncated_pages,
            self.redirects_followed,
            self.breaker_trips,
            self.breaker_rejections,
            self.parked,
            self.clock_after_ms,
        ] {
            w.put_u64(v);
        }
        w.put_str(&self.host);
        put_breaker(&mut w, &self.breaker);
        w.put_u64(self.fetch_attempts_after);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<DeadLetterEvent, StoreError> {
        let path = "crawl.journal";
        let mut r = ByteReader::new(bytes, path);
        let seq = r.get_u64()?;
        let page = r.get_u32()?;
        let depth = r.get_u64()?;
        let reason = reason_from(r.get_u8()?, path)?;
        let dl_attempts = r.get_u32()?;
        let mut scalars = [0u64; 12];
        for slot in &mut scalars {
            *slot = r.get_u64()?;
        }
        let host = r.get_str()?.to_owned();
        let breaker = get_breaker(&mut r, path)?;
        let fetch_attempts_after = r.get_u64()?;
        Ok(DeadLetterEvent {
            seq,
            page,
            depth,
            reason,
            dl_attempts,
            attempts: scalars[0],
            successes: scalars[1],
            retries: scalars[2],
            abandoned: scalars[3],
            transient_failures: scalars[4],
            permanent_failures: scalars[5],
            truncated_pages: scalars[6],
            redirects_followed: scalars[7],
            breaker_trips: scalars[8],
            breaker_rejections: scalars[9],
            parked: scalars[10],
            clock_after_ms: scalars[11],
            host,
            breaker,
            fetch_attempts_after,
        })
    }
}

/// Journals dead letters, snapshots at the configured cadence, and replays
/// journaled jobs during resume. Lives only inside [`crawl_resumable`];
/// the plain crawl entry points run without one.
pub(crate) struct CrawlCheckpointer<'s> {
    store: &'s mut Store,
    every: u64,
    fingerprint: u64,
    /// Jobs fully processed so far (the seq of the next job).
    jobs_done: u64,
    /// How many of `stats.dead_letter` have been journaled already.
    journaled_dls: usize,
    /// Journaled events from the interrupted run, ascending by seq.
    pending: VecDeque<DeadLetterEvent>,
}

impl CrawlCheckpointer<'_> {
    /// If the next job was journaled as a dead letter by the interrupted
    /// run, apply its recorded effects and return `true` (the driver skips
    /// the fetch). Divergence between the journal and the live run is a
    /// typed error, never silent.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_job<F: Fetcher>(
        &mut self,
        job: &Job,
        graph: &WebGraph,
        fetcher: &mut F,
        stats: &mut CrawlStats,
        clock: &mut SimClock,
        breakers: &mut HostBreakers,
    ) -> Result<bool, StoreError> {
        let Some(front) = self.pending.front() else {
            return Ok(false);
        };
        if front.seq != self.jobs_done {
            return Ok(false);
        }
        let ev = match self.pending.pop_front() {
            Some(ev) => ev,
            None => return Ok(false),
        };
        if ev.page != job.page.0 || ev.depth != job.depth as u64 {
            return Err(StoreError::ReplayDiverged {
                stage: STAGE.to_owned(),
                detail: format!(
                    "journal has page {} at depth {} for job {}, live run dequeued page {} at depth {}",
                    ev.page, ev.depth, ev.seq, job.page.0, job.depth
                ),
            });
        }
        stats.attempts = ev.attempts;
        stats.successes = ev.successes;
        stats.retries = ev.retries;
        stats.abandoned = ev.abandoned;
        stats.transient_failures = ev.transient_failures;
        stats.permanent_failures = ev.permanent_failures;
        stats.truncated_pages = ev.truncated_pages;
        stats.redirects_followed = ev.redirects_followed;
        stats.breaker_trips = ev.breaker_trips;
        stats.breaker_rejections = ev.breaker_rejections;
        stats.parked = ev.parked;
        stats.dead_letter.push(DeadLetter {
            url: graph.url(job.page).clone(),
            reason: ev.reason,
            attempts: ev.dl_attempts,
        });
        clock.advance_to(ev.clock_after_ms);
        breakers.import_host(&ev.host, &ev.breaker);
        // Restore the fetcher's attempt counter for this page so later
        // fault rolls line up with the uninterrupted schedule.
        let mut attempts = fetcher.export_attempts();
        match attempts.binary_search_by_key(&ev.page, |&(p, _)| p) {
            Ok(i) => attempts[i].1 = ev.fetch_attempts_after,
            Err(i) => attempts.insert(i, (ev.page, ev.fetch_attempts_after)),
        }
        fetcher.restore_attempts(&attempts);
        self.jobs_done += 1;
        self.journaled_dls = stats.dead_letter.len();
        Ok(true)
    }

    /// Bookkeeping after a live job: journal the dead letter it produced
    /// (if any) and snapshot at the cadence boundary.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_job<F: Fetcher>(
        &mut self,
        job: &Job,
        graph: &WebGraph,
        fetcher: &F,
        pages: &CrawlResult,
        stats: &CrawlStats,
        clock: &SimClock,
        breakers: &HostBreakers,
        seen: &[bool],
        park_counts: &HashMap<PageId, u32>,
        parked: &[Job],
        queue: &VecDeque<Job>,
    ) -> Result<(), StoreError> {
        let seq = self.jobs_done;
        self.jobs_done += 1;
        if stats.dead_letter.len() > self.journaled_dls {
            // A job produces at most one dead letter; journal it with the
            // post-job state of everything the job mutated.
            let dl = &stats.dead_letter[stats.dead_letter.len() - 1];
            let host = graph.url(job.page).host().to_owned();
            let breaker = breakers
                .get(&host)
                .map(|b| b.export())
                .unwrap_or(BreakerSnapshot {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                    probe_successes: 0,
                    open_until_ms: 0,
                    trips: 0,
                });
            let fetch_attempts_after = fetcher
                .export_attempts()
                .iter()
                .find(|&&(p, _)| p == job.page.0)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            let ev = DeadLetterEvent {
                seq,
                page: job.page.0,
                depth: job.depth as u64,
                reason: dl.reason,
                dl_attempts: dl.attempts,
                attempts: stats.attempts,
                successes: stats.successes,
                retries: stats.retries,
                abandoned: stats.abandoned,
                transient_failures: stats.transient_failures,
                permanent_failures: stats.permanent_failures,
                truncated_pages: stats.truncated_pages,
                redirects_followed: stats.redirects_followed,
                breaker_trips: stats.breaker_trips,
                breaker_rejections: stats.breaker_rejections,
                parked: stats.parked,
                clock_after_ms: clock.now_ms(),
                host,
                breaker,
                fetch_attempts_after,
            };
            self.store
                .journal_append(STAGE, KIND_DEAD_LETTER, &ev.encode())?;
            self.journaled_dls = stats.dead_letter.len();
        }
        if self.jobs_done.is_multiple_of(self.every) {
            self.write_snapshot(
                fetcher,
                pages,
                stats,
                clock,
                breakers,
                seen,
                park_counts,
                parked,
                queue,
            )?;
        }
        Ok(())
    }

    /// End of crawl: fail if journaled work was never reached (the journal
    /// belongs to a different run), then write a final snapshot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish<F: Fetcher>(
        &mut self,
        _graph: &WebGraph,
        fetcher: &F,
        pages: &CrawlResult,
        stats: &CrawlStats,
        clock: &SimClock,
        breakers: &HostBreakers,
        seen: &[bool],
        park_counts: &HashMap<PageId, u32>,
        parked: &[Job],
        queue: &VecDeque<Job>,
    ) -> Result<(), StoreError> {
        if let Some(leftover) = self.pending.front() {
            return Err(StoreError::ReplayDiverged {
                stage: STAGE.to_owned(),
                detail: format!(
                    "crawl finished at job {} but the journal still holds an event for job {}",
                    self.jobs_done, leftover.seq
                ),
            });
        }
        self.write_snapshot(
            fetcher,
            pages,
            stats,
            clock,
            breakers,
            seen,
            park_counts,
            parked,
            queue,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn write_snapshot<F: Fetcher>(
        &mut self,
        fetcher: &F,
        pages: &CrawlResult,
        stats: &CrawlStats,
        clock: &SimClock,
        breakers: &HostBreakers,
        seen: &[bool],
        park_counts: &HashMap<PageId, u32>,
        parked: &[Job],
        queue: &VecDeque<Job>,
    ) -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        w.put_u64(self.fingerprint);
        for list in [
            &pages.visited,
            &pages.searchable_form_pages,
            &pages.rejected_form_pages,
        ] {
            w.put_usize(list.len());
            for p in list.iter() {
                w.put_u32(p.0);
            }
        }
        w.put_usize(pages.dead_links);
        for v in [
            stats.attempts,
            stats.successes,
            stats.retries,
            stats.abandoned,
            stats.transient_failures,
            stats.permanent_failures,
            stats.truncated_pages,
            stats.redirects_followed,
            stats.breaker_trips,
            stats.breaker_rejections,
            stats.parked,
        ] {
            w.put_u64(v);
        }
        w.put_usize(stats.dead_letter.len());
        for dl in &stats.dead_letter {
            w.put_str(&dl.url.to_string());
            w.put_u8(reason_code(dl.reason));
            w.put_u32(dl.attempts);
        }
        w.put_u64(clock.now_ms());
        let breaker_snaps = breakers.export();
        w.put_usize(breaker_snaps.len());
        for (host, snap) in &breaker_snaps {
            w.put_str(host);
            put_breaker(&mut w, snap);
        }
        w.put_usize(seen.len());
        let mut packed = vec![0u8; seen.len().div_ceil(8)];
        for (i, &s) in seen.iter().enumerate() {
            if s {
                packed[i / 8] |= 1 << (i % 8);
            }
        }
        w.put_bytes(&packed);
        let mut parks: Vec<(u32, u32)> = park_counts.iter().map(|(p, &c)| (p.0, c)).collect();
        parks.sort_unstable();
        w.put_usize(parks.len());
        for (p, c) in parks {
            w.put_u32(p);
            w.put_u32(c);
        }
        for jobs in [parked, queue.iter().copied().collect::<Vec<_>>().as_slice()] {
            w.put_usize(jobs.len());
            for job in jobs {
                w.put_u32(job.page.0);
                w.put_u64(job.depth as u64);
            }
        }
        let attempts = fetcher.export_attempts();
        w.put_usize(attempts.len());
        for (p, n) in attempts {
            w.put_u32(p);
            w.put_u64(n);
        }
        self.store.snapshot(STAGE, self.jobs_done, &w.into_bytes())
    }
}

/// Decode a crawl snapshot back into live state, restoring the fetcher's
/// attempt counters as a side effect.
fn decode_state<F: Fetcher>(
    graph: &WebGraph,
    config: &ResilientConfig,
    fetcher: &mut F,
    payload: &[u8],
    fingerprint: u64,
) -> Result<CrawlState, StoreError> {
    let path = "crawl.snap";
    let mut r = ByteReader::new(payload, path);
    let stored_fp = r.get_u64()?;
    if stored_fp != fingerprint {
        return Err(StoreError::FingerprintMismatch {
            stage: STAGE.to_owned(),
        });
    }
    let get_pages = |r: &mut ByteReader<'_>| -> Result<Vec<PageId>, StoreError> {
        let n = r.get_usize()?;
        let mut pages = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            pages.push(PageId(r.get_u32()?));
        }
        Ok(pages)
    };
    let visited = get_pages(&mut r)?;
    let searchable = get_pages(&mut r)?;
    let rejected = get_pages(&mut r)?;
    let dead_links = r.get_usize()?;
    let mut scalars = [0u64; 11];
    for slot in &mut scalars {
        *slot = r.get_u64()?;
    }
    let n_dls = r.get_usize()?;
    let mut dead_letter = Vec::with_capacity(n_dls.min(1 << 20));
    for _ in 0..n_dls {
        let url_str = r.get_str()?;
        let url = Url::parse(url_str).ok_or_else(|| StoreError::Corrupt {
            path: path.to_owned(),
            detail: format!("unparseable dead-letter url {url_str:?}"),
        })?;
        let reason = reason_from(r.get_u8()?, path)?;
        let attempts = r.get_u32()?;
        dead_letter.push(DeadLetter {
            url,
            reason,
            attempts,
        });
    }
    let clock_ms = r.get_u64()?;
    let n_breakers = r.get_usize()?;
    let mut breaker_snaps = Vec::with_capacity(n_breakers.min(1 << 20));
    for _ in 0..n_breakers {
        let host = r.get_str()?.to_owned();
        let snap = get_breaker(&mut r, path)?;
        breaker_snaps.push((host, snap));
    }
    let seen_len = r.get_usize()?;
    if seen_len != graph.len() {
        return Err(StoreError::FingerprintMismatch {
            stage: STAGE.to_owned(),
        });
    }
    let packed = r.get_bytes()?;
    if packed.len() != seen_len.div_ceil(8) {
        return Err(StoreError::Corrupt {
            path: path.to_owned(),
            detail: "seen bitmap length mismatch".to_owned(),
        });
    }
    let seen: Vec<bool> = (0..seen_len)
        .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    let n_parks = r.get_usize()?;
    let mut park_counts = HashMap::with_capacity(n_parks.min(1 << 20));
    for _ in 0..n_parks {
        let p = r.get_u32()?;
        let c = r.get_u32()?;
        park_counts.insert(PageId(p), c);
    }
    let get_jobs = |r: &mut ByteReader<'_>| -> Result<Vec<Job>, StoreError> {
        let n = r.get_usize()?;
        let mut jobs = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let page = PageId(r.get_u32()?);
            let depth = usize::try_from(r.get_u64()?).map_err(|_| StoreError::Corrupt {
                path: path.to_owned(),
                detail: "job depth exceeds usize".to_owned(),
            })?;
            jobs.push(Job { page, depth });
        }
        Ok(jobs)
    };
    let parked = get_jobs(&mut r)?;
    let queue: VecDeque<Job> = get_jobs(&mut r)?.into();
    let n_attempts = r.get_usize()?;
    let mut attempts = Vec::with_capacity(n_attempts.min(1 << 20));
    for _ in 0..n_attempts {
        let p = r.get_u32()?;
        let n = r.get_u64()?;
        attempts.push((p, n));
    }
    fetcher.restore_attempts(&attempts);

    let mut breakers = HostBreakers::new(config.breaker);
    breakers.import(&breaker_snaps);
    let mut clock = SimClock::new();
    clock.advance_to(clock_ms);
    let stats = CrawlStats {
        attempts: scalars[0],
        successes: scalars[1],
        retries: scalars[2],
        abandoned: scalars[3],
        transient_failures: scalars[4],
        permanent_failures: scalars[5],
        truncated_pages: scalars[6],
        redirects_followed: scalars[7],
        breaker_trips: scalars[8],
        breaker_rejections: scalars[9],
        parked: scalars[10],
        sim_elapsed_ms: 0,
        dead_letter,
        abandoned_hosts: Vec::new(),
    };
    Ok(CrawlState {
        pages: CrawlResult {
            visited,
            searchable_form_pages: searchable,
            rejected_form_pages: rejected,
            dead_links,
        },
        stats,
        clock,
        breakers,
        seen,
        park_counts,
        parked,
        queue,
    })
}

/// Fingerprint of everything that shapes a crawl's trajectory: the graph
/// size, the seed, and every numeric knob. A checkpoint written under a
/// different fingerprint refuses to resume. (The fetcher's own fault
/// configuration cannot be observed through the [`Fetcher`] trait; callers
/// changing fault seeds between runs get the divergence error instead.)
fn run_fingerprint(graph: &WebGraph, seed: PageId, config: &ResilientConfig) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u32(seed.0);
    w.put_usize(graph.len());
    w.put_usize(config.crawl.max_pages);
    w.put_usize(config.crawl.max_depth);
    w.put_u32(config.max_parks);
    w.put_u32(config.retry.max_retries);
    w.put_u64(config.retry.base_delay_ms);
    w.put_u64(config.retry.max_delay_ms);
    w.put_f64(config.retry.jitter);
    w.put_u32(config.breaker.failure_threshold);
    w.put_u64(config.breaker.cooldown_ms);
    w.put_u32(config.breaker.half_open_successes);
    fnv1a64(&w.into_bytes())
}

/// [`crawl_resilient`](crate::crawl_resilient) with durable
/// checkpoints: snapshots every `store.config().checkpoint_every` jobs,
/// dead letters journaled as they happen, and — when `resume` is true —
/// recovery from whatever valid state the store holds. A resumed crawl
/// produces bit-identical [`CrawlResult`] and [`CrawlStats`] to an
/// uninterrupted one and never re-attempts dead-lettered pages.
pub fn crawl_resumable<F: Fetcher>(
    graph: &WebGraph,
    fetcher: &mut F,
    seed: PageId,
    config: &ResilientConfig,
    obs: &Obs,
    store: &mut Store,
    resume: bool,
) -> Result<ResilientCrawlOutcome, StoreError> {
    let fingerprint = run_fingerprint(graph, seed, config);
    let mut pending = VecDeque::new();
    let mut snapshot = None;
    if resume {
        // Drop any torn tail the crash left, then load the durable state.
        store.journal_truncate_to_valid(STAGE)?;
        snapshot = store.load_snapshot(STAGE)?;
        let since = snapshot.as_ref().map_or(0, |s| s.seq);
        let mut saw_fingerprint = false;
        for rec in store.journal_records(STAGE)? {
            match rec.kind {
                KIND_FINGERPRINT => {
                    let mut r = ByteReader::new(&rec.payload, "crawl.journal");
                    if r.get_u64()? != fingerprint {
                        return Err(StoreError::FingerprintMismatch {
                            stage: STAGE.to_owned(),
                        });
                    }
                    saw_fingerprint = true;
                }
                KIND_DEAD_LETTER => {
                    let ev = DeadLetterEvent::decode(&rec.payload)?;
                    if ev.seq >= since {
                        pending.push_back(ev);
                    }
                }
                // Unknown kinds are future format extensions: ignore.
                _ => {}
            }
        }
        if !saw_fingerprint && snapshot.is_none() {
            // Nothing durable: a --resume against an empty directory is a
            // fresh start.
            store.journal_append(STAGE, KIND_FINGERPRINT, &{
                let mut w = ByteWriter::new();
                w.put_u64(fingerprint);
                w.into_bytes()
            })?;
        }
    } else {
        store.reset_stage(STAGE)?;
        store.journal_append(STAGE, KIND_FINGERPRINT, &{
            let mut w = ByteWriter::new();
            w.put_u64(fingerprint);
            w.into_bytes()
        })?;
    }

    let (state, jobs_done) = match &snapshot {
        Some(snap) => {
            let state = decode_state(graph, config, fetcher, &snap.payload, fingerprint)?;
            (state, snap.seq)
        }
        None => (CrawlState::initial(graph, seed, config), 0),
    };
    let journaled_dls = state.stats.dead_letter.len();
    let every = store.config().checkpoint_every.max(1);
    let mut ckpt = CrawlCheckpointer {
        store,
        every,
        fingerprint,
        jobs_done,
        journaled_dls,
        pending,
    };
    crawl_driver(graph, fetcher, config, obs, state, Some(&mut ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crawl_resilient, ChaosFetcher, FaultConfig};
    use cafc_corpus::{generate, CorpusConfig};
    use cafc_store::{ChaosFs, FaultPlan, StdFs, StoreConfig};

    fn store_at(dir: &std::path::Path, every: u64) -> Store {
        Store::open(
            dir,
            StoreConfig::new().with_checkpoint_every(every),
            Obs::disabled(),
        )
        .expect("open store")
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cafc-crawl-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fault_config() -> FaultConfig {
        FaultConfig {
            transient_rate: 0.25,
            permanent_rate: 0.05,
            truncate_rate: 0.1,
            redirect_rate: 0.05,
            seed: 1234,
            ..Default::default()
        }
    }

    fn assert_outcomes_identical(a: &ResilientCrawlOutcome, b: &ResilientCrawlOutcome) {
        assert_eq!(a.pages.visited, b.pages.visited);
        assert_eq!(a.pages.searchable_form_pages, b.pages.searchable_form_pages);
        assert_eq!(a.pages.rejected_form_pages, b.pages.rejected_form_pages);
        assert_eq!(a.pages.dead_links, b.pages.dead_links);
        assert_eq!(a.stats.attempts, b.stats.attempts);
        assert_eq!(a.stats.successes, b.stats.successes);
        assert_eq!(a.stats.retries, b.stats.retries);
        assert_eq!(a.stats.abandoned, b.stats.abandoned);
        assert_eq!(a.stats.sim_elapsed_ms, b.stats.sim_elapsed_ms);
        assert_eq!(a.stats.breaker_trips, b.stats.breaker_trips);
        assert_eq!(a.stats.abandoned_hosts, b.stats.abandoned_hosts);
        assert_eq!(a.stats.dead_letter.len(), b.stats.dead_letter.len());
        for (da, db) in a.stats.dead_letter.iter().zip(&b.stats.dead_letter) {
            assert_eq!(da.url.to_string(), db.url.to_string());
            assert_eq!(da.reason, db.reason);
            assert_eq!(da.attempts, db.attempts);
        }
    }

    #[test]
    fn checkpointed_crawl_matches_plain_crawl() {
        let web = generate(&CorpusConfig::small(41));
        let mut chaos = ChaosFetcher::over_graph(&web.graph, fault_config());
        let baseline = crawl_resilient(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &Obs::disabled(),
        );

        let dir = tmp_dir("clean");
        let mut store = store_at(&dir, 8);
        let mut chaos = ChaosFetcher::over_graph(&web.graph, fault_config());
        let outcome = crawl_resumable(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &Obs::disabled(),
            &mut store,
            false,
        )
        .expect("checkpointed crawl");
        assert_outcomes_identical(&baseline, &outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_and_resume_is_bit_identical_and_skips_dead_pages() {
        let web = generate(&CorpusConfig::small(41));
        let config = ResilientConfig::default();
        let mut chaos = ChaosFetcher::over_graph(&web.graph, fault_config());
        let baseline = crawl_resilient(
            &web.graph,
            &mut chaos,
            web.portal,
            &config,
            &Obs::disabled(),
        );
        assert!(
            !baseline.stats.dead_letter.is_empty(),
            "fault config must produce dead letters for this test to bite"
        );

        let dir = tmp_dir("crash");
        // Crash the run at a spread of store-operation indices.
        for at in [3u64, 9, 17, 31] {
            let _ = std::fs::remove_dir_all(&dir);
            let (chaos_fs, _ctl) = ChaosFs::controlled(
                StdFs,
                FaultPlan::AtOp {
                    op: at,
                    kind: cafc_store::FaultKind::TornWrite,
                },
            );
            let mut store = Store::open_with_vfs(
                Box::new(chaos_fs),
                &dir,
                StoreConfig::new().with_checkpoint_every(4),
                Obs::disabled(),
            )
            .expect("open");
            let mut fetcher = ChaosFetcher::over_graph(&web.graph, fault_config());
            let crashed = crawl_resumable(
                &web.graph,
                &mut fetcher,
                web.portal,
                &config,
                &Obs::disabled(),
                &mut store,
                false,
            );
            if let Ok(completed) = &crashed {
                // The injected op index was past the run's I/O; nothing to
                // resume. Still verify the completed run matched.
                assert_outcomes_identical(&baseline, completed);
                continue;
            }

            // Fresh process: resume over the real filesystem with a fresh
            // fetcher (its state comes back from the snapshot).
            let mut store = store_at(&dir, 4);
            let mut fetcher = ChaosFetcher::over_graph(&web.graph, fault_config());
            let resumed = crawl_resumable(
                &web.graph,
                &mut fetcher,
                web.portal,
                &config,
                &Obs::disabled(),
                &mut store,
                true,
            )
            .expect("resume after crash at op {at}");
            assert_outcomes_identical(&baseline, &resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_different_config_is_refused() {
        let web = generate(&CorpusConfig::small(41));
        let dir = tmp_dir("fpmismatch");
        let mut store = store_at(&dir, 4);
        let mut chaos = ChaosFetcher::over_graph(&web.graph, fault_config());
        crawl_resumable(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &Obs::disabled(),
            &mut store,
            false,
        )
        .expect("first run");
        let mut other = ResilientConfig::default();
        other.crawl.max_depth = 2;
        let mut chaos = ChaosFetcher::over_graph(&web.graph, fault_config());
        let err = crawl_resumable(
            &web.graph,
            &mut chaos,
            web.portal,
            &other,
            &Obs::disabled(),
            &mut store,
            true,
        )
        .expect_err("different config must refuse to resume");
        assert!(
            matches!(err, StoreError::FingerprintMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
