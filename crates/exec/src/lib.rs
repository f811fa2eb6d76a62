//! # cafc-exec
//!
//! A deterministic parallel execution layer on `std::thread` — no external
//! dependencies, no work stealing, no result reordering.
//!
//! Form-page clustering is embarrassingly parallel per page and per pair,
//! but a naive fan-out destroys reproducibility: float accumulation order
//! depends on the thread schedule and the answer changes with the core
//! count. Every primitive here is built around one rule instead:
//!
//! > **Work is split at *fixed chunk boundaries* that depend only on the
//! > item count, never on the thread count, and partial results are merged
//! > in chunk-index order.**
//!
//! Threads race only for *which chunk to compute next* (an atomic ticket),
//! never for where a result lands. The output of every primitive is
//! therefore bit-identical across [`ExecPolicy::Serial`],
//! [`ExecPolicy::Parallel`] at any thread count, and [`ExecPolicy::Auto`]
//! — the serial path runs the exact same chunked code single-threaded.
//!
//! * [`par_chunks`] — the core primitive: apply a closure to each fixed
//!   index chunk, return per-chunk results in chunk order.
//! * [`par_map`] / [`par_map_slice`] — order-preserving element-wise map.
//! * [`par_reduce`] — indexed-chunk reduction: per-chunk partials merged
//!   left-to-right in chunk order (deterministic float sums).

#![warn(missing_docs)]

use cafc_obs::Obs;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// How a parallelizable stage executes.
///
/// Every policy produces bit-identical results (see the crate docs); the
/// policy only chooses how many OS threads do the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Single-threaded, on the calling thread. The default everywhere.
    #[default]
    Serial,
    /// A fixed number of worker threads (clamped to at least 1).
    Parallel {
        /// Worker thread count.
        threads: usize,
    },
    /// One thread per available core (`std::thread::available_parallelism`),
    /// falling back to serial when the core count cannot be determined.
    Auto,
}

impl ExecPolicy {
    /// The resolved worker-thread count for this policy (always ≥ 1).
    pub fn threads(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads } => threads.max(1),
            ExecPolicy::Auto => std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
        }
    }
}

/// Default chunk length for element-wise maps. Fixed — never derived from
/// the thread count — so chunk boundaries (and thus merge order) are a pure
/// function of the item count.
pub const DEFAULT_CHUNK: usize = 64;

/// The `c`-th fixed chunk of `0..n` at chunk length `chunk_len`.
fn chunk_range(c: usize, n: usize, chunk_len: usize) -> Range<usize> {
    let lo = c * chunk_len;
    lo..((lo + chunk_len).min(n))
}

/// Apply `f` to every fixed chunk of `0..n` and return the per-chunk
/// results **in chunk order**.
///
/// Chunk boundaries are `[0, chunk_len)`, `[chunk_len, 2·chunk_len)`, …
/// regardless of `policy`; parallel workers pull chunk tickets from an
/// atomic counter and send results home tagged with their chunk index, so
/// the returned `Vec` is independent of scheduling. `chunk_len` is clamped
/// to at least 1.
pub fn par_chunks<A, F>(policy: ExecPolicy, n: usize, chunk_len: usize, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
{
    let chunk_len = chunk_len.max(1);
    let num_chunks = n.div_ceil(chunk_len);
    let threads = policy.threads().min(num_chunks);
    if threads <= 1 {
        return (0..num_chunks)
            .map(|c| f(chunk_range(c, n, chunk_len)))
            .collect();
    }

    let ticket = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, A)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let ticket = &ticket;
            let f = &f;
            scope.spawn(move || loop {
                let c = ticket.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    break;
                }
                let out = f(chunk_range(c, n, chunk_len));
                if tx.send((c, out)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<A>> = (0..num_chunks).map(|_| None).collect();
    for (c, out) in rx {
        slots[c] = Some(out);
    }
    // A missing slot cannot happen (the scope joins every worker and worker
    // panics propagate out of it), but recompute rather than panic if the
    // impossible occurs.
    slots
        .into_iter()
        .enumerate()
        .map(|(c, slot)| slot.unwrap_or_else(|| f(chunk_range(c, n, chunk_len))))
        .collect()
}

/// Order-preserving parallel map over `0..n`: returns
/// `vec![f(0), f(1), …, f(n-1)]` for every policy.
pub fn par_map<R, F>(policy: ExecPolicy, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunks = par_chunks(policy, n, DEFAULT_CHUNK, |range| {
        range.map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Order-preserving parallel map over a slice: returns
/// `vec![f(0, &items[0]), …]` for every policy.
pub fn par_map_slice<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(policy, items.len(), |i| f(i, &items[i]))
}

/// [`par_chunks`] with per-chunk instrumentation under `label`:
///
/// * counter `{label}.chunks` — chunks dispatched (`⌈n / chunk_len⌉`);
/// * counter `{label}.items` — items covered (`n`);
/// * histogram `{label}.chunk_us` — per-chunk wall clock, observed by the
///   worker that computed the chunk.
///
/// Chunk boundaries, merge order, and results are exactly those of
/// [`par_chunks`]; instrumentation never influences scheduling. Chunk
/// counts depend only on `n` and `chunk_len`, and under a logical clock
/// every duration is 0, so snapshots stay byte-identical across policies.
/// A disabled `obs` skips even the metric-name formatting.
pub fn par_chunks_obs<A, F>(
    policy: ExecPolicy,
    n: usize,
    chunk_len: usize,
    obs: &Obs,
    label: &str,
    f: F,
) -> Vec<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
{
    if !obs.is_enabled() {
        return par_chunks(policy, n, chunk_len, f);
    }
    let chunk_len = chunk_len.max(1);
    obs.add(&format!("{label}.chunks"), n.div_ceil(chunk_len) as u64);
    obs.add(&format!("{label}.items"), n as u64);
    let chunk_metric = format!("{label}.chunk_us");
    par_chunks(policy, n, chunk_len, |range| {
        let t0 = obs.start_timer();
        let out = f(range);
        obs.observe_since(&chunk_metric, t0);
        out
    })
}

/// [`par_map`] with per-chunk instrumentation under `label` — see
/// [`par_chunks_obs`] for the metrics emitted.
pub fn par_map_obs<R, F>(policy: ExecPolicy, n: usize, obs: &Obs, label: &str, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunks = par_chunks_obs(policy, n, DEFAULT_CHUNK, obs, label, |range| {
        range.map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Indexed-chunk reduction: compute a partial result per fixed chunk of
/// `0..n`, then merge the partials **left to right in chunk order**.
///
/// Because chunk boundaries depend only on `n` and `chunk_len`, and the
/// merge order is fixed, floating-point reductions are bit-identical across
/// policies and thread counts. Returns `None` when `n == 0`.
pub fn par_reduce<A, F, M>(
    policy: ExecPolicy,
    n: usize,
    chunk_len: usize,
    map: F,
    merge: M,
) -> Option<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let partials = par_chunks(policy, n, chunk_len, map);
    partials.into_iter().reduce(merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [ExecPolicy; 5] = [
        ExecPolicy::Serial,
        ExecPolicy::Parallel { threads: 1 },
        ExecPolicy::Parallel { threads: 3 },
        ExecPolicy::Parallel { threads: 7 },
        ExecPolicy::Auto,
    ];

    #[test]
    fn threads_resolution() {
        assert_eq!(ExecPolicy::Serial.threads(), 1);
        assert_eq!(ExecPolicy::Parallel { threads: 4 }.threads(), 4);
        assert_eq!(ExecPolicy::Parallel { threads: 0 }.threads(), 1);
        assert!(ExecPolicy::Auto.threads() >= 1);
    }

    #[test]
    fn par_map_preserves_order_for_every_policy() {
        let expect: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for policy in POLICIES {
            assert_eq!(par_map(policy, 1000, |i| i * i), expect, "{policy:?}");
        }
    }

    #[test]
    fn par_map_slice_matches_serial() {
        let items: Vec<String> = (0..300).map(|i| format!("x{i}")).collect();
        let expect: Vec<usize> = items.iter().enumerate().map(|(i, s)| i + s.len()).collect();
        for policy in POLICIES {
            assert_eq!(
                par_map_slice(policy, &items, |i, s| i + s.len()),
                expect,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn par_chunks_boundaries_are_fixed() {
        for policy in POLICIES {
            let ranges = par_chunks(policy, 10, 4, |r| r);
            assert_eq!(ranges, vec![0..4, 4..8, 8..10], "{policy:?}");
        }
    }

    #[test]
    fn float_reduction_is_bit_identical_across_policies() {
        // A sum that is sensitive to association order: all policies must
        // produce the exact same bits because they share chunk boundaries.
        let value =
            |i: usize| 1.0 / (i as f64 + 1.0) * if i.is_multiple_of(2) { 1.0 } else { -1.0 };
        let sum = |policy| {
            par_reduce(
                policy,
                10_000,
                128,
                |r| r.map(value).sum::<f64>(),
                |a, b| a + b,
            )
            .map(f64::to_bits)
        };
        let serial = sum(ExecPolicy::Serial);
        assert!(serial.is_some());
        for policy in POLICIES {
            assert_eq!(sum(policy), serial, "{policy:?}");
        }
    }

    #[test]
    fn reduce_empty_is_none() {
        for policy in POLICIES {
            assert_eq!(
                par_reduce(policy, 0, 8, |r| r.len(), |a, b| a + b),
                None,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn zero_and_tiny_inputs() {
        for policy in POLICIES {
            assert_eq!(par_map(policy, 0, |i| i), Vec::<usize>::new());
            assert_eq!(par_map(policy, 1, |i| i + 41), vec![41]);
        }
    }

    #[test]
    fn chunk_len_zero_is_clamped() {
        assert_eq!(
            par_chunks(ExecPolicy::Serial, 3, 0, |r| r.len()),
            vec![1; 3]
        );
    }

    #[test]
    fn more_threads_than_chunks() {
        let out = par_map(ExecPolicy::Parallel { threads: 64 }, 5, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn obs_variants_match_uninstrumented_results() {
        let expect: Vec<usize> = (0..500).map(|i| i * 3).collect();
        for policy in POLICIES {
            for obs in [Obs::disabled(), Obs::enabled()] {
                assert_eq!(
                    par_map_obs(policy, 500, &obs, "t", |i| i * 3),
                    expect,
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn obs_chunk_metrics_are_policy_invariant() {
        let run = |policy| {
            let obs = Obs::with_clock(std::sync::Arc::new(cafc_obs::ManualClock::new()));
            par_chunks_obs(policy, 10, 4, &obs, "stage", |r| r.len());
            obs.snapshot().render_json()
        };
        let serial = run(ExecPolicy::Serial);
        assert!(serial.contains("\"stage.chunks\": 3"), "{serial}");
        assert!(serial.contains("\"stage.items\": 10"), "{serial}");
        assert!(serial.contains("stage.chunk_us"), "{serial}");
        for policy in POLICIES {
            assert_eq!(run(policy), serial, "{policy:?}");
        }
    }
}
