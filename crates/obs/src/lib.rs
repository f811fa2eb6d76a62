//! # cafc-obs
//!
//! A dependency-free observability layer for the CAFC pipeline: a metrics
//! registry (counters, gauges, fixed-bucket histograms), hierarchical span
//! timing, stable-order text/JSON exporters, and the workspace's one
//! [`json`] module (escaper, float format, `Value` tree, parser).
//!
//! Two properties drive the design:
//!
//! * **Near-zero cost when disabled.** The [`Obs`] handle is an
//!   `Option<Arc<…>>`; [`Obs::disabled`] carries `None` and every
//!   instrumentation call returns immediately without reading a clock or
//!   taking a lock. Library code threads `&Obs` unconditionally and pays
//!   (almost) nothing when no sink is installed.
//! * **Deterministic snapshots under test.** Time comes from a pluggable
//!   [`Clock`]. Production uses [`MonotonicClock`] (`std::time::Instant`);
//!   tests install a [`ManualClock`] — a logical clock that only moves when
//!   the test advances it — so every duration is a pure function of the
//!   program's structure (usually zero) and rendered snapshots are
//!   byte-stable across runs *and across [`ExecPolicy`] thread counts*.
//!   All maps are `BTreeMap`s, so rendered field order never depends on
//!   insertion order.
//!
//! Concurrency contract: counters, gauges, and histograms may be touched
//! from any thread (worker closures included) — they aggregate
//! commutatively. **Spans must only be opened and closed on the
//! orchestrating thread** (between `par_*` calls): there is a single span
//! stack, and interleaved opens from multiple threads would produce a
//! nonsense tree. Every instrumented crate in this workspace follows that
//! rule.
//!
//! [`ExecPolicy`]: https://docs.rs/cafc-exec

#![warn(missing_docs)]

pub mod json;
mod snapshot;

pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A monotonic time source reporting nanoseconds since an arbitrary origin.
///
/// Implementations must be cheap: the pipeline reads the clock around every
/// instrumented stage (and, for ingestion, around every page phase).
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// Production clock: wall-clock-independent monotonic time from
/// [`std::time::Instant`], measured from the moment the clock was created.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Test clock: a logical clock that advances **only** when told to.
///
/// `now_ns` never auto-increments — an auto-ticking clock read from
/// parallel workers would make durations depend on the thread schedule and
/// break snapshot determinism. With a manual clock, any span the test does
/// not straddle with [`ManualClock::advance_ns`] has duration exactly 0,
/// identically under every `ExecPolicy`.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A logical clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `delta` nanoseconds.
    pub fn advance_ns(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::SeqCst);
    }

    /// Advance the clock by `delta` microseconds.
    pub fn advance_us(&self, delta: u64) {
        self.advance_ns(delta.saturating_mul(1_000));
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

/// Histogram bucket upper bounds for duration metrics ([`Obs::observe`]),
/// in microseconds (spanning 10 µs … 1 s; slower observations land in the
/// implicit `+Inf` overflow bucket).
pub const DEFAULT_DURATION_BUCKETS_US: [f64; 11] = [
    10.0,
    50.0,
    100.0,
    500.0,
    1_000.0,
    5_000.0,
    10_000.0,
    50_000.0,
    100_000.0,
    500_000.0,
    1_000_000.0,
];

/// Bucket upper bounds for fraction-valued metrics (0‥1), e.g. the k-means
/// per-iteration moved fraction.
pub const FRACTION_BUCKETS: [f64; 8] = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];

/// A fixed-bucket histogram: cumulative-style counts per upper bound plus
/// an implicit `+Inf` overflow bucket, total count, and value sum.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last is the `+Inf` overflow bucket.
    bucket_counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            bucket_counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.bucket_counts[slot] += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            bucket_counts: self.bucket_counts.clone(),
            count: self.count,
            sum: self.sum,
        }
    }
}

/// One node in the aggregated span tree: spans are keyed by
/// `(parent, name)`, so repeated entries (e.g. `kmeans.assign` once per
/// iteration) accumulate into a single node.
#[derive(Debug)]
struct SpanData {
    name: String,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Span arena; `roots` and `SpanData::children` index into it.
    spans: Vec<SpanData>,
    roots: Vec<usize>,
    /// Stack of currently-open spans (orchestrating thread only).
    stack: Vec<usize>,
}

impl State {
    fn find_or_create_span(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.spans[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&c| self.spans[c].name == name) {
            return idx;
        }
        let idx = self.spans.len();
        self.spans.push(SpanData {
            name: name.to_string(),
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
        });
        match parent {
            Some(p) => self.spans[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }
}

struct Inner {
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
}

impl Inner {
    /// Lock the registry state, recovering from poisoning: metrics must
    /// never compound a worker panic with a second one.
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The observability handle threaded through the pipeline.
///
/// Cheap to clone (an `Option<Arc<…>>`). [`Obs::disabled`] — the default —
/// makes every method a no-op; see the crate docs for the cost and
/// concurrency contracts.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Obs(enabled)"
        } else {
            "Obs(disabled)"
        })
    }
}

impl Obs {
    /// A no-op handle: every instrumentation call returns immediately.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle on the production [`MonotonicClock`].
    pub fn enabled() -> Obs {
        Obs::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An enabled handle on an explicit clock. Tests pass an
    /// `Arc<ManualClock>` here and keep a clone to advance it.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                clock,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether a sink is installed. Use to skip *preparing* instrumentation
    /// inputs (formatting metric names, cloning handles into workers) — the
    /// recording calls already self-gate.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increment counter `name` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        let slot = st.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().gauges.insert(name.to_string(), value);
    }

    /// Record `value` into histogram `name` using the duration buckets
    /// [`DEFAULT_DURATION_BUCKETS_US`] (µs). Bucket bounds are fixed at the
    /// histogram's first observation.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_in(name, &DEFAULT_DURATION_BUCKETS_US, value);
    }

    /// Record `value` into histogram `name` with explicit bucket upper
    /// bounds (used for non-duration distributions, e.g.
    /// [`FRACTION_BUCKETS`]). Bounds are fixed at first observation.
    pub fn observe_in(&self, name: &str, bounds: &[f64], value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        st.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Read the clock for a later [`Obs::observe_since`]; `None` when
    /// disabled (no clock read at all).
    pub fn start_timer(&self) -> Option<u64> {
        self.inner.as_ref().map(|inner| inner.clock.now_ns())
    }

    /// Record the elapsed time since `start` (from [`Obs::start_timer`])
    /// into duration histogram `name`, in microseconds.
    pub fn observe_since(&self, name: &str, start: Option<u64>) {
        let (Some(inner), Some(start)) = (&self.inner, start) else {
            return;
        };
        let elapsed_ns = inner.clock.now_ns().saturating_sub(start);
        self.observe(name, elapsed_ns as f64 / 1_000.0);
    }

    /// Open a span named `name`, nested under the currently-open span.
    ///
    /// The span closes (and its duration accrues) when the returned guard
    /// drops. Spans aggregate by `(parent, name)`: re-entering the same
    /// name under the same parent bumps `calls` on one node. Orchestrating
    /// thread only — see the crate docs.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { open: None };
        };
        let start = inner.clock.now_ns();
        let mut st = inner.lock();
        let parent = st.stack.last().copied();
        let idx = st.find_or_create_span(parent, name);
        st.stack.push(idx);
        SpanGuard {
            open: Some((Arc::clone(inner), idx, start)),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Snapshot the registry: counters/gauges/histograms in name order and
    /// the span tree in creation order. Empty when disabled.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let st = inner.lock();
        Snapshot {
            counters: st.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: st.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: st
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            spans: st
                .roots
                .iter()
                .map(|&r| span_snapshot(&st.spans, r))
                .collect(),
        }
    }
}

fn span_snapshot(spans: &[SpanData], idx: usize) -> SpanSnapshot {
    let s = &spans[idx];
    SpanSnapshot {
        name: s.name.clone(),
        calls: s.calls,
        total_ns: s.total_ns,
        children: s
            .children
            .iter()
            .map(|&c| span_snapshot(spans, c))
            .collect(),
    }
}

/// Guard returned by [`Obs::span`]; closing happens on drop.
#[must_use = "a span measures the scope of its guard; dropping it immediately closes the span"]
pub struct SpanGuard {
    open: Option<(Arc<Inner>, usize, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx, start)) = self.open.take() {
            let elapsed = inner.clock.now_ns().saturating_sub(start);
            let mut st = inner.lock();
            let span = &mut st.spans[idx];
            span.calls += 1;
            span.total_ns = span.total_ns.saturating_add(elapsed);
            // Pop back to (and including) our own frame; mis-nested guards
            // dropped out of order degrade gracefully instead of panicking.
            while let Some(top) = st.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.incr("a");
        obs.gauge("g", 1.0);
        obs.observe("h", 2.0);
        assert_eq!(obs.start_timer(), None);
        obs.observe_since("h", None);
        let _ = obs.span("root");
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_and_gauges() {
        let obs = Obs::enabled();
        obs.incr("b");
        obs.incr("a");
        obs.add("a", 4);
        obs.gauge("g", 2.5);
        obs.gauge("g", 3.5);
        let snap = obs.snapshot();
        // BTreeMap order, not insertion order.
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 5), ("b".to_string(), 1)]
        );
        assert_eq!(snap.gauges, vec![("g".to_string(), 3.5)]);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let obs = Obs::enabled();
        for v in [5.0, 10.0, 11.0, 1e9] {
            obs.observe_in("h", &[10.0, 100.0], v);
        }
        let snap = obs.snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "h");
        assert_eq!(h.bounds, vec![10.0, 100.0]);
        assert_eq!(h.bucket_counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 5.0 + 10.0 + 11.0 + 1e9);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _root = obs.span("root");
            for _ in 0..3 {
                let inner = obs.span("step");
                clock.advance_us(10);
                drop(inner);
            }
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let root = &snap.spans[0];
        assert_eq!((root.name.as_str(), root.calls), ("root", 1));
        assert_eq!(root.total_ns, 30_000);
        assert_eq!(root.children.len(), 1, "same-name spans aggregate");
        let step = &root.children[0];
        assert_eq!(
            (step.name.as_str(), step.calls, step.total_ns),
            ("step", 3, 30_000)
        );
    }

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 0, "no auto-tick");
        clock.advance_ns(7);
        assert_eq!(clock.now_ns(), 7);
    }

    #[test]
    fn timer_measures_manual_time() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let t0 = obs.start_timer();
        clock.advance_us(250);
        obs.observe_since("d", t0);
        let snap = obs.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 250.0);
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let clock = MonotonicClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn concurrent_counters_sum_exactly() {
        let obs = Obs::enabled();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        obs.incr("n");
                    }
                });
            }
        });
        assert_eq!(obs.snapshot().counters, vec![("n".to_string(), 8000)]);
    }
}
