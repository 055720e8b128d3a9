//! Deterministic telemetry for the scan pipeline: spans, counters and
//! histograms that are **byte-identity-safe** by construction.
//!
//! The paper's error taxonomy only means something if a failure can be
//! attributed to a stage (DNS TXT, HTTPS policy fetch, per-MX STARTTLS
//! probe — PAPER.md §4, Table 3), and the ROADMAP's "fast as the
//! hardware allows" goal needs to know where wall-clock goes before the
//! next optimisation. But every experiment in this workspace is also
//! contractually reproducible from a seed, so the telemetry layer obeys
//! one hard rule:
//!
//! > **Enabling telemetry must never change any scan output.** It draws
//! > from no RNG, advances no simulated clock, and takes no locks on the
//! > scan path. Collectors are thread-local; the only cross-thread step
//! > is an explicit merge in shard order after the workers have already
//! > produced their (telemetry-free) results.
//!
//! The digest suites pin this: full and weekly study digests are
//! asserted byte-identical with telemetry on and off, at
//! `SCAN_THREADS ∈ {1, 8}` (see `crates/scanner/tests/telemetry_identity.rs`
//! and the CI job that re-runs the PR-3/PR-4 suites with `RUN_TRACE`
//! set).
//!
//! # Model
//!
//! - **Counters** ([`counter!`]) are monotonic `u64` sums keyed by a
//!   static name — retries, backoff sleeps, fault activations,
//!   attack-window intersections, cache hits/misses/stand-downs.
//! - **Histograms** ([`histogram!`]) bucket `u64` samples into
//!   power-of-two buckets. Bucket boundaries are pure integer
//!   arithmetic (`floor(log2(v)) + 1` via `leading_zeros`), so they are
//!   identical on every platform — a property the merge proptests pin.
//! - **Spans** ([`span!`] / [`SpanTimer`]) measure one named pipeline
//!   stage, carrying *both* clocks: real elapsed nanoseconds
//!   (`std::time::Instant`) and simulated elapsed seconds (the
//!   scanner's retry/backoff clock). Per-name aggregates live in the
//!   collector; individual spans stream to the JSONL trace when
//!   `RUN_TRACE` is set.
//! - **Events** ([`event!`]) are counters that also emit a trace line —
//!   supervisor checkpoint writes, resumes, panic isolations.
//!
//! # Enablement
//!
//! Telemetry is off by default and costs one relaxed atomic load per
//! call site when off. It turns on when:
//!
//! - the `RUN_TRACE` environment variable is set (the JSONL trace
//!   exporter activates too, appending to that path), or
//! - the `OBSV` environment variable is set to anything but `0`, or
//! - [`set_enabled`]`(true)` is called programmatically.
//!
//! # Merge discipline
//!
//! Worker threads each accumulate into their own thread-local
//! [`Collector`]. `netbase::map_sharded` harvests each worker's
//! collector ([`harvest`]) and merges them into the caller's collector
//! **in shard order** ([`absorb`]). Aggregate counters and histograms
//! are commutative sums, so any merge order yields the same aggregate —
//! the shard-order convention exists so the operation is deterministic
//! by construction rather than by argument (and the proptests check the
//! commutativity claim).

pub mod export;
pub mod health;
pub mod timeseries;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;
use std::time::Instant;

// ---------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Whether telemetry is enabled. The first call reads the environment
/// (`RUN_TRACE` set, or `OBSV` set to anything but `0` / empty); later
/// calls are one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        let from_env = std::env::var_os("RUN_TRACE").is_some_and(|v| !v.is_empty())
            || std::env::var("OBSV").map(|v| v != "0" && !v.is_empty()) == Ok(true);
        if from_env {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry on or off programmatically (test harnesses: the
/// scanner's identity suites, the root package's work-count gate).
/// Overrides whatever the environment said.
pub fn set_enabled(on: bool) {
    ENV_INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two histogram over `u64` samples (unit chosen by the call
/// site; the scan path records microseconds).
///
/// Bucket boundaries are integer arithmetic only — `bucket_of` is
/// `floor(log2(v)) + 1` computed from `leading_zeros` — so they cannot
/// drift across platforms or float environments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in: 0 for 0, otherwise
    /// `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i` (`2^i - 1`; the last
    /// bucket's bound is `u64::MAX`).
    pub fn upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Merges another histogram into this one. Saturating addition on
    /// unsigned integers is commutative *and* associative, so merge
    /// order cannot matter even at the overflow boundary.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) from the log2 buckets:
    /// find the bucket holding the `ceil(q·count)`-th sample, then
    /// interpolate linearly within its `[2^(i-1), 2^i)` range by sample
    /// rank. The rank is an integer and the interpolation is pure
    /// integer arithmetic (`u128` intermediate), so the estimate is the
    /// same on every platform; the only float is the initial
    /// `q·count` product, whose IEEE result is fully determined.
    ///
    /// Accuracy is bounded by the bucket width: the estimate lies in
    /// the correct power-of-two bucket, i.e. within 2× of the true
    /// quantile — plenty for a "did p99 blow up" exposition line.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64) * q).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 {
                    0
                } else {
                    Self::upper_bound(i - 1).saturating_add(1)
                };
                let hi = Self::upper_bound(i);
                let within = rank - seen; // 1..=c
                let offset = ((hi - lo) as u128 * within as u128 / c as u128) as u64;
                return lo.saturating_add(offset);
            }
            seen += c;
        }
        Self::upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

// ---------------------------------------------------------------------
// Span aggregates
// ---------------------------------------------------------------------

/// Per-name span aggregate: how many times a stage ran and how much
/// real and simulated time it consumed in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Total real elapsed nanoseconds.
    pub real_ns: u64,
    /// Total simulated elapsed seconds (the retry/backoff clock).
    pub sim_secs: u64,
}

impl SpanAgg {
    fn merge(&mut self, other: &SpanAgg) {
        self.count = self.count.saturating_add(other.count);
        self.real_ns = self.real_ns.saturating_add(other.real_ns);
        self.sim_secs = self.sim_secs.saturating_add(other.sim_secs);
    }
}

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

/// One thread's telemetry: counters, histograms and span aggregates.
///
/// Keys are `&'static str` — every instrumentation point names itself
/// with a literal, so merging collectors from different crates needs no
/// allocation and no interning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Collector {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Power-of-two histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Per-name span aggregates.
    pub spans: BTreeMap<&'static str, SpanAgg>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Merges `other` into `self`. Counters, histogram buckets and span
    /// aggregates are all commutative sums, so merging a set of
    /// collectors yields the same aggregate in any order — the property
    /// the merge proptests pin down.
    pub fn merge(&mut self, other: &Collector) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name).or_default();
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        for (name, s) in &other.spans {
            self.spans.entry(name).or_default().merge(s);
        }
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A span aggregate (zeroed when the stage never ran).
    pub fn span(&self, name: &str) -> SpanAgg {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

thread_local! {
    static TLS: RefCell<Collector> = RefCell::new(Collector::new());
}

/// Adds `n` to the named counter in this thread's collector. Prefer the
/// [`counter!`] macro, which short-circuits when telemetry is off.
pub fn add_counter(name: &'static str, n: u64) {
    TLS.with(|c| {
        let mut c = c.borrow_mut();
        let slot = c.counters.entry(name).or_default();
        *slot = slot.saturating_add(n);
    });
}

/// Records one histogram sample in this thread's collector. Prefer the
/// [`histogram!`] macro.
pub fn record_histogram(name: &'static str, value: u64) {
    TLS.with(|c| {
        c.borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .record(value)
    });
}

fn record_span_agg(name: &'static str, real_ns: u64, sim_secs: u64) {
    TLS.with(|c| {
        let agg = &mut *c.borrow_mut();
        let s = agg.spans.entry(name).or_default();
        s.count += 1;
        s.real_ns = s.real_ns.saturating_add(real_ns);
        s.sim_secs = s.sim_secs.saturating_add(sim_secs);
    });
}

/// Takes this thread's collector, leaving an empty one — the pool-worker
/// half of the shard-order merge. Returns `None` when telemetry is off
/// (so the disabled path allocates nothing).
pub fn harvest() -> Option<Collector> {
    if !enabled() {
        return None;
    }
    let c = TLS.with(|c| std::mem::take(&mut *c.borrow_mut()));
    if c.is_empty() {
        None
    } else {
        Some(c)
    }
}

/// Merges a harvested collector into this thread's collector — the
/// caller half of the shard-order merge.
pub fn absorb(other: &Collector) {
    TLS.with(|c| c.borrow_mut().merge(other));
}

/// A clone of this thread's collector (exporters read this).
pub fn snapshot() -> Collector {
    TLS.with(|c| c.borrow().clone())
}

/// Clears this thread's collector.
pub fn reset() {
    TLS.with(|c| *c.borrow_mut() = Collector::new());
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// A live span over one pipeline stage. Created by [`span!`] (or
/// [`SpanTimer::start`]); records itself into the thread-local collector
/// — and the JSONL trace, when active — on drop.
///
/// When telemetry is off the timer holds no clock and drop does
/// nothing, so an early return through an instrumented stage costs one
/// branch.
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    started: Option<Instant>,
    sim_secs: u64,
}

impl SpanTimer {
    /// Starts a span (no-op when telemetry is off).
    pub fn start(name: &'static str) -> SpanTimer {
        SpanTimer {
            name,
            started: enabled().then(Instant::now),
            sim_secs: 0,
        }
    }

    /// Sets the span's simulated-clock duration in seconds (negative
    /// inputs clamp to 0 so a caller can pass raw clock differences).
    pub fn set_sim_secs(&mut self, secs: i64) {
        self.sim_secs = secs.max(0) as u64;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let real_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        record_span_agg(self.name, real_ns, self.sim_secs);
        trace::write_span(self.name, real_ns, self.sim_secs);
    }
}

/// Emits a named event: a counter increment plus a JSONL trace line when
/// the trace is active. Prefer the [`event!`] macro.
pub fn emit_event(name: &'static str) {
    add_counter(name, 1);
    trace::write_event(name);
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Increments a counter: `obsv::counter!("scan_retries_total")` or
/// `obsv::counter!("scan_retries_total", n)`. Free when telemetry is
/// off.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::add_counter($name, $n);
        }
    };
}

/// Records a histogram sample: `obsv::histogram!("probe_us", micros)`.
/// Free when telemetry is off.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::record_histogram($name, $value);
        }
    };
}

/// Opens a span over the enclosing scope:
/// `let _span = obsv::span!("scan.policy");` — optionally keep the
/// binding mutable to attach the simulated duration via
/// [`SpanTimer::set_sim_secs`]. Free when telemetry is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanTimer::start($name)
    };
}

/// Emits an event (counter + trace line):
/// `obsv::event!("supervisor.checkpoint_write");`. Free when telemetry
/// is off.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::emit_event($name);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every bucket's values fall within (prev_bound, bound].
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = Histogram::upper_bound(i - 1);
            let hi = Histogram::upper_bound(i);
            assert!(lo < hi, "bucket {i}");
            assert_eq!(Histogram::bucket_of(lo + 1), i, "low edge of {i}");
            assert_eq!(Histogram::bucket_of(hi), i, "high edge of {i}");
        }
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Log2 buckets bound accuracy to 2x: the estimate must land in
        // the same power-of-two bucket as the true quantile.
        for (q, truth) in [(0.50, 50u64), (0.95, 95), (0.99, 99)] {
            let est = h.quantile(q);
            assert_eq!(
                Histogram::bucket_of(est),
                Histogram::bucket_of(truth),
                "q={q} est={est} truth={truth}"
            );
        }
        // Degenerate single-value histogram: exact.
        let mut one = Histogram::default();
        one.record(0);
        assert_eq!(one.quantile(0.99), 0);
        let mut big = Histogram::default();
        big.record(u64::MAX);
        assert_eq!(Histogram::bucket_of(big.quantile(0.5)), 64);
    }

    #[test]
    fn collector_merge_sums() {
        let mut a = Collector::new();
        *a.counters.entry("x").or_default() += 3;
        a.histograms.entry("h").or_default().record(10);
        let mut b = Collector::new();
        *b.counters.entry("x").or_default() += 4;
        *b.counters.entry("y").or_default() += 1;
        b.histograms.entry("h").or_default().record(1000);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("y"), 1);
        let h = &a.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
    }

    #[test]
    fn thread_local_collection_round_trips() {
        // Run in a dedicated thread so a fresh TLS collector is
        // guaranteed regardless of what other tests in this process do.
        std::thread::spawn(|| {
            set_enabled(true);
            counter!("tls_test_total", 2);
            histogram!("tls_test_us", 500);
            {
                let mut s = span!("tls_test.stage");
                s.set_sim_secs(7);
            }
            let snap = snapshot();
            assert_eq!(snap.counter("tls_test_total"), 2);
            assert_eq!(snap.histograms["tls_test_us"].count, 1);
            let agg = snap.span("tls_test.stage");
            assert_eq!(agg.count, 1);
            assert_eq!(agg.sim_secs, 7);
            // harvest empties the collector...
            let harvested = harvest().expect("non-empty collector");
            assert!(snapshot().is_empty());
            // ...and absorb restores it.
            absorb(&harvested);
            assert_eq!(snapshot().counter("tls_test_total"), 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        std::thread::spawn(|| {
            set_enabled(false);
            counter!("off_total");
            histogram!("off_us", 1);
            let _s = span!("off.stage");
            drop(_s);
            assert!(snapshot().is_empty());
            assert!(harvest().is_none());
        })
        .join()
        .unwrap();
    }
}
