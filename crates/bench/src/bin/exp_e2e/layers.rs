//! The round clock ([`Stopwatch`]) and per-layer attribution for the
//! traced run.
//!
//! The layer times come from two sources, neither of which adds anything
//! inside the program:
//!
//! - spans from the `RUN_TRACE` JSONL: the program's own scan-path spans
//!   plus the bench's spans around each public call. A span's self time
//!   is its interval minus the part its children on the same thread
//!   cover ([`SpanTable`]);
//! - timing decorators around the delivery transport and the resolver's
//!   policy source ([`TimedTransport`], [`TimedSource`]): each call is
//!   delegated unchanged and its duration added to that layer's clock.

use crate::reference::{at_reference, Reference};
use netbase::{DomainName, SimInstant};
use sender::resolver::PolicySource;
use sender::{AttemptDisposition, MxTransport, QueuedMessage, TlsRequirement};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The bench's span around one timed round; its self time is `other`.
pub const ROUND_SPAN: &str = "bench.round";

/// The bench's span around untimed work inside a round: checks, and the
/// reference readings at the seams between laps.
pub const CHECK_SPAN: &str = "bench.check";

/// One lap of a round: its time as measured, minus the checks taken off
/// the clock, and the reference readings right before and after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    /// Seconds as measured.
    pub secs: f64,
    /// Reference reading before the lap, in seconds.
    pub before: f64,
    /// Reference reading after the lap, in seconds.
    pub after: f64,
}

impl Lap {
    /// The lap's time at reference speed.
    pub fn at_reference(&self) -> f64 {
        at_reference(self.secs, self.before, self.after)
    }
}

/// The clock of one round. It takes checks off the clock and splits the
/// round into laps at the seams between public calls, reading the host
/// reference at each seam, so a lap's time is restated at reference
/// speed by the readings taken moments before and after it.
#[derive(Default)]
pub struct Stopwatch {
    reference: RefCell<Reference>,
    paused: Cell<Duration>,
    /// Start of the running lap and the reading taken just before it.
    running: Cell<Option<(Instant, f64)>>,
    laps: RefCell<Vec<Lap>>,
}

impl Stopwatch {
    /// A reading of the host reference, in seconds.
    pub fn reference_secs(&self) -> f64 {
        self.reference.borrow_mut().secs()
    }

    /// Reads the reference and starts a round's first lap; returns the
    /// reading.
    pub fn start(&self) -> f64 {
        let reading = self.reference_secs();
        self.paused.take();
        self.running.set(Some((Instant::now(), reading)));
        reading
    }

    /// Ends the running lap at a seam between public calls and starts the
    /// next. The reading between them is on no lap's clock and, in a
    /// traced run, under [`CHECK_SPAN`].
    pub fn lap(&self) {
        let _s = obsv::span!(CHECK_SPAN);
        self.close_lap();
    }

    /// Ends the round's last lap and returns its laps.
    pub fn finish(&self) -> Vec<Lap> {
        self.close_lap();
        self.running.set(None);
        self.laps.take()
    }

    fn close_lap(&self) {
        let (start, before) = self.running.get().expect("a round is running");
        let secs = (start.elapsed() - self.paused.take()).as_secs_f64();
        let after = self.reference_secs();
        self.laps.borrow_mut().push(Lap {
            secs,
            before,
            after,
        });
        self.running.set(Some((Instant::now(), after)));
    }

    /// Runs `f` off the clock.
    pub fn untimed<R>(&self, f: impl FnOnce() -> R) -> R {
        let _s = obsv::span!(CHECK_SPAN);
        let t = Instant::now();
        let r = f();
        self.paused.set(self.paused.get() + t.elapsed());
        r
    }
}

/// Busy time and call count of one layer. Relaxed atomics: the totals
/// publish no other data.
#[derive(Debug, Default)]
pub struct Clock {
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    /// Adds one call of duration `took`.
    pub fn add(&self, took: Duration) {
        let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `f`, adding its duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    /// Total busy time in ms.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean busy time per call in µs.
    pub fn mean_us(&self) -> f64 {
        self.busy_ms() * 1e3 / self.calls().max(1) as f64
    }
}

/// One clock per [`MxTransport`] method.
#[derive(Debug, Default)]
pub struct TransportClocks {
    /// `route`.
    pub route: Clock,
    /// `attempt`.
    pub attempt: Clock,
    /// `sts_record`.
    pub sts_record: Clock,
    /// `fetch_sts_policy`.
    pub fetch_sts_policy: Clock,
    /// `tlsa_records`.
    pub tlsa_records: Clock,
    /// `attack_touched` (the simulation's interception grading).
    pub attack_touched: Clock,
}

impl TransportClocks {
    /// The clocks by method name.
    pub fn named(&self) -> [(&'static str, &Clock); 6] {
        [
            ("route", &self.route),
            ("attempt", &self.attempt),
            ("sts_record", &self.sts_record),
            ("fetch_sts_policy", &self.fetch_sts_policy),
            ("tlsa_records", &self.tlsa_records),
            ("attack_touched", &self.attack_touched),
        ]
    }
}

/// An [`MxTransport`] that delegates every method and times it.
pub struct TimedTransport<'a, T> {
    inner: T,
    clocks: &'a TransportClocks,
}

impl<'a, T> TimedTransport<'a, T> {
    /// Wraps `inner`, timing into `clocks`.
    pub fn new(inner: T, clocks: &'a TransportClocks) -> Self {
        TimedTransport { inner, clocks }
    }
}

impl<T: MxTransport> MxTransport for TimedTransport<'_, T> {
    fn route(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<(u16, DomainName)>, String> {
        self.clocks.route.time(|| self.inner.route(domain, now))
    }

    fn attempt(
        &self,
        mx_host: &DomainName,
        message: &QueuedMessage,
        now: SimInstant,
        tls: &TlsRequirement,
    ) -> AttemptDisposition {
        self.clocks
            .attempt
            .time(|| self.inner.attempt(mx_host, message, now, tls))
    }

    fn sts_record(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        self.clocks
            .sts_record
            .time(|| self.inner.sts_record(domain, now))
    }

    fn fetch_sts_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String> {
        self.clocks
            .fetch_sts_policy
            .time(|| self.inner.fetch_sts_policy(domain, now))
    }

    fn tlsa_records(&self, mx_host: &DomainName, now: SimInstant) -> Option<Vec<dns::TlsaRecord>> {
        self.clocks
            .tlsa_records
            .time(|| self.inner.tlsa_records(mx_host, now))
    }

    fn attack_touched(&self, name: &DomainName, now: SimInstant) -> bool {
        self.clocks
            .attack_touched
            .time(|| self.inner.attack_touched(name, now))
    }
}

/// A [`PolicySource`] that delegates both lookups and times them.
pub struct TimedSource<'a, S> {
    inner: &'a S,
    clock: &'a Clock,
}

impl<'a, S> TimedSource<'a, S> {
    /// Wraps `inner`, timing into `clock`.
    pub fn new(inner: &'a S, clock: &'a Clock) -> Self {
        TimedSource { inner, clock }
    }
}

impl<S: PolicySource> PolicySource for TimedSource<'_, S> {
    fn record_txts(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        self.clock.time(|| self.inner.record_txts(domain, now))
    }

    fn fetch_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String> {
        self.clock.time(|| self.inner.fetch_policy(domain, now))
    }
}

// ---------------------------------------------------------------------
// Self time from span intervals
// ---------------------------------------------------------------------

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Process-local thread ordinal.
    pub thread: u64,
    /// Start, ns on the trace clock.
    pub start_ns: i64,
    /// End, ns on the trace clock.
    pub end_ns: i64,
}

/// Aggregate of the spans sharing a key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans.
    pub count: u64,
    /// Summed durations.
    pub incl_ns: i64,
    /// Summed self times.
    pub self_ns: i64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.count += other.count;
        self.incl_ns += other.incl_ns;
        self.self_ns += other.self_ns;
    }

    /// Summed self time in ms.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Summed duration in ms.
    pub fn incl_ms(&self) -> f64 {
        self.incl_ns as f64 / 1e6
    }

    /// Mean duration per span in µs.
    pub fn mean_us(&self) -> f64 {
        self.incl_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

/// How far the trace's clocks can misplace a span edge: `ts_us` is
/// truncated to whole µs and stamped just after the duration is read.
const EDGE_TOLERANCE_NS: i64 = 2_000;

/// Whether `outer` covers `inner`, within [`EDGE_TOLERANCE_NS`].
fn covers(outer: &Span, inner: &Span) -> bool {
    outer.start_ns <= inner.start_ns + EDGE_TOLERANCE_NS
        && inner.end_ns <= outer.end_ns + EDGE_TOLERANCE_NS
        && outer.end_ns - outer.start_ns >= inner.end_ns - inner.start_ns
}

/// Span aggregates keyed by `(name, parent name)`, with self times.
#[derive(Debug, Default)]
pub struct SpanTable {
    by_key: BTreeMap<(String, String), Agg>,
}

/// A raw field value of one of `obsv::trace`'s own JSONL lines.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Parses the span lines of a `RUN_TRACE` JSONL capture. Spans are
/// stamped at their end, so the start is `ts_us` minus the duration.
pub fn parse_spans(jsonl: &str) -> Vec<Span> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"kind\":\"span\""))
        .filter_map(|l| {
            let dur: i64 = field(l, "real_ns")?.parse().ok()?;
            let end_ns = field(l, "ts_us")?.parse::<i64>().ok()? * 1_000;
            Some(Span {
                name: field(l, "name")?.to_string(),
                thread: field(l, "thread")?.parse().ok()?,
                start_ns: end_ns - dur,
                end_ns,
            })
        })
        .collect()
}

impl SpanTable {
    /// Nests `spans` per thread and computes each one's self time: its
    /// duration minus the part of it its direct children cover. Spans on
    /// one thread never overlap except by nesting, so a span ending
    /// within the innermost open span is its child. Rounding can flip the
    /// order of two spans starting within a µs; the later one then adopts
    /// the earlier one it covers. Each child is clipped to its parent and
    /// to the end of its previous sibling, so the self times of a tree
    /// add up to exactly its root's duration.
    pub fn build(spans: &[Span]) -> SpanTable {
        let mut by_thread: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            by_thread.entry(s.thread).or_default().push(s);
        }
        let mut table = SpanTable::default();
        for mut list in by_thread.into_values() {
            list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
            let mut parent: Vec<Option<usize>> = vec![None; list.len()];
            let mut open: Vec<usize> = Vec::new();
            for i in 0..list.len() {
                let mut adopted = Vec::new();
                while let Some(&top) = open.last() {
                    if covers(list[top], list[i]) {
                        break;
                    }
                    open.pop();
                    if covers(list[i], list[top]) {
                        adopted.push(top);
                    }
                }
                parent[i] = open.last().copied();
                for child in adopted {
                    parent[child] = Some(i);
                }
                open.push(i);
            }
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); list.len()];
            for (child, p) in parent.iter().enumerate() {
                if let Some(p) = *p {
                    children[p].push(child);
                }
            }
            // Top-down: clip each child into its parent's clipped interval.
            let mut clipped: Vec<(i64, i64)> =
                list.iter().map(|s| (s.start_ns, s.end_ns)).collect();
            let mut covered = vec![0i64; list.len()];
            let mut todo: Vec<usize> = (0..list.len()).filter(|&i| parent[i].is_none()).collect();
            while let Some(p) = todo.pop() {
                let (start, end) = clipped[p];
                children[p].sort_by_key(|&c| list[c].start_ns);
                let mut cursor = start;
                for &c in &children[p] {
                    let s = list[c].start_ns.clamp(cursor, end);
                    let e = list[c].end_ns.clamp(s, end);
                    clipped[c] = (s, e);
                    covered[p] += e - s;
                    cursor = e;
                    todo.push(c);
                }
            }
            for (i, s) in list.iter().enumerate() {
                let (start, end) = clipped[i];
                let parent_name = parent[i].map_or(String::new(), |p| list[p].name.clone());
                table
                    .by_key
                    .entry((s.name.clone(), parent_name))
                    .or_default()
                    .add(&Agg {
                        count: 1,
                        incl_ns: s.end_ns - s.start_ns,
                        self_ns: end - start - covered[i],
                    });
            }
        }
        table
    }

    /// All spans named `name`.
    pub fn get(&self, name: &str) -> Agg {
        let mut agg = Agg::default();
        for ((n, _), a) in &self.by_key {
            if n == name {
                agg.add(a);
            }
        }
        agg
    }

    /// Spans named `name` whose parent is named `parent`.
    pub fn under(&self, name: &str, parent: &str) -> Agg {
        self.by_key
            .get(&(name.to_string(), parent.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// Self time per span name, in ms, for every span but the round's own
    /// (whose self time is `other`) and the untimed checks.
    pub fn exclusive_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for ((name, _), a) in &self.by_key {
            if name != ROUND_SPAN && name != CHECK_SPAN {
                *out.entry(name.clone()).or_default() += a.self_ms();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: u64, start_us: i64, end_us: i64) -> Span {
        Span {
            name: name.into(),
            thread,
            start_ns: start_us * 1_000,
            end_ns: end_us * 1_000,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100] ⊃ a [10,60] ⊃ b [20,30], c [40,50]; d [70,90];
        // another thread's span overlaps but is not a child.
        let spans = [
            span("bench.round", 0, 0, 100),
            span("a", 0, 10, 60),
            span("b", 0, 20, 30),
            span("c", 0, 40, 50),
            span("d", 0, 70, 90),
            span("w", 1, 5, 95),
        ];
        let t = SpanTable::build(&spans);
        assert_eq!(t.get("bench.round").self_ns, 30_000);
        assert_eq!(t.get("a").self_ns, 30_000);
        assert_eq!(t.get("b").self_ns, 10_000);
        assert_eq!(t.under("b", "a").count, 1);
        assert_eq!(t.under("d", "bench.round").count, 1);
        assert_eq!(t.get("w").self_ns, 90_000);
        assert_eq!(t.under("w", "").count, 1);
        // Exclusive times plus the round's self time partition the round
        // (the other thread's span aside).
        let excl: f64 = t
            .exclusive_ms_by_name()
            .iter()
            .filter(|(n, _)| *n != "w")
            .map(|(_, v)| v)
            .sum();
        assert!((excl + t.get("bench.round").self_ms() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn rounding_flips_are_adopted_and_children_clipped() {
        // The child's computed start lies 1 µs before its parent's (µs
        // truncation of the end stamp), and a tail child overhangs the
        // parent's end by 1 µs: both stay children, clipped.
        let spans = [
            span("bench.round", 0, 0, 1_000),
            span("child", 0, 99, 298),
            span("parent", 0, 100, 500),
            span("tail", 0, 400, 501),
            span("next", 0, 501, 900),
        ];
        let t = SpanTable::build(&spans);
        assert_eq!(t.under("child", "parent").count, 1);
        assert_eq!(t.under("tail", "parent").count, 1);
        assert_eq!(t.under("parent", "bench.round").count, 1);
        assert_eq!(t.under("next", "bench.round").count, 1);
        // 400 µs minus [100,298) and [400,500) of the children.
        assert_eq!(t.get("parent").self_ns, 102_000);
        assert_eq!(t.get("bench.round").self_ns, 201_000);
        // Overhangs are clipped away: the self times partition the round.
        let total: i64 = ["bench.round", "child", "parent", "tail", "next"]
            .iter()
            .map(|n| t.get(n).self_ns)
            .sum();
        assert_eq!(total, 1_000_000);
    }

    #[test]
    fn parses_obsv_jsonl() {
        let jsonl = "\
{\"kind\":\"span\",\"name\":\"scan.policy\",\"real_ns\":2500,\"sim_secs\":5,\"thread\":3,\"ts_us\":10}\n\
{\"kind\":\"event\",\"name\":\"supervisor.checkpoint_write\",\"thread\":0,\"ts_us\":150}\n\
not json\n";
        assert_eq!(
            parse_spans(jsonl),
            vec![Span {
                name: "scan.policy".into(),
                thread: 3,
                start_ns: 7_500,
                end_ns: 10_000,
            }]
        );
    }
}
