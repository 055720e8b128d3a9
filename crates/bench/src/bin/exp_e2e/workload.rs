//! The four workload bodies. Each has a set-up (timed separately, so work
//! moved into set-up shows as `setup_s`), one round of timed work that
//! goes only through stable public entry points, and checks on the
//! round's outputs that run after the clock stops.
//!
//! Thread counts are never passed in: the study drivers, the delivery
//! queue and the resolver all read `SCAN_THREADS`, which the parent sets
//! on the child process.

use crate::layers::{Clock, SpanTable, Stopwatch, TimedSource, TimedTransport, TransportClocks};
use ecosystem::{Ecosystem, EcosystemConfig};
use mtasts::Mode;
use netbase::{DomainName, Duration, SimInstant};
use obsv::health::fnv64;
use scanner::analysis::*;
use scanner::classify::EntityClass;
use scanner::longitudinal::{LongitudinalRun, MxHistory, Study, WeeklyPoint};
use sender::resolver::{Disposition, PolicyResolver, PolicySource, Resolution, ResolverConfig};
use sender::scenario::{build, Degradation, Scenario, ScenarioSpec};
use sender::{
    BounceReason, DeliveryQueue, EnforcementConfig, FastTransport, MessageRecord, MessageStatus,
    QueueConfig, QueueOutcome, QueueStats,
};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["census", "weekly_1x", "delivery", "resolver"];

/// Input sizes. [`FULL`] is the benchmark; [`TINY`] drives every body
/// through the same code path in the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Ecosystem scale of `census`.
    pub census_scale: f64,
    /// Ecosystem scale of `weekly_1x`.
    pub weekly_scale: f64,
    /// Recipient domains per delivery scenario.
    pub delivery_domains: usize,
    /// Messages per recipient domain.
    pub delivery_messages_per_domain: usize,
    /// Distinct resolver domains.
    pub resolver_domains: usize,
    /// Requests per `resolve_batch` call.
    pub resolver_batch: usize,
}

/// The benchmark's sizes: one round takes a few seconds, so a run's
/// median rests on several rounds.
pub const FULL: Size = Size {
    census_scale: 0.1,
    weekly_scale: 1.0,
    delivery_domains: 256,
    delivery_messages_per_domain: 128,
    resolver_domains: 256_000,
    resolver_batch: 256,
};

/// Unit-test sizes.
#[cfg(test)]
pub const TINY: Size = Size {
    census_scale: 0.01,
    weekly_scale: 0.01,
    delivery_domains: 6,
    delivery_messages_per_domain: 6,
    resolver_domains: 3_000,
    resolver_batch: 100,
};

/// What the checks found in one round's outputs.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Digest of the round's outputs; repeats and thread counts must agree.
    pub digest: u64,
    /// Units of work the round did (the `norm_ops_per_s` numerator).
    pub ops: u64,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Whether the digest equals the one pinned for this input, where one is.
    pub pinned: Option<bool>,
    /// Phase throughputs and batch latencies.
    pub extra: BTreeMap<String, f64>,
}

impl Verdict {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Per-layer numbers of one traced round.
#[derive(Debug, Default)]
pub struct Layers {
    /// Exclusive time per layer, in ms. With `other`, these sum to the
    /// traced wall time.
    pub exclusive_ms: BTreeMap<String, f64>,
    /// The declared per-layer metrics this workload moves.
    pub metrics: BTreeMap<String, f64>,
}

/// One workload: set-up, a timed round, and checks on its outputs.
pub trait Body {
    /// What set-up builds.
    type Input;
    /// What one round produces.
    type Output;
    /// Builds the round's inputs from the seed.
    fn setup(&self) -> Self::Input;
    /// One round of timed work; `sw` takes checks that must run before
    /// the round ends off the clock.
    fn round(&self, input: &Self::Input, sw: &Stopwatch) -> Self::Output;
    /// Checks the outputs (untimed).
    fn check(&self, input: &Self::Input, output: Self::Output) -> Verdict;
    /// The per-layer numbers of the one traced round.
    fn layers(&self, spans: &SpanTable, setup_ms: f64) -> Layers;
}

/// FNV-1a 64 of `bytes`, continuing from `h`: [`fnv64`] over text that
/// arrives in pieces.
fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Counter values of a collector, for deltas around a call.
fn counters(keys: &[&'static str]) -> Vec<u64> {
    let snap = obsv::snapshot();
    keys.iter().map(|k| snap.counter(k)).collect()
}

const CACHE_COUNTERS: [&str; 4] = [
    "cache_full_hits_total",
    "cache_partial_hits_total",
    "cache_misses_total",
    "cache_stand_downs_total",
];

/// Full-hit share of the cache decisions counted between two readings of
/// [`CACHE_COUNTERS`].
fn hit_ratio(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    delta[0] as f64 / delta.iter().sum::<u64>().max(1) as f64
}

/// Layers and metrics of the study drivers, read from the program's own
/// spans (`snapshot.*`, `ecosystem.advance`, `scan.*`) and the bench's
/// spans around each public call.
fn study_layers(spans: &SpanTable, probe: &BTreeMap<&'static str, f64>, setup_ms: f64) -> Layers {
    let mut m = BTreeMap::new();
    m.insert("ecosystem.generate.ms".into(), setup_ms);
    for (kind, parent) in [("dns", "snapshot.weekly"), ("full", "snapshot.full")] {
        let adv = spans.under("ecosystem.advance", parent);
        m.insert(format!("ecosystem.advance.{kind}.self_ms"), adv.self_ms());
        m.insert(format!("ecosystem.advance.{kind}.calls"), adv.count as f64);
    }
    let weekly = spans.get("snapshot.weekly");
    m.insert("snapshot.weekly.self_ms".into(), weekly.self_ms());
    m.insert("snapshot.weekly.mean_us".into(), weekly.mean_us());
    m.insert(
        "snapshot.full.self_ms".into(),
        spans.get("snapshot.full").self_ms(),
    );
    for (metric, span) in [
        ("scanner.run_weekly.ms", "scanner.run_weekly"),
        ("scanner.run_full.ms", "scanner.run_full"),
        ("scanner.analysis.ms", "scanner.analysis"),
        ("scanner.analysis.fig5.ms", "scanner.analysis.fig5"),
        ("scanner.analysis.fig6.ms", "scanner.analysis.fig6"),
        ("scanner.analysis.fig10.ms", "scanner.analysis.fig10"),
        ("report.render.ms", "report.render"),
    ] {
        m.insert(metric.into(), spans.get(span).incl_ms());
    }
    for stage in ["record", "policy", "mx", "probe", "policy_ip"] {
        let agg = spans.get(&format!("scan.{stage}"));
        m.insert(format!("scan.{stage}.self_ms"), agg.self_ms());
        m.insert(format!("scan.{stage}.calls"), agg.count as f64);
        m.insert(format!("scan.{stage}.mean_us"), agg.mean_us());
    }
    for (k, v) in probe {
        m.insert((*k).into(), *v);
    }
    Layers {
        exclusive_ms: spans.exclusive_ms_by_name(),
        metrics: m,
    }
}

/// Study-driver counters read around each traced call.
const STUDY_COUNTERS: [(&str, &str); 4] = [
    ("ecosystem.installs", "ecosystem_installs_total"),
    ("ecosystem.reinstalls", "ecosystem_reinstalls_total"),
    ("scan.retries", "scan_retries_total"),
    ("scan.failed_attempts", "scan_failed_attempts_total"),
];

fn study_counters() -> Vec<u64> {
    counters(&STUDY_COUNTERS.map(|(_, c)| c))
}

fn record_study_counters(probe: &mut BTreeMap<&'static str, f64>, before: &[u64]) {
    for ((name, _), (now, then)) in STUDY_COUNTERS
        .iter()
        .zip(study_counters().iter().zip(before))
    {
        *probe.entry(name).or_default() += (now - then) as f64;
    }
}

// ---------------------------------------------------------------------
// census
// ---------------------------------------------------------------------

/// The repo's main job: the weekly series, the monthly full scans, every table and figure (survey
/// included), the notification campaign, rendered through `report`.
pub struct Census {
    /// Ecosystem seed.
    pub seed: u64,
    /// Ecosystem scale.
    pub scale: f64,
    probe: RefCell<BTreeMap<&'static str, f64>>,
}

impl Census {
    /// A census body.
    pub fn new(seed: u64, size: &Size) -> Census {
        Census {
            seed,
            scale: size.census_scale,
            probe: RefCell::default(),
        }
    }
}

/// Set-up output of `census`.
pub struct CensusInput {
    study: Study,
    respondents: Vec<survey::Respondent>,
}

/// One census round's outputs.
pub struct CensusOutput {
    run: LongitudinalRun,
    report: String,
    campaign_notified: u64,
    campaign_split: u64,
    latest_misconfigured: u64,
}

/// Every table and figure the `exp_table*`/`exp_fig*` binaries print.
#[derive(Serialize)]
struct Figures {
    table1: Vec<Table1Row>,
    fig2: Vec<(netbase::SimDate, BTreeMap<ecosystem::TldId, f64>)>,
    fig3: Vec<(u64, f64)>,
    fig4: Vec<Fig4Point>,
    fig5: [Vec<Fig5Point>; 2],
    fig6: [Vec<Fig6Point>; 2],
    fig7: Vec<Fig7Point>,
    fig8: Vec<Fig8Point>,
    fig9: Vec<(netbase::SimDate, f64)>,
    fig10: Vec<Fig10Point>,
    fig11: survey::SurveyStats,
    fig12_mtasts: Vec<(netbase::SimDate, f64)>,
    fig12_tld: Vec<(netbase::SimDate, BTreeMap<ecosystem::TldId, f64>)>,
    table2: Vec<Table2Row>,
    campaign: scanner::notify::CampaignOutcome,
}

const CLASSES: [EntityClass; 2] = [EntityClass::SelfManaged, EntityClass::ThirdParty];

impl Figures {
    fn compute(input: &CensusInput, run: &LongitudinalRun, seed: u64) -> Figures {
        let eco = &input.study.eco;
        let scale = eco.config.scale;
        let fig5 = {
            let _s = obsv::span!("scanner.analysis.fig5");
            CLASSES.map(|c| fig5_series(run, c))
        };
        let fig6 = {
            let _s = obsv::span!("scanner.analysis.fig6");
            CLASSES.map(|c| fig6_series(run, c))
        };
        let fig10 = {
            let _s = obsv::span!("scanner.analysis.fig10");
            fig10_series(run)
        };
        Figures {
            table1: table1(run, scale),
            fig2: fig2_series(run, scale),
            fig3: fig3_bins(eco, eco.config.end),
            fig4: fig4_series(run),
            fig5,
            fig6,
            fig7: fig7_series(run),
            fig8: fig8_series(run),
            fig9: fig9_series(run),
            fig10,
            fig11: survey::compute(&input.respondents),
            fig12_mtasts: fig12_mtasts_series(run),
            fig12_tld: fig12_tld_series(run),
            table2: table2_rows(run.latest(), 8),
            campaign: scanner::notify::run_campaign(run.latest(), seed),
        }
    }

    /// The printed report: the tables and charts the experiment binaries
    /// show, then every series as JSON.
    fn render(&self) -> String {
        let mut t1 = report::Table::new(&["TLD", "MX domains (scaled)", "with MTA-STS", "percent"])
            .with_title("Table 1");
        for r in &self.table1 {
            t1.row(vec![
                r.tld.to_string(),
                r.mx_domains.to_string(),
                r.mtasts_domains.to_string(),
                format!("{:.3}%", r.percent),
            ]);
        }
        let mut t2 = report::Table::new(&["provider", "domains", "example"]).with_title("Table 2");
        for r in &self.table2 {
            t2.row(vec![
                r.provider.to_string(),
                r.domains.to_string(),
                r.example_target.to_string(),
            ]);
        }
        let mut f11 =
            report::Table::new(&["accounts", "respondents", "deployed"]).with_title("Figure 11");
        for (bucket, total, deployed) in &self.fig11.accounts_histogram {
            f11.row(vec![
                bucket.label().to_string(),
                total.to_string(),
                deployed.to_string(),
            ]);
        }
        let mut f2 = report::AsciiChart::new("Figure 2", 10);
        for &tld in &ecosystem::tld::ALL_TLDS {
            f2.series(
                &tld.to_string(),
                self.fig2.iter().map(|(_, m)| m[&tld]).collect(),
            );
        }
        let mut f3 = report::AsciiChart::new("Figure 3", 10);
        f3.series("adoption %", self.fig3.iter().map(|(_, p)| *p).collect());
        let mut f12 = report::AsciiChart::new("Figure 12", 10);
        f12.series(
            "TLSRPT %",
            self.fig12_mtasts.iter().map(|(_, p)| *p).collect(),
        );
        [
            t1.render(),
            t2.render(),
            f11.render(),
            f2.render(),
            f3.render(),
            f12.render(),
            report::to_json(self),
        ]
        .join("\n")
    }
}

impl Body for Census {
    type Input = CensusInput;
    type Output = CensusOutput;

    fn setup(&self) -> CensusInput {
        CensusInput {
            study: Study::new(Ecosystem::generate(EcosystemConfig::paper(
                self.seed, self.scale,
            ))),
            respondents: survey::synthesize(self.seed),
        }
    }

    fn round(&self, input: &CensusInput, sw: &Stopwatch) -> CensusOutput {
        let traced = obsv::enabled();
        let mut probe = self.probe.borrow_mut();
        let before = traced.then(|| (counters(&CACHE_COUNTERS), study_counters()));
        let (weekly, mx_history) = {
            let _s = obsv::span!("scanner.run_weekly");
            input.study.run_weekly()
        };
        sw.lap();
        let mid = traced.then(|| counters(&CACHE_COUNTERS));
        let full = {
            let _s = obsv::span!("scanner.run_full");
            input.study.run_full()
        };
        sw.lap();
        if let (Some((cache0, study0)), Some(cache1)) = (&before, &mid) {
            probe.insert("scanner.weekly.hit_ratio", hit_ratio(cache0, cache1));
            probe.insert(
                "scanner.full.hit_ratio",
                hit_ratio(cache1, &counters(&CACHE_COUNTERS)),
            );
            record_study_counters(&mut probe, study0);
        }
        let run = LongitudinalRun {
            weekly,
            full,
            mx_history,
        };
        let figures = {
            let _s = obsv::span!("scanner.analysis");
            Figures::compute(input, &run, self.seed)
        };
        sw.lap();
        let report = {
            let _s = obsv::span!("report.render");
            figures.render()
        };
        CensusOutput {
            report,
            campaign_notified: figures.campaign.notified,
            campaign_split: figures.campaign.bounced + figures.campaign.delivered,
            latest_misconfigured: figures.fig4.last().map_or(0, |p| p.misconfigured),
            run,
        }
    }

    fn check(&self, input: &CensusInput, out: CensusOutput) -> Verdict {
        let eco = &input.study.eco;
        let mut v = Verdict {
            digest: fnv64(out.report.as_bytes()),
            ..Verdict::default()
        };
        check_weekly(&mut v, eco, &out.run.weekly);
        let dates = eco.config.full_scan_dates();
        v.check(out.run.full.len() == dates.len());
        // Ground truth: each monthly scan covers exactly the domains the
        // generator had deployed by that date.
        for snap in &out.run.full {
            v.check(snap.len() == eco.domains_at(snap.date).count());
        }
        // The campaign notifies exactly Figure 4's misconfigured domains,
        // and every notification either bounces or is delivered.
        v.check(out.campaign_notified == out.latest_misconfigured);
        v.check(out.campaign_notified == out.campaign_split);
        let scanned: usize = out.run.full.iter().map(|s| s.len()).sum();
        v.ops = (eco.population.domains.len() * out.run.weekly.len() + scanned) as u64;
        v
    }

    fn layers(&self, spans: &SpanTable, setup_ms: f64) -> Layers {
        study_layers(spans, &self.probe.borrow(), setup_ms)
    }
}

/// Weekly-series checks shared by `census` and `weekly_1x`: one point per
/// snapshot date, and the final count equals the generator's ground
/// truth — every domain deployed by then whose record carries no
/// injected fault.
fn check_weekly(v: &mut Verdict, eco: &Ecosystem, weekly: &[WeeklyPoint]) {
    v.check(weekly.len() == eco.config.weekly_snapshots().len());
    let Some(last) = weekly.last() else {
        v.check(false);
        return;
    };
    let truth = eco
        .domains_at(last.date)
        .filter(|d| d.faults.record.is_none())
        .count() as u64;
    v.check(last.total() == truth);
}

// ---------------------------------------------------------------------
// weekly_1x
// ---------------------------------------------------------------------

/// Back-to-back weekly passes over the full ever-adopter population.
pub struct Weekly {
    /// Ecosystem seed.
    pub seed: u64,
    /// Ecosystem scale.
    pub scale: f64,
    probe: RefCell<BTreeMap<&'static str, f64>>,
}

/// The scale-1.0 weekly digest at seed 42 (BENCH_ecosystem.json).
const PINNED_WEEKLY_1X: (u64, &str) = (42, "312545c9b98acad8");

impl Weekly {
    /// A weekly body.
    pub fn new(seed: u64, size: &Size) -> Weekly {
        Weekly {
            seed,
            scale: size.weekly_scale,
            probe: RefCell::default(),
        }
    }
}

/// Canonical weekly digest (sorted maps, sorted history), the same
/// function `exp_scale` pins.
fn weekly_digest(points: &[WeeklyPoint], history: &MxHistory) -> u64 {
    let mut out = String::new();
    for p in points {
        let sorted = |m: &std::collections::HashMap<ecosystem::TldId, u64>| {
            let mut v: Vec<_> = m.iter().map(|(t, c)| (format!("{t:?}"), *c)).collect();
            v.sort();
            v
        };
        out.push_str(&format!(
            "{:?} {:?} {:?}\n",
            p.date,
            sorted(&p.mtasts_per_tld),
            sorted(&p.tlsrpt_among_mtasts_per_tld)
        ));
    }
    let mut hist: Vec<String> = history.iter().map(|(d, v)| format!("{d} {v:?}")).collect();
    hist.sort();
    for line in hist {
        out.push_str(&line);
        out.push('\n');
    }
    fnv64(out.as_bytes())
}

impl Body for Weekly {
    type Input = Study;
    type Output = (Vec<WeeklyPoint>, MxHistory);

    fn setup(&self) -> Study {
        Study::new(Ecosystem::generate(EcosystemConfig::paper(
            self.seed, self.scale,
        )))
    }

    fn round(&self, study: &Study, _: &Stopwatch) -> (Vec<WeeklyPoint>, MxHistory) {
        let traced = obsv::enabled();
        let before = traced.then(|| (counters(&CACHE_COUNTERS), study_counters()));
        let out = {
            let _s = obsv::span!("scanner.run_weekly");
            study.run_weekly()
        };
        if let Some((cache0, study0)) = before {
            let mut probe = self.probe.borrow_mut();
            probe.insert(
                "scanner.weekly.hit_ratio",
                hit_ratio(&cache0, &counters(&CACHE_COUNTERS)),
            );
            record_study_counters(&mut probe, &study0);
        }
        out
    }

    fn check(&self, study: &Study, (weekly, history): Self::Output) -> Verdict {
        let digest = weekly_digest(&weekly, &history);
        let mut v = Verdict {
            digest,
            ops: (study.eco.population.domains.len() * weekly.len()) as u64,
            pinned: (self.seed == PINNED_WEEKLY_1X.0 && self.scale == FULL.weekly_scale)
                .then(|| format!("{digest:016x}") == PINNED_WEEKLY_1X.1),
            ..Verdict::default()
        };
        check_weekly(&mut v, &study.eco, &weekly);
        v
    }

    fn layers(&self, spans: &SpanTable, setup_ms: f64) -> Layers {
        study_layers(spans, &self.probe.borrow(), setup_ms)
    }
}

// ---------------------------------------------------------------------
// delivery
// ---------------------------------------------------------------------

/// Traffic groups of the delivery workload.
pub const GROUPS: [&str; 2] = ["plain", "enforce"];

/// The operator's outbound queue: two policy-blind and two enforcing
/// scenarios through `DeliveryQueue::run` over `FastTransport`.
pub struct Delivery {
    /// Scenario and queue seed.
    pub seed: u64,
    size: Size,
    clocks: [TransportClocks; 2],
    stats: RefCell<BTreeMap<String, f64>>,
}

impl Delivery {
    /// A delivery body.
    pub fn new(seed: u64, size: &Size) -> Delivery {
        Delivery {
            seed,
            size: *size,
            clocks: Default::default(),
            stats: RefCell::default(),
        }
    }

    /// The four scenarios as `(key, group index, spec)`.
    fn specs(&self) -> Vec<(&'static str, usize, ScenarioSpec)> {
        let spec = |degradation| ScenarioSpec {
            seed: self.seed,
            domains: self.size.delivery_domains,
            messages_per_domain: self.size.delivery_messages_per_domain,
            degradation,
            sts: sender::StsDeployment::None,
            epoch: SimInstant::from_unix_secs(1_717_200_000),
        };
        let strip = Degradation::StartTlsStrip {
            delay_secs: 300,
            duration_secs: 600,
        };
        // As in exp_delivery: the outage opens after every domain's first
        // message was admitted, so the TOFU cache is warm.
        let outage = Degradation::PolicyHostOutage {
            delay_secs: self.size.delivery_domains as i64
                * QueueConfig::default().admission_spacing_secs
                + 60,
            duration_secs: 3_600,
        };
        vec![
            ("baseline_nosts", 0, spec(Degradation::None)),
            (
                "starttls_strip_enforce",
                1,
                spec(strip).with_sts(Mode::Enforce),
            ),
            (
                "policy_outage_enforce",
                1,
                spec(outage).with_sts(Mode::Enforce),
            ),
            ("greylist", 0, spec(Degradation::Greylist { rate: 0.3 })),
        ]
    }

    fn queue(&self, group: usize) -> DeliveryQueue {
        DeliveryQueue::new(QueueConfig {
            seed: self.seed,
            threads: 0,
            enforcement: (group == 1).then(EnforcementConfig::default),
            ..QueueConfig::default()
        })
    }
}

/// One drained scenario, summarized as soon as its queue returns so only
/// one ledger is alive at a time.
pub struct Drained {
    group: usize,
    secs: f64,
    messages: u64,
    violations: u64,
    digest: String,
    stats: QueueStats,
}

impl Drained {
    fn of(key: &str, group: usize, secs: f64, outcome: QueueOutcome) -> Drained {
        let records = &outcome.records;
        Drained {
            group,
            secs,
            messages: records.len() as u64,
            violations: records
                .iter()
                .filter(|r| !delivery_ok(key, &r.status, r.intercepted))
                .count() as u64,
            digest: ledger_digest(records),
            stats: outcome.stats,
        }
    }
}

/// `sender::ledger_digest` computed row by row: the same FNV-1a over the
/// same JSON array text, without building the whole ledger's text (which
/// would triple the workload's peak memory).
fn ledger_digest(records: &[MessageRecord]) -> String {
    let mut h = fnv64(b"[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            h = fnv_extend(h, b",");
        }
        let row = serde_json::to_string(r).expect("ledger rows serialize");
        h = fnv_extend(h, row.as_bytes());
    }
    format!("{:016x}", fnv_extend(h, b"]"))
}

/// Whether one ledger row meets its scenario's contract.
fn delivery_ok(key: &str, status: &MessageStatus, intercepted: bool) -> bool {
    let delivered = matches!(status, MessageStatus::Delivered { .. });
    match key {
        "greylist" => {
            delivered
                || matches!(
                    status,
                    MessageStatus::Bounced {
                        reason: BounceReason::RetriesExhausted { .. }
                    }
                )
        }
        "baseline_nosts" => delivered,
        _ => delivered && !intercepted,
    }
}

const QUEUE_SPANS: [&str; 2] = ["sender.queue.plain", "sender.queue.enforce"];

impl Body for Delivery {
    type Input = Vec<(&'static str, usize, Scenario)>;
    type Output = Vec<Drained>;

    fn setup(&self) -> Self::Input {
        self.specs()
            .into_iter()
            .map(|(key, group, spec)| (key, group, build(spec)))
            .collect()
    }

    fn round(&self, scenarios: &Self::Input, sw: &Stopwatch) -> Vec<Drained> {
        let traced = obsv::enabled();
        scenarios
            .iter()
            .enumerate()
            .map(|(i, (key, group, s))| {
                if i > 0 {
                    sw.lap();
                }
                let t = Instant::now();
                let outcome = {
                    let _s = obsv::span!(QUEUE_SPANS[*group]);
                    let fast = FastTransport::new(&s.world);
                    if traced {
                        let timed = TimedTransport::new(fast, &self.clocks[*group]);
                        self.queue(*group).run(&timed, &s.messages)
                    } else {
                        self.queue(*group).run(&fast, &s.messages)
                    }
                };
                let secs = t.elapsed().as_secs_f64();
                sw.untimed(|| Drained::of(key, *group, secs, outcome))
            })
            .collect()
    }

    fn check(&self, _: &Self::Input, drained: Vec<Drained>) -> Verdict {
        let mut v = Verdict::default();
        let mut digests = String::new();
        let mut msgs = [0u64; 2];
        let mut secs = [0f64; 2];
        let mut stats = self.stats.borrow_mut();
        for d in &drained {
            v.attempted += d.messages;
            v.failed += d.violations;
            digests.push_str(&d.digest);
            msgs[d.group] += d.messages;
            secs[d.group] += d.secs;
            let g = GROUPS[d.group];
            let s = &d.stats;
            for (name, value) in [
                ("attempts", s.attempts),
                ("messages", d.messages),
                ("requeues", s.requeues),
                ("failovers", s.failovers),
                ("breaker_skips", s.breaker_skips),
                ("policy_ladder_skips", s.policy_ladder_skips),
                ("stale_fallbacks", s.stale_fallbacks),
            ] {
                *stats.entry(format!("sender.{name}.{g}")).or_default() += value as f64;
            }
        }
        v.digest = fnv64(digests.as_bytes());
        v.ops = msgs.iter().sum();
        for (g, name) in [(0, "plain_msgs_per_s"), (1, "enforce_msgs_per_s")] {
            v.extra
                .insert(name.into(), msgs[g] as f64 / secs[g].max(1e-9));
        }
        v
    }

    fn layers(&self, spans: &SpanTable, setup_ms: f64) -> Layers {
        let stats = self.stats.borrow();
        let stat = |name: &str, g: &str| {
            stats
                .get(&format!("sender.{name}.{g}"))
                .copied()
                .unwrap_or(0.0)
        };
        let mut l = Layers::default();
        l.metrics.insert("scenario.build.ms".into(), setup_ms);
        for (gi, g) in GROUPS.iter().enumerate() {
            let clocks = &self.clocks[gi];
            let mut busy = 0.0;
            for (method, clock) in clocks.named() {
                busy += clock.busy_ms();
                *l.exclusive_ms
                    .entry(format!("transport.{method}"))
                    .or_default() += clock.busy_ms();
                if method == "attack_touched" {
                    continue;
                }
                l.metrics
                    .insert(format!("transport.{method}.busy_ms.{g}"), clock.busy_ms());
                l.metrics.insert(
                    format!("transport.{method}.calls.{g}"),
                    clock.calls() as f64,
                );
            }
            l.metrics.insert(
                format!("transport.attempt.mean_us.{g}"),
                clocks.attempt.mean_us(),
            );
            let queue_self = spans.get(QUEUE_SPANS[gi]).incl_ms() - busy;
            l.metrics
                .insert(format!("sender.queue.self_ms.{g}"), queue_self);
            *l.exclusive_ms.entry("sender.queue".into()).or_default() += queue_self;
            let messages = stat("messages", g);
            l.metrics.insert(
                format!("sender.attempts_per_msg.{g}"),
                stat("attempts", g) / messages.max(1.0),
            );
            let domains = (self.size.delivery_domains * 2) as f64;
            l.metrics.insert(
                format!("sender.fetches_per_domain.{g}"),
                clocks.fetch_sts_policy.calls() as f64 / domains,
            );
            for count in [
                "requeues",
                "failovers",
                "breaker_skips",
                "policy_ladder_skips",
                "stale_fallbacks",
            ] {
                l.metrics
                    .insert(format!("sender.{count}.{g}"), stat(count, g));
            }
        }
        l
    }
}

// ---------------------------------------------------------------------
// resolver
// ---------------------------------------------------------------------

/// Resolver phases, in round order, with the disposition every row of
/// the phase must carry.
pub const PHASES: [(&str, Disposition); 3] = [
    ("cold", Disposition::Fetched),
    ("warm", Disposition::Hit),
    ("stale", Disposition::StaleFallback),
];

/// Warm passes per round (pass 1 in list order, the rest shuffled).
const WARM_PASSES: usize = 4;

/// The bench's own policy source: uniformly deployed enforce-mode
/// domains whose record id can roll while the policy hosts are dark
/// (the `exp_resolver` shape).
pub struct SynthSource {
    record: String,
    hosts_up: bool,
}

impl SynthSource {
    /// Healthy hosts serving record id `id`.
    pub fn up(id: &str) -> SynthSource {
        SynthSource {
            record: format!("v=STSv1; id={id};"),
            hosts_up: true,
        }
    }

    /// Dark hosts behind record id `id`.
    pub fn down(id: &str) -> SynthSource {
        SynthSource {
            hosts_up: false,
            ..SynthSource::up(id)
        }
    }
}

impl PolicySource for SynthSource {
    fn record_txts(&self, _: &DomainName, _: SimInstant) -> Option<Vec<String>> {
        Some(vec![self.record.clone()])
    }

    fn fetch_policy(&self, _: &DomainName, _: SimInstant) -> Result<String, String> {
        if self.hosts_up {
            Ok(
                "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 604800\r\n"
                    .into(),
            )
        } else {
            Err("policy host unreachable".into())
        }
    }
}

/// The policy service alone: cold writes, warm reads, stale fallbacks.
pub struct Resolver {
    /// Seed of the warm-pass shuffles.
    pub seed: u64,
    size: Size,
    /// Per phase: the policy source, whole `resolve_batch` calls, and the
    /// bench reading and freeing the returned rows.
    source: [Clock; 3],
    resolve: [Clock; 3],
    consume: [Clock; 3],
    service: RefCell<BTreeMap<String, f64>>,
}

impl Resolver {
    /// A resolver body.
    pub fn new(seed: u64, size: &Size) -> Resolver {
        Resolver {
            seed,
            size: *size,
            source: Default::default(),
            resolve: Default::default(),
            consume: Default::default(),
            service: RefCell::default(),
        }
    }
}

/// Set-up output of `resolver`: the domain list and the shuffled orders
/// of warm passes 2..
pub struct ResolverInput {
    domains: Vec<DomainName>,
    shuffled: Vec<Vec<DomainName>>,
}

/// SplitMix64: the shuffle's generator, so the orders are a pure function
/// of the seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One phase's outputs, folded as the batches come back.
#[derive(Debug, Default, Clone)]
pub struct PhaseOut {
    rows: u64,
    wrong: u64,
    digest: u64,
    secs: f64,
    batch_ms: Vec<f64>,
}

impl PhaseOut {
    fn fold(&mut self, rows: &[Resolution], expected: Disposition) {
        for r in rows {
            self.rows += 1;
            if r.disposition != expected {
                self.wrong += 1;
            }
            // A cheap order-sensitive fold of each row's fields; the
            // program's own `resolution_digest` serializes to JSON, which
            // would cost more than the reads being measured.
            let fields = [
                r.seq,
                r.disposition as u64,
                r.mode.map_or(0, |m| m as u64 + 1),
                u64::from(r.stale),
                r.resolved_unix_secs as u64,
            ];
            for f in fields {
                self.digest = (self.digest ^ f).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// Linear-interpolated percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

impl Resolver {
    fn phase<S: PolicySource>(
        &self,
        resolver: &PolicyResolver,
        phase: usize,
        source: &S,
        passes: &[&[DomainName]],
        at: SimInstant,
        out: &mut PhaseOut,
    ) {
        let (_, expected) = PHASES[phase];
        let start = Instant::now();
        let mut wave = 0i64;
        for domains in passes {
            for batch in domains.chunks(self.size.resolver_batch) {
                let submitted = at + Duration::seconds(wave);
                let t = Instant::now();
                let rows = if obsv::enabled() {
                    let timed = TimedSource::new(source, &self.source[phase]);
                    resolver.resolve_batch(&timed, batch, submitted)
                } else {
                    resolver.resolve_batch(source, batch, submitted)
                };
                let took = t.elapsed();
                self.resolve[phase].add(took);
                out.batch_ms.push(took.as_secs_f64() * 1e3);
                self.consume[phase].time(|| {
                    out.fold(&rows, expected);
                    drop(rows);
                });
                wave += 1;
            }
        }
        out.secs += start.elapsed().as_secs_f64();
    }
}

const PHASE_SPANS: [&str; 3] = ["resolver.cold", "resolver.warm", "resolver.stale"];

impl Body for Resolver {
    type Input = ResolverInput;
    /// The phases, and the service itself so that freeing its cache
    /// happens after the clock stops.
    type Output = ([PhaseOut; 3], PolicyResolver);

    fn setup(&self) -> ResolverInput {
        let domains: Vec<DomainName> = (0..self.size.resolver_domains)
            .map(|i| {
                format!("r{i}.example")
                    .parse()
                    .expect("synthetic domain parses")
            })
            .collect();
        let mut state = self.seed;
        let shuffled = (1..WARM_PASSES)
            .map(|_| {
                let mut order = domains.clone();
                for i in (1..order.len()).rev() {
                    let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            })
            .collect();
        ResolverInput { domains, shuffled }
    }

    fn round(&self, input: &ResolverInput, sw: &Stopwatch) -> Self::Output {
        let epoch = SimInstant::from_unix_secs(1_717_200_000);
        let resolver = PolicyResolver::new(
            ResolverConfig {
                shards: 16,
                admission: None,
                threads: 0,
            },
            epoch,
        );
        let mut out: [PhaseOut; 3] = Default::default();
        let up = SynthSource::up("gen1");
        let warm: Vec<&[DomainName]> = std::iter::once(input.domains.as_slice())
            .chain(input.shuffled.iter().map(Vec::as_slice))
            .collect();
        {
            let _s = obsv::span!(PHASE_SPANS[0]);
            self.phase(&resolver, 0, &up, &[&input.domains], epoch, &mut out[0]);
        }
        sw.lap();
        {
            let _s = obsv::span!(PHASE_SPANS[1]);
            let at = epoch + Duration::minutes(30);
            self.phase(&resolver, 1, &up, &warm, at, &mut out[1]);
        }
        sw.lap();
        {
            // Every record id rolls while every policy host is dark: each
            // refresh fails and §3.3 stale fallback must answer.
            let _s = obsv::span!(PHASE_SPANS[2]);
            let at = epoch + Duration::hours(2);
            let down = SynthSource::down("gen2");
            self.phase(&resolver, 2, &down, &[&input.domains], at, &mut out[2]);
        }
        (out, resolver)
    }

    fn check(&self, _: &ResolverInput, (phases, resolver): Self::Output) -> Verdict {
        let m = resolver.metrics();
        let mut service = self.service.borrow_mut();
        for (name, value) in [
            (
                "resolver.hit_ratio",
                m.hits as f64 / m.requests.max(1) as f64,
            ),
            ("resolver.fetches", m.fetches as f64),
            ("resolver.coalesced", m.coalesced as f64),
            ("resolver.stale_fallbacks", m.stale_fallbacks as f64),
            ("resolver.cache_entries", m.cache_entries as f64),
        ] {
            service.insert(name.into(), value);
        }
        let mut v = Verdict::default();
        let mut digest = 0u64;
        for ((name, _), p) in PHASES.iter().zip(&phases) {
            v.attempted += p.rows;
            v.failed += p.wrong;
            v.ops += p.rows;
            digest = (digest ^ p.digest).wrapping_mul(0x100_0000_01b3);
            let rate = match *name {
                "cold" => "write_ops_per_s",
                "warm" => "read_ops_per_s",
                _ => "stale_ops_per_s",
            };
            v.extra
                .insert(rate.into(), p.rows as f64 / p.secs.max(1e-9));
            let mut sorted = p.batch_ms.clone();
            sorted.sort_by(f64::total_cmp);
            for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                v.extra.insert(
                    format!("resolver.batch_{label}_ms.{name}"),
                    percentile(&sorted, q),
                );
            }
        }
        // Every domain is cached after the cold phase and still governed
        // (by a stale entry) after the outage.
        v.check(m.cache_entries == self.size.resolver_domains as u64);
        v.digest = digest;
        v
    }

    fn layers(&self, _: &SpanTable, _: f64) -> Layers {
        let mut l = Layers::default();
        for (i, (name, _)) in PHASES.iter().enumerate() {
            let source = self.source[i].busy_ms();
            let own = self.resolve[i].busy_ms() - source;
            l.metrics.insert(format!("resolver.self_ms.{name}"), own);
            l.metrics
                .insert(format!("resolver.source.busy_ms.{name}"), source);
            *l.exclusive_ms.entry("resolver".into()).or_default() += own;
            *l.exclusive_ms.entry("resolver.source".into()).or_default() += source;
            *l.exclusive_ms.entry("bench.consume".into()).or_default() += self.consume[i].busy_ms();
        }
        for (k, v) in self.service.borrow().iter() {
            l.metrics.insert(k.clone(), *v);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Clock, TimedSource, TimedTransport, TransportClocks};

    fn strip_scenario() -> Scenario {
        build(
            ScenarioSpec::small(
                7,
                Degradation::StartTlsStrip {
                    delay_secs: 30,
                    duration_secs: 120,
                },
            )
            .with_sts(Mode::Enforce),
        )
    }

    #[test]
    fn timed_transport_is_transparent() {
        let s = strip_scenario();
        let queue = Delivery::new(7, &TINY).queue(1);
        let plain = queue.run(&FastTransport::new(&s.world), &s.messages);
        let clocks = TransportClocks::default();
        let timed = queue.run(
            &TimedTransport::new(FastTransport::new(&s.world), &clocks),
            &s.messages,
        );
        assert_eq!(
            sender::ledger_digest(&plain.records),
            sender::ledger_digest(&timed.records)
        );
        assert_eq!(plain.stats, timed.stats);
        assert!(clocks.attempt.calls() >= s.messages.len() as u64);
        assert!(clocks.sts_record.calls() > 0 && clocks.fetch_sts_policy.calls() > 0);
        // The streamed digest is the program's own.
        assert_eq!(
            ledger_digest(&plain.records),
            sender::ledger_digest(&plain.records)
        );
    }

    #[test]
    fn timed_source_is_transparent() {
        let domains: Vec<DomainName> = (0..50)
            .map(|i| format!("t{i}.example").parse().expect("domain"))
            .collect();
        let epoch = SimInstant::from_unix_secs(1_717_200_000);
        let digests = |timed: bool| -> Vec<String> {
            let r = PolicyResolver::new(ResolverConfig::default(), epoch);
            let clock = Clock::default();
            let mut out = Vec::new();
            for (source, at) in [
                (SynthSource::up("a"), epoch),
                (SynthSource::up("a"), epoch + Duration::minutes(5)),
                (SynthSource::down("b"), epoch + Duration::hours(1)),
            ] {
                let rows = if timed {
                    r.resolve_batch(&TimedSource::new(&source, &clock), &domains, at)
                } else {
                    r.resolve_batch(&source, &domains, at)
                };
                out.push(sender::resolution_digest(&rows));
            }
            assert_eq!(clock.calls() > 0, timed);
            out
        };
        assert_eq!(digests(false), digests(true));
    }

    fn delivered() -> MessageStatus {
        MessageStatus::Delivered {
            mx_host: "mxa.d0.test".into(),
            tls_used: true,
            validated: true,
        }
    }

    fn bounced(reason: BounceReason) -> MessageStatus {
        MessageStatus::Bounced { reason }
    }

    #[test]
    fn delivery_contracts_per_scenario() {
        let exhausted = || {
            bounced(BounceReason::RetriesExhausted {
                last_error: "450".into(),
            })
        };
        let permanent = || {
            bounced(BounceReason::Permanent {
                code: 550,
                text: "no".into(),
            })
        };
        assert!(delivery_ok("baseline_nosts", &delivered(), false));
        assert!(!delivery_ok("baseline_nosts", &exhausted(), false));
        assert!(delivery_ok("greylist", &exhausted(), false));
        assert!(!delivery_ok("greylist", &permanent(), false));
        assert!(delivery_ok("starttls_strip_enforce", &delivered(), false));
        assert!(!delivery_ok("starttls_strip_enforce", &delivered(), true));
        assert!(!delivery_ok("policy_outage_enforce", &exhausted(), false));
    }

    #[test]
    fn failed_checks_are_counted_against_attempts() {
        let body = Delivery::new(7, &TINY);
        let drained = |group, messages, violations| Drained {
            group,
            secs: 0.5,
            messages,
            violations,
            digest: "0".into(),
            stats: QueueStats {
                processed: messages,
                delivered: messages - violations,
                attempts: messages + 3,
                requeues: 3,
                ..QueueStats::default()
            },
        };
        let v = body.check(&Vec::new(), vec![drained(0, 100, 0), drained(1, 50, 2)]);
        assert_eq!((v.attempted, v.failed, v.ops), (150, 2, 150));
        assert_eq!(v.extra["plain_msgs_per_s"], 200.0);
        assert_eq!(body.stats.borrow()["sender.requeues.enforce"], 3.0);

        let row = |seq, disposition| Resolution {
            seq,
            domain: "x.example".parse().expect("domain"),
            disposition,
            mode: Some(Mode::Enforce),
            stale: false,
            resolved_unix_secs: 0,
        };
        let mut phase = PhaseOut::default();
        phase.fold(
            &[
                row(0, Disposition::Hit),
                row(1, Disposition::Fetched),
                row(2, Disposition::Hit),
            ],
            Disposition::Hit,
        );
        assert_eq!((phase.rows, phase.wrong), (3, 1));
    }
}
