//! The downgrade-attack sweep behind `exp_downgrade`.
//!
//! The claim under test is the paper's §2.4 security argument: MTA-STS's
//! TOFU cache turns a *stripping* attacker (who can blank the `_mta-sts`
//! record and redirect MX resolution for a bounded window) into a noisy
//! failure instead of a silent interception — but only while a previously
//! fetched policy is still within `max_age`. The harness stands up a set
//! of victim domains, runs a warm-cache sender and an always-refetch
//! ablation through an attack window on an hourly delivery cadence, and
//! counts the attacker's wins on each side. Sweeping window length against
//! `max_age` reproduces the boundary: the warm sender loses nothing while
//! `max_age` covers the window (plus the priming gap), the cache-less
//! sender loses every in-window message.
//!
//! Each delivery is one [`SenderEngine::evaluate`] call — the workspace's
//! single RFC 8461 sender decision — fed by the simulated world, with an
//! omniscient interception label and RFC 8460 TLSRPT accounting through
//! [`ReportBuilder`].

use mtasts::{
    DeliveryObservation, Mode, ReportBuilder, ResultType, SenderAction, SenderEngine, StsOutcome,
    TlsReport,
};
use netbase::{DomainName, Duration, SimDate, SimInstant};
use sender::TlsRequirement;
use serde::Serialize;
use simnet::endpoint::Reachability;
use simnet::{AttackKind, AttackSchedule, MxEndpoint, WebEndpoint, World};
use std::collections::BTreeMap;

/// Running totals over every delivery attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeliveryStats {
    /// Messages attempted.
    pub attempted: u64,
    /// Delivered with validated TLS.
    pub delivered_validated: u64,
    /// Delivered without MTA-STS protection.
    pub delivered_unvalidated: u64,
    /// Refused under `enforce`.
    pub refused: u64,
    /// Validation failures delivered anyway under `testing` (the
    /// soft-fail account RFC 8461 §5.2 trades for TLSRPT visibility).
    pub soft_fails: u64,
    /// Resolutions a retained cached policy governed after a failed
    /// refresh or record lookup (RFC 8461 §3.3 degraded mode).
    pub stale_fallbacks: u64,
    /// Deliveries the active attacker could read or redirect: delivered
    /// without validated TLS while an attack window covered the domain or
    /// its MX. This is the attacker's win count.
    pub intercepted: u64,
}

/// TLSRPT reporting organization of the sweep's sender.
const ORGANIZATION: &str = "MTA-STS Lab Sender";
/// TLSRPT contact address of the sweep's sender.
const CONTACT: &str = "mailto:tlsrpt@sender.example";

/// A sending MTA for the sweep: one [`SenderEngine`] (and so one TOFU
/// cache), one TLSRPT ledger, running totals.
#[derive(Debug)]
pub struct SweepSender {
    engine: SenderEngine,
    use_cache: bool,
    report: ReportBuilder,
    stats: DeliveryStats,
}

impl SweepSender {
    /// A sender with an empty cache; `use_cache: false` is the
    /// always-refetch ablation (a fresh engine for every delivery).
    pub fn new(use_cache: bool) -> SweepSender {
        SweepSender {
            engine: SenderEngine::new(),
            use_cache,
            report: ReportBuilder::new(),
            stats: DeliveryStats::default(),
        }
    }

    /// Running totals.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// The TLSRPT report over every delivery so far.
    pub fn tls_report(&self, day: SimDate) -> TlsReport {
        self.report.build(ORGANIZATION, CONTACT, day)
    }

    /// Delivers one message to `domain` at `now` against `world` and
    /// returns the protocol outcome.
    pub fn deliver(&mut self, world: &World, domain: &DomainName, now: SimInstant) -> StsOutcome {
        // The best-preference published MX, or the apex when the domain
        // publishes none (RFC 5321 implicit MX).
        let mx = world
            .mx_records(domain, now)
            .ok()
            .and_then(|hosts| hosts.first().cloned())
            .unwrap_or_else(|| domain.clone());
        let record_txts = world.mta_sts_txts(domain, now).ok();
        let probe = world.probe_mx(&mx, None, now);
        if !self.use_cache {
            self.engine = SenderEngine::new();
        }
        let fallbacks = self.engine.fetch_fallbacks();
        let (outcome, action) = self.engine.evaluate(DeliveryObservation {
            domain,
            record_txts: record_txts.as_deref(),
            fetch_policy: || {
                world
                    .fetch_policy(domain, now)
                    .result
                    .map(|(_, raw)| raw)
                    .map_err(|e| e.to_string())
            },
            mx_host: &mx,
            check_mx_tls: || {
                TlsRequirement::RequirePkix
                    .check(&probe, &mx, now, world.pki.trust_store())
                    .map(drop)
            },
            now,
        });

        let stats = &mut self.stats;
        stats.attempted += 1;
        stats.stale_fallbacks += self.engine.fetch_fallbacks() - fallbacks;
        match action {
            SenderAction::Deliver => stats.delivered_validated += 1,
            SenderAction::DeliverUnvalidated => stats.delivered_unvalidated += 1,
            SenderAction::Refuse => stats.refused += 1,
        }
        let unvalidated = action == SenderAction::DeliverUnvalidated;
        if unvalidated
            && matches!(
                outcome,
                StsOutcome::Failed {
                    mode: Mode::Testing,
                    ..
                }
            )
        {
            stats.soft_fails += 1;
        }
        // The attacker wins a message delivered without validated TLS
        // while any attack window covers the domain or its MX
        // (omniscient labelling — the sim knows what a real sender
        // cannot).
        let attacked = world.attacker().touches(domain, now) || world.attacker().touches(&mx, now);
        if unvalidated && attacked {
            stats.intercepted += 1;
        }
        self.report.record(domain, &mx, &outcome);
        outcome
    }

    /// TLSRPT failure counts by result type over every delivery so far.
    pub fn tlsrpt_failures(&self, day: SimDate) -> BTreeMap<ResultType, u64> {
        let mut failures: BTreeMap<ResultType, u64> = BTreeMap::new();
        for policy in &self.tls_report(day).policies {
            for detail in &policy.failure_details {
                *failures.entry(detail.result_type).or_default() += detail.failed_session_count;
            }
        }
        failures
    }
}

/// One downgrade-scenario configuration.
#[derive(Debug, Clone)]
pub struct DowngradeConfig {
    /// Scenario seed (names the victim domains; the run itself is fully
    /// deterministic).
    pub seed: u64,
    /// Number of victim domains.
    pub victims: usize,
    /// Policy mode the victims publish.
    pub mode: Mode,
    /// Policy `max_age` in seconds.
    pub max_age: u64,
    /// Attack-window length.
    pub window: Duration,
    /// Whether the sender keeps a TOFU cache (`false` = always-refetch
    /// ablation).
    pub use_cache: bool,
}

impl DowngradeConfig {
    /// The default enforce-mode scenario.
    pub fn new(seed: u64, max_age: u64, window: Duration) -> DowngradeConfig {
        DowngradeConfig {
            seed,
            victims: 3,
            mode: Mode::Enforce,
            max_age,
            window,
            use_cache: true,
        }
    }
}

/// Aggregated result of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DowngradeOutcome {
    /// Sender-side delivery totals.
    pub stats: DeliveryStats,
    /// Deliveries attempted while the attack window was open.
    pub in_window_attempts: u64,
    /// TLSRPT failure counts by result type, summed over victims.
    pub tlsrpt_failures: BTreeMap<ResultType, u64>,
}

/// The priming-to-attack gap: the cache is warmed one delivery step
/// before the window opens, so the warm sender survives exactly when
/// `max_age >= window + ATTACK_LEAD`.
pub const ATTACK_LEAD: Duration = Duration::hours(1);

/// Delivery cadence.
pub const STEP: Duration = Duration::hours(1);

/// Scenario start.
pub fn t0() -> SimInstant {
    SimDate::ymd(2024, 6, 1).at_midnight()
}

fn victim_name(seed: u64, i: usize) -> DomainName {
    format!("victim{i}-s{seed}.test")
        .parse()
        .expect("generated victim names are valid")
}

/// Installs one healthy MTA-STS victim (record, policy host, MX) into the
/// world.
fn install_victim(
    world: &mut World,
    domain: &DomainName,
    mode: Mode,
    max_age: u64,
    now: SimInstant,
) {
    world.ensure_zone(domain);
    let policy_host = domain.prefixed("mta-sts").expect("static label");
    let mx_host = domain.prefixed("mx").expect("static label");
    let mode_str = match mode {
        Mode::Enforce => "enforce",
        Mode::Testing => "testing",
        Mode::None => "none",
    };

    let mut web = WebEndpoint::up();
    web.identity.install(
        policy_host.clone(),
        world
            .pki
            .issue_valid(std::slice::from_ref(&policy_host), now),
    );
    web.install_policy(
        policy_host.clone(),
        &format!("version: STSv1\r\nmode: {mode_str}\r\nmx: {mx_host}\r\nmax_age: {max_age}\r\n"),
    );
    let web_ip = world.add_web_endpoint(web);
    let mx_chain = world.pki.issue_valid(std::slice::from_ref(&mx_host), now);
    let mx_ip = world.add_mx_endpoint(MxEndpoint::healthy(mx_host.clone(), mx_chain));

    world.with_zone(domain, |z| {
        use dns::RecordData;
        z.add_rr(&policy_host, 300, RecordData::A(web_ip));
        z.add_rr(&mx_host, 300, RecordData::A(mx_ip));
        z.add_rr(
            domain,
            300,
            RecordData::Mx {
                preference: 10,
                exchange: mx_host.clone(),
            },
        );
        z.add_rr(
            &domain.prefixed("_mta-sts").expect("static label"),
            300,
            RecordData::Txt(vec!["v=STSv1; id=20240601;".into()]),
        );
    });
}

/// Builds the victim world and the stripping-attack schedule for `cfg`.
pub fn build_world(cfg: &DowngradeConfig) -> (World, Vec<DomainName>) {
    let mut world = World::new();
    let start = t0();
    let victims: Vec<DomainName> = (0..cfg.victims).map(|i| victim_name(cfg.seed, i)).collect();
    for v in &victims {
        install_victim(&mut world, v, cfg.mode, cfg.max_age, start);
    }
    let attack_start = start + ATTACK_LEAD;
    let attack_end = attack_start + cfg.window;
    let mut schedule = AttackSchedule::new();
    for v in &victims {
        schedule = schedule
            .with_window(
                AttackKind::DnsTxtStrip,
                Some(v.clone()),
                attack_start,
                attack_end,
            )
            .with_window(
                AttackKind::MxRedirect,
                Some(v.clone()),
                attack_start,
                attack_end,
            );
    }
    world.set_attacker(schedule);
    (world, victims)
}

/// Runs one scenario: prime at `t0`, then deliver to every victim each
/// [`STEP`] through the attack window and a six-hour tail.
pub fn run_downgrade(cfg: &DowngradeConfig) -> DowngradeOutcome {
    let (world, victims) = build_world(cfg);
    let mut sender = SweepSender::new(cfg.use_cache);

    let start = t0();
    let attack_start = start + ATTACK_LEAD;
    let attack_end = attack_start + cfg.window;
    let horizon = attack_end + Duration::hours(6);

    // Prime: one delivery per victim before the attack begins.
    for v in &victims {
        sender.deliver(&world, v, start);
    }

    let mut in_window_attempts = 0;
    let mut now = start + STEP;
    while now < horizon {
        for v in &victims {
            if attack_start <= now && now < attack_end {
                in_window_attempts += 1;
            }
            sender.deliver(&world, v, now);
        }
        now += STEP;
    }

    DowngradeOutcome {
        stats: sender.stats(),
        in_window_attempts,
        tlsrpt_failures: sender.tlsrpt_failures(start.date()),
    }
}

/// One sweep cell: a (window, max_age) pair run both with and without the
/// cache.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCell {
    /// Attack-window length in hours.
    pub window_hours: i64,
    /// Policy `max_age` in seconds.
    pub max_age: u64,
    /// Whether `max_age` covers the window plus the priming gap — the
    /// regime in which the warm sender must lose nothing.
    pub cache_covers_window: bool,
    /// Warm-cache sender outcome.
    pub warm: DowngradeOutcome,
    /// Always-refetch ablation outcome.
    pub cacheless: DowngradeOutcome,
}

/// Sweeps window length x `max_age` for enforce-mode victims.
pub fn sweep(seed: u64, windows: &[Duration], max_ages: &[u64]) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(windows.len() * max_ages.len());
    for &window in windows {
        for &max_age in max_ages {
            let warm = run_downgrade(&DowngradeConfig::new(seed, max_age, window));
            let cacheless = run_downgrade(&DowngradeConfig {
                use_cache: false,
                ..DowngradeConfig::new(seed, max_age, window)
            });
            cells.push(SweepCell {
                window_hours: window.as_secs() / 3600,
                max_age,
                cache_covers_window: max_age as i64 >= (window + ATTACK_LEAD).as_secs(),
                warm,
                cacheless,
            });
        }
    }
    cells
}

/// TLSRPT failure-type coverage: three scenarios producing the three
/// failure types the downgrade story hinges on.
///
/// - `validation-failure`: MX redirection against a cached policy
///   (`testing` mode, so the failure is soft and reported);
/// - `sts-webpki-invalid`: HTTPS policy-fetch MITM with an attacker
///   certificate against a cache-less sender;
/// - `sts-policy-fetch-error`: policy host unreachable (attacker DoS)
///   against a cache-less sender.
pub fn tlsrpt_failure_coverage(seed: u64) -> BTreeMap<ResultType, u64> {
    let start = t0();
    let attack_start = start + ATTACK_LEAD;
    let attack_end = attack_start + Duration::hours(6);
    let mut totals: BTreeMap<ResultType, u64> = BTreeMap::new();
    let mut merge = |failures: BTreeMap<ResultType, u64>| {
        for (ty, n) in failures {
            *totals.entry(ty).or_default() += n;
        }
    };

    // validation-failure via soft-failing MX redirection.
    merge(
        run_downgrade(&DowngradeConfig {
            mode: Mode::Testing,
            ..DowngradeConfig::new(seed, 604_800, Duration::hours(6))
        })
        .tlsrpt_failures,
    );

    // sts-webpki-invalid via an HTTPS MITM on the policy host.
    {
        let cfg = DowngradeConfig {
            use_cache: false,
            ..DowngradeConfig::new(seed, 604_800, Duration::hours(6))
        };
        let mut world = World::new();
        let victim = victim_name(cfg.seed, 0);
        install_victim(&mut world, &victim, cfg.mode, cfg.max_age, start);
        world.set_attacker(AttackSchedule::new().with_window(
            AttackKind::HttpsMitm,
            Some(victim.clone()),
            attack_start,
            attack_end,
        ));
        let mut sender = SweepSender::new(cfg.use_cache);
        sender.deliver(&world, &victim, attack_start + STEP);
        merge(sender.tlsrpt_failures(start.date()));
    }

    // sts-policy-fetch-error via an unreachable policy host.
    {
        let mut world = World::new();
        let victim = victim_name(seed, 0);
        install_victim(&mut world, &victim, Mode::Enforce, 604_800, start);
        for ip in world.web_ips() {
            world.with_web(ip, |ep| ep.reachability = Reachability::Refused);
        }
        let mut sender = SweepSender::new(false);
        sender.deliver(&world, &victim, attack_start);
        merge(sender.tlsrpt_failures(start.date()));
    }

    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_cache_shuts_the_attacker_out() {
        // max_age one week, window one day: the warm sender refuses
        // in-window deliveries instead of losing them.
        let cfg = DowngradeConfig::new(7, 604_800, Duration::days(1));
        let out = run_downgrade(&cfg);
        assert_eq!(out.stats.intercepted, 0);
        assert_eq!(out.stats.refused, out.in_window_attempts);
        assert!(out.stats.delivered_validated > 0);
    }

    #[test]
    fn short_max_age_loses_the_tail_of_the_window() {
        // max_age two hours, window one day: once the cache expires
        // mid-window the domain is released and messages flow to the
        // attacker.
        let cfg = DowngradeConfig::new(7, 7_200, Duration::days(1));
        let out = run_downgrade(&cfg);
        assert!(out.stats.intercepted > 0);
        assert!(out.stats.intercepted < out.in_window_attempts);
    }

    #[test]
    fn sweep_is_deterministic() {
        let windows = [Duration::hours(6)];
        let ages = [3_600, 604_800];
        let a = sweep(42, &windows, &ages);
        let b = sweep(42, &windows, &ages);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.warm, y.warm);
            assert_eq!(x.cacheless, y.cacheless);
        }
    }
}
