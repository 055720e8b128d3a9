//! Transient-fault injection: the flaky-Internet layer.
//!
//! The static fault palette ([`crate::endpoint::Reachability`],
//! [`crate::endpoint::CertKind`], …) models *persistent*
//! misconfigurations — what the paper's taxonomy ultimately counts. Real
//! scans additionally see *transient* failures (intermittent SERVFAIL,
//! connection resets, greylisting 4xx) that must be retried away before
//! classification, or misconfiguration rates inflate. A [`FaultSchedule`]
//! injects exactly those: windowed outages and per-operation probabilistic
//! failures, fully deterministic from a seed.
//!
//! Determinism contract: a draw is keyed on `(seed, scope, kind, instant)`.
//! The same operation at the same simulated instant always sees the same
//! fault decision, while a *retry at a later instant* re-draws — which is
//! what lets retried scans recover from probabilistic transients, and what
//! keeps an interrupted-and-resumed supervisor run byte-identical to an
//! uninterrupted one.

use netbase::{DetRng, DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The transient failure modes the schedule can inject, mirroring the
/// layers of the §4.3.3 fetch ladder plus the SMTP session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// DNS answers SERVFAIL (upstream resolver/authority hiccup).
    DnsServfail,
    /// DNS query dropped: the resolver times out.
    DnsDrop,
    /// TCP connection reset by peer.
    TcpReset,
    /// TLS connection torn down mid-handshake.
    TlsHandshakeAbort,
    /// HTTP 503 from an overloaded policy host.
    HttpServerError,
    /// SMTP 450 greylisting tempfail.
    SmtpGreylist,
}

/// The protocol stage a fault fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultStage {
    /// Name resolution.
    Dns,
    /// TCP connect.
    Tcp,
    /// TLS handshake.
    Tls,
    /// HTTP request/response.
    Http,
    /// SMTP session.
    Smtp,
}

impl FaultKind {
    /// The stage this fault fires at.
    pub fn stage(self) -> FaultStage {
        match self {
            FaultKind::DnsServfail | FaultKind::DnsDrop => FaultStage::Dns,
            FaultKind::TcpReset => FaultStage::Tcp,
            FaultKind::TlsHandshakeAbort => FaultStage::Tls,
            FaultKind::HttpServerError => FaultStage::Http,
            FaultKind::SmtpGreylist => FaultStage::Smtp,
        }
    }

    /// Stable label used in RNG derivation (renaming a variant must not
    /// silently reshuffle every experiment, so the label is explicit).
    fn label(self) -> &'static str {
        match self {
            FaultKind::DnsServfail => "dns-servfail",
            FaultKind::DnsDrop => "dns-drop",
            FaultKind::TcpReset => "tcp-reset",
            FaultKind::TlsHandshakeAbort => "tls-abort",
            FaultKind::HttpServerError => "http-5xx",
            FaultKind::SmtpGreylist => "smtp-greylist",
        }
    }
}

/// A deterministic outage window: `kind` fires on every matching operation
/// with `start <= now < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// The injected failure mode.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub start: SimInstant,
    /// Window end (exclusive).
    pub end: SimInstant,
}

impl FaultWindow {
    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimInstant) -> bool {
        self.start <= now && now < self.end
    }
}

/// A per-endpoint (or per-resolver) transient-fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Seed for probabilistic draws.
    seed: u64,
    /// Deterministic outage windows.
    windows: Vec<FaultWindow>,
    /// Per-operation failure probabilities.
    rates: Vec<(FaultKind, f64)>,
}

impl FaultSchedule {
    /// An empty schedule (never faults) rooted at `seed`.
    pub fn new(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            windows: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Adds an outage window.
    pub fn with_window(mut self, kind: FaultKind, start: SimInstant, end: SimInstant) -> Self {
        assert!(start <= end, "window must not be inverted");
        self.windows.push(FaultWindow { kind, start, end });
        self
    }

    /// Adds a flapping outage: `cycles` repetitions of `down` (the fault
    /// fires) followed by `up` (it does not), starting at `start`. This is
    /// the degraded-MX pattern the delivery chaos matrix exercises — a
    /// host that keeps dying and recovering, so a queue must both fail
    /// over *and* come back instead of writing the host off.
    pub fn with_flapping(
        mut self,
        kind: FaultKind,
        start: SimInstant,
        down: netbase::Duration,
        up: netbase::Duration,
        cycles: u32,
    ) -> Self {
        assert!(
            down > netbase::Duration::ZERO,
            "flapping down-phase must be positive"
        );
        let mut at = start;
        for _ in 0..cycles {
            self = self.with_window(kind, at, at + down);
            at = at + down + up;
        }
        self
    }

    /// Adds a probabilistic failure mode firing on each operation with
    /// probability `rate`.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
        self.rates.push((kind, rate));
        self
    }

    /// Whether the schedule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.rates.iter().all(|(_, r)| *r == 0.0)
    }

    /// The fault (if any) affecting an operation at `stage` on behalf of
    /// `scope` (a stable operation key, e.g. `"dns/mta-sts.a.com/A"`) at
    /// simulated time `now`. Windows take precedence over probabilistic
    /// draws; among overlapping windows the earliest added wins.
    ///
    /// `scope` is rendered (and its RNG forked) only when a non-zero rate
    /// for `stage` has to draw, so callers pass `format_args!` and an
    /// empty schedule costs no allocation.
    pub fn sample(
        &self,
        stage: FaultStage,
        scope: impl fmt::Display,
        now: SimInstant,
    ) -> Option<FaultKind> {
        for w in &self.windows {
            if w.kind.stage() == stage && w.contains(now) {
                count_fault_activation(w.kind);
                return Some(w.kind);
            }
        }
        let mut rng = None;
        for (kind, rate) in &self.rates {
            if kind.stage() != stage || *rate <= 0.0 {
                continue;
            }
            let rng = rng.get_or_insert_with(|| DetRng::new(self.seed).fork(&scope.to_string()));
            if rng
                .fork(kind.label())
                .chance(&format!("t/{}", now.unix_secs()), *rate)
            {
                count_fault_activation(*kind);
                return Some(*kind);
            }
        }
        None
    }
}

/// Telemetry: one counter bump per fault activation, keyed per kind plus
/// a total (a pure side channel — draws above already happened).
fn count_fault_activation(kind: FaultKind) {
    obsv::counter!("fault_activations_total");
    obsv::counter!(match kind {
        FaultKind::DnsServfail => "fault_activations.dns-servfail",
        FaultKind::DnsDrop => "fault_activations.dns-drop",
        FaultKind::TcpReset => "fault_activations.tcp-reset",
        FaultKind::TlsHandshakeAbort => "fault_activations.tls-abort",
        FaultKind::HttpServerError => "fault_activations.http-5xx",
        FaultKind::SmtpGreylist => "fault_activations.smtp-greylist",
    });
}

/// The moves an on-path *active* adversary can make against MTA-STS
/// (paper §2.4, §6): unlike the transient [`FaultKind`]s above, these are
/// deliberate, targeted and persist for the whole attack window. They are
/// exactly the downgrade vectors RFC 8461's TOFU cache is designed to
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Strip `_mta-sts` TXT answers so the victim appears not to deploy
    /// MTA-STS at all (downgrade-by-DNS for first-contact senders).
    DnsTxtStrip,
    /// Forge a CNAME at `mta-sts.<victim>` redirecting the policy fetch to
    /// an attacker host — which cannot present a certificate for the
    /// victim's policy host, so a strict fetch fails with a name mismatch.
    CnameForge,
    /// Intercept the HTTPS policy fetch and present an attacker-CA
    /// certificate for the correct name (fails strict PKIX).
    HttpsMitm,
    /// Forge the victim's MX answers to point at the attacker's relay.
    MxRedirect,
    /// Filter STARTTLS from the MX's EHLO response (classic STRIPTLS).
    StartTlsStrip,
    /// Substitute the MX's certificate chain with one from the attacker's
    /// own CA (passive-decrypt MITM on the SMTP session).
    MxCertSubstitute,
}

impl AttackKind {
    /// All attack kinds (reporting, sweeps).
    pub const ALL: [AttackKind; 6] = [
        AttackKind::DnsTxtStrip,
        AttackKind::CnameForge,
        AttackKind::HttpsMitm,
        AttackKind::MxRedirect,
        AttackKind::StartTlsStrip,
        AttackKind::MxCertSubstitute,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::DnsTxtStrip => "dns-txt-strip",
            AttackKind::CnameForge => "cname-forge",
            AttackKind::HttpsMitm => "https-mitm",
            AttackKind::MxRedirect => "mx-redirect",
            AttackKind::StartTlsStrip => "starttls-strip",
            AttackKind::MxCertSubstitute => "mx-cert-substitute",
        }
    }
}

/// One attack: `kind` is active against `victim` (or every domain when
/// `None`) for `start <= now < end`. Names match by suffix, so a window
/// targeting `example.com` also covers `mx.example.com` and
/// `mta-sts.example.com`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackWindow {
    /// The attack vector.
    pub kind: AttackKind,
    /// The targeted domain (apex); `None` targets everyone.
    pub victim: Option<DomainName>,
    /// Window start (inclusive).
    pub start: SimInstant,
    /// Window end (exclusive).
    pub end: SimInstant,
}

impl AttackWindow {
    /// Whether this window covers `name` at `now`.
    pub fn applies(&self, name: &DomainName, now: SimInstant) -> bool {
        if !(self.start <= now && now < self.end) {
            return false;
        }
        match &self.victim {
            None => true,
            Some(victim) => name.is_subdomain_of(victim),
        }
    }
}

/// The active attacker's plan: a set of [`AttackWindow`]s plus the host
/// the attacker operates (the target of forged CNAMEs and MX answers).
/// Entirely deterministic — an adversary is deliberate, not stochastic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackSchedule {
    attacker_host: DomainName,
    windows: Vec<AttackWindow>,
}

impl Default for AttackSchedule {
    fn default() -> AttackSchedule {
        AttackSchedule::new()
    }
}

impl AttackSchedule {
    /// An empty schedule with the default attacker host.
    pub fn new() -> AttackSchedule {
        AttackSchedule {
            attacker_host: "mx.attacker.example"
                .parse()
                .expect("static attacker host is valid"),
            windows: Vec::new(),
        }
    }

    /// Adds an attack window against `victim` (`None` = every domain).
    pub fn with_window(
        mut self,
        kind: AttackKind,
        victim: Option<DomainName>,
        start: SimInstant,
        end: SimInstant,
    ) -> Self {
        assert!(start <= end, "attack window must not be inverted");
        self.windows.push(AttackWindow {
            kind,
            victim,
            start,
            end,
        });
        self
    }

    /// The host the attacker redirects traffic to.
    pub fn attacker_host(&self) -> &DomainName {
        &self.attacker_host
    }

    /// Whether `kind` is active against `name` at `now`.
    pub fn active(&self, kind: AttackKind, name: &DomainName, now: SimInstant) -> bool {
        let hit = self
            .windows
            .iter()
            .any(|w| w.kind == kind && w.applies(name, now));
        if hit {
            // Telemetry: an operation intersected a live attack window.
            obsv::counter!("attack_window_hits_total");
            obsv::counter!(match kind {
                AttackKind::DnsTxtStrip => "attack_window_hits.dns-txt-strip",
                AttackKind::CnameForge => "attack_window_hits.cname-forge",
                AttackKind::HttpsMitm => "attack_window_hits.https-mitm",
                AttackKind::MxRedirect => "attack_window_hits.mx-redirect",
                AttackKind::StartTlsStrip => "attack_window_hits.starttls-strip",
                AttackKind::MxCertSubstitute => "attack_window_hits.mx-cert-substitute",
            });
        }
        hit
    }

    /// Whether any attack window covers `name` at `now`. Unlike
    /// [`AttackSchedule::active`] it counts nothing: experiments use it to
    /// grade which deliveries the attacker touched (an omniscient label,
    /// not an operation the attacker performs).
    pub fn touches(&self, name: &DomainName, now: SimInstant) -> bool {
        self.windows.iter().any(|w| w.applies(name, now))
    }

    /// Whether the schedule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// Blanket transient rates for a whole [`crate::World`] — the knob the
/// validation experiment turns (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientFaultConfig {
    /// Root seed for all fault draws.
    pub seed: u64,
    /// Per-lookup DNS SERVFAIL probability.
    pub dns_servfail: f64,
    /// Per-connect TCP reset probability (policy hosts).
    pub tcp_reset: f64,
    /// Per-handshake TLS abort probability (policy hosts).
    pub tls_abort: f64,
    /// Per-request HTTP 503 probability (policy hosts).
    pub http_5xx: f64,
    /// Per-session SMTP greylisting probability (MX hosts).
    pub smtp_greylist: f64,
}

impl TransientFaultConfig {
    /// A uniform configuration: every stage faults with probability `rate`.
    pub fn uniform(seed: u64, rate: f64) -> TransientFaultConfig {
        TransientFaultConfig {
            seed,
            dns_servfail: rate,
            tcp_reset: rate,
            tls_abort: rate,
            http_5xx: rate,
            smtp_greylist: rate,
        }
    }

    /// The schedule for the resolver path.
    pub fn dns_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(self.seed).with_rate(FaultKind::DnsServfail, self.dns_servfail)
    }

    /// The schedule for one policy web endpoint.
    pub fn web_schedule(&self, seed_offset: u64) -> FaultSchedule {
        FaultSchedule::new(self.seed.wrapping_add(seed_offset))
            .with_rate(FaultKind::TcpReset, self.tcp_reset)
            .with_rate(FaultKind::TlsHandshakeAbort, self.tls_abort)
            .with_rate(FaultKind::HttpServerError, self.http_5xx)
    }

    /// The schedule for one MX endpoint.
    pub fn mx_schedule(&self, seed_offset: u64) -> FaultSchedule {
        FaultSchedule::new(self.seed.wrapping_add(seed_offset))
            .with_rate(FaultKind::SmtpGreylist, self.smtp_greylist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::{Duration, SimDate};

    fn t0() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    #[test]
    fn empty_schedule_never_fires() {
        let s = FaultSchedule::new(1);
        assert!(s.is_empty());
        for i in 0..100 {
            let now = t0() + Duration::seconds(i);
            assert_eq!(s.sample(FaultStage::Dns, "dns/x/A", now), None);
        }
    }

    #[test]
    fn window_fires_inside_only() {
        let s = FaultSchedule::new(1).with_window(
            FaultKind::TcpReset,
            t0() + Duration::seconds(10),
            t0() + Duration::seconds(20),
        );
        assert_eq!(s.sample(FaultStage::Tcp, "web/1", t0()), None);
        let inside = t0() + Duration::seconds(15);
        assert_eq!(
            s.sample(FaultStage::Tcp, "web/1", inside),
            Some(FaultKind::TcpReset)
        );
        // Stage-filtered: the window does not leak into other stages.
        assert_eq!(s.sample(FaultStage::Http, "web/1", inside), None);
        let after = t0() + Duration::seconds(20);
        assert_eq!(s.sample(FaultStage::Tcp, "web/1", after), None);
    }

    #[test]
    fn flapping_alternates_down_and_up_phases() {
        let s = FaultSchedule::new(1).with_flapping(
            FaultKind::TcpReset,
            t0(),
            Duration::seconds(10),
            Duration::seconds(20),
            3,
        );
        let probe = |secs: i64| {
            s.sample(FaultStage::Tcp, "mx/1", t0() + Duration::seconds(secs))
                .is_some()
        };
        // Cycle layout: [0,10) down, [10,30) up, [30,40) down, [40,60) up,
        // [60,70) down, then nothing.
        for (secs, expect) in [
            (0, true),
            (9, true),
            (10, false),
            (29, false),
            (30, true),
            (45, false),
            (60, true),
            (70, false),
            (1000, false),
        ] {
            assert_eq!(probe(secs), expect, "t={secs}");
        }
    }

    #[test]
    fn probabilistic_draws_are_deterministic_and_time_keyed() {
        let s = FaultSchedule::new(7).with_rate(FaultKind::DnsServfail, 0.5);
        let a: Vec<bool> = (0..64)
            .map(|i| {
                s.sample(FaultStage::Dns, "dns/x/A", t0() + Duration::seconds(i))
                    .is_some()
            })
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| {
                s.sample(FaultStage::Dns, "dns/x/A", t0() + Duration::seconds(i))
                    .is_some()
            })
            .collect();
        assert_eq!(a, b, "same (scope, instant) must redraw identically");
        // A retry at a later instant is a fresh draw: at rate 0.5 over 64
        // instants both outcomes must occur.
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x), "{a:?}");
    }

    #[test]
    fn scopes_are_independent() {
        let s = FaultSchedule::new(7).with_rate(FaultKind::DnsServfail, 0.5);
        let a: Vec<bool> = (0..64)
            .map(|i| {
                s.sample(FaultStage::Dns, "dns/a/A", t0() + Duration::seconds(i))
                    .is_some()
            })
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| {
                s.sample(FaultStage::Dns, "dns/b/A", t0() + Duration::seconds(i))
                    .is_some()
            })
            .collect();
        assert_ne!(a, b, "different scopes must draw independent streams");
    }

    #[test]
    fn draws_are_pinned() {
        // Bit i: whether the schedule fired at t0 + i seconds. The masks
        // are constants, so a change to how scopes are rendered or forked
        // cannot move a draw unnoticed.
        let cfg = TransientFaultConfig::uniform(42, 0.3);
        let mask = |stage, scope: &str, s: &FaultSchedule| {
            (0..64).fold(0u64, |m, i| {
                let fired = s.sample(stage, scope, t0() + Duration::seconds(i));
                m | (u64::from(fired.is_some()) << i)
            })
        };
        let (dns, web, mx) = (cfg.dns_schedule(), cfg.web_schedule(7), cfg.mx_schedule(9));
        let (dns_scope, web_scope) = ("dns/mta-sts.example.com/A", "web/10.0.0.1");
        for (stage, scope, schedule, want) in [
            (FaultStage::Dns, dns_scope, &dns, 0x0480_0080_c109_0070),
            (FaultStage::Tcp, web_scope, &web, 0x2484_1143_60a9_2a35),
            (FaultStage::Tls, web_scope, &web, 0x1098_0a60_152a_5e19),
            (FaultStage::Http, web_scope, &web, 0x0d42_0707_1880_0b12),
            (FaultStage::Smtp, "mx/10.0.0.2", &mx, 0xc003_8a02_c608_214b),
        ] {
            assert_eq!(mask(stage, scope, schedule), want, "{stage:?}");
        }
        // A lazily rendered scope draws exactly as the rendered string.
        let name: DomainName = "mta-sts.example.com".parse().unwrap();
        for i in 0..64 {
            let now = t0() + Duration::seconds(i);
            assert_eq!(
                dns.sample(FaultStage::Dns, format_args!("dns/{name}/A"), now),
                dns.sample(FaultStage::Dns, dns_scope, now)
            );
        }
    }

    #[test]
    fn rates_are_calibrated() {
        let s = FaultSchedule::new(3).with_rate(FaultKind::SmtpGreylist, 0.2);
        let hits = (0..10_000)
            .filter(|i| {
                s.sample(FaultStage::Smtp, "mx/1", t0() + Duration::seconds(*i))
                    .is_some()
            })
            .count();
        // Binomial(10_000, 0.2): mean 2000, sd = 40. Allow ±5 sd.
        assert!((1800..=2200).contains(&hits), "hits={hits}");
    }

    #[test]
    fn attack_windows_match_by_suffix_and_time() {
        let victim: netbase::DomainName = "example.com".parse().unwrap();
        let s = AttackSchedule::new().with_window(
            AttackKind::DnsTxtStrip,
            Some(victim.clone()),
            t0() + Duration::seconds(10),
            t0() + Duration::seconds(20),
        );
        let inside = t0() + Duration::seconds(15);
        assert!(s.active(AttackKind::DnsTxtStrip, &victim, inside));
        // Suffix match: the record name under the victim is covered too.
        let record: netbase::DomainName = "_mta-sts.example.com".parse().unwrap();
        assert!(s.active(AttackKind::DnsTxtStrip, &record, inside));
        // Other domains, other kinds, and out-of-window instants are not.
        let other: netbase::DomainName = "other.org".parse().unwrap();
        assert!(!s.active(AttackKind::DnsTxtStrip, &other, inside));
        assert!(!s.active(AttackKind::HttpsMitm, &victim, inside));
        assert!(!s.active(AttackKind::DnsTxtStrip, &victim, t0()));
        assert!(!s.active(
            AttackKind::DnsTxtStrip,
            &victim,
            t0() + Duration::seconds(20)
        ));
        // `touches` asks about every window, whatever its kind.
        assert!(s.touches(&record, inside));
        assert!(!s.touches(&other, inside));
        assert!(!s.touches(&victim, t0()));
    }

    #[test]
    fn untargeted_window_covers_everyone() {
        let s = AttackSchedule::new().with_window(
            AttackKind::StartTlsStrip,
            None,
            t0(),
            t0() + Duration::hours(1),
        );
        let any: netbase::DomainName = "whoever.net".parse().unwrap();
        assert!(s.active(AttackKind::StartTlsStrip, &any, t0()));
        assert!(!s.is_empty());
        assert!(AttackSchedule::new().is_empty());
    }

    #[test]
    fn attack_labels_are_stable_and_distinct() {
        let labels: std::collections::HashSet<&str> =
            AttackKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), AttackKind::ALL.len());
    }

    #[test]
    fn uniform_config_builds_stage_schedules() {
        let cfg = TransientFaultConfig::uniform(11, 0.1);
        assert!(!cfg.dns_schedule().is_empty());
        assert!(!cfg.web_schedule(1).is_empty());
        assert!(!cfg.mx_schedule(2).is_empty());
        // Different seed offsets decorrelate endpoints.
        assert_ne!(cfg.web_schedule(1), cfg.web_schedule(2));
    }
}
