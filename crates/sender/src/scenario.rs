//! Degraded-MX scenario builder: the shared worlds the delivery
//! pipeline's chaos matrix runs over.
//!
//! One builder feeds the unit/determinism tests, the live-wire parity
//! test, `exp_delivery`, and the `outbound_pipeline` example, so every
//! consumer exercises *the same* degradations: a hard-down MX, a
//! flapping MX, a whole-preference-tier outage, and probabilistic
//! greylisting. Every populated domain gets the same topology — two
//! preference-10 exchanges and one preference-20 backup — because the
//! matrix is about *failure shape*, not topology variety.
//!
//! Fault-schedule degradations ([`Degradation::FlappingMx`],
//! [`Degradation::Greylist`]) act on the fast path only (the wire
//! deployment serves static behaviour); reachability degradations
//! ([`Degradation::OneMxDown`], [`Degradation::TierOutage`]) translate
//! to both paths, which is what makes the wire-parity test honest.

use crate::pipeline::QueuedMessage;
use dns::RecordData;
use mtasts::Mode;
use netbase::{DomainName, SimInstant};
use simnet::{
    AttackKind, AttackSchedule, FaultKind, FaultSchedule, MxEndpoint, Reachability, WebEndpoint,
    World,
};

/// Which failure shape the scenario injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Degradation {
    /// Healthy baseline: every MX up.
    None,
    /// The first preference-10 exchange of every domain is hard-down
    /// (connection refused) for the whole run.
    OneMxDown,
    /// The first preference-10 exchange of every domain flaps: `cycles`
    /// alternations of `down_secs` dead / `up_secs` alive, starting at
    /// the scenario epoch.
    FlappingMx {
        /// Seconds down per cycle.
        down_secs: i64,
        /// Seconds up per cycle.
        up_secs: i64,
        /// Number of down-phases.
        cycles: u32,
    },
    /// The entire preference-10 tier is hard-down; only the backup
    /// exchange carries mail.
    TierOutage,
    /// Every exchange greylists with this per-draw probability.
    Greylist {
        /// 0.0–1.0 chance a session is deferred with a 450.
        rate: f64,
    },
    /// An on-path attacker strips STARTTLS from every MX session during
    /// `[epoch + delay, epoch + delay + duration)` — the downgrade
    /// MTA-STS exists to stop (§2.4).
    StartTlsStrip {
        /// Seconds after the epoch the window opens.
        delay_secs: i64,
        /// Window length in seconds.
        duration_secs: i64,
    },
    /// Forged MX answers redirect every domain's mail to the attacker's
    /// preference-0 relay (`mx.attacker.example`, plaintext) during the
    /// window — the `MxNotListed` case RFC 8461 §4.1 catches.
    MxRedirect {
        /// Seconds after the epoch the window opens.
        delay_secs: i64,
        /// Window length in seconds.
        duration_secs: i64,
    },
    /// Every policy host is TCP-dark during the window: HTTPS fetches
    /// fail, and only the TOFU cache (with §3.3 stale fallback) can
    /// keep enforcement alive.
    PolicyHostOutage {
        /// Seconds after the epoch the window opens.
        delay_secs: i64,
        /// Window length in seconds.
        duration_secs: i64,
    },
}

impl Degradation {
    /// Short machine name, used as the bench scenario key.
    pub fn key(&self) -> &'static str {
        match self {
            Degradation::None => "baseline",
            Degradation::OneMxDown => "one_mx_down",
            Degradation::FlappingMx { .. } => "flapping_mx",
            Degradation::TierOutage => "tier_outage",
            Degradation::Greylist { .. } => "greylist",
            Degradation::StartTlsStrip { .. } => "starttls_strip",
            Degradation::MxRedirect { .. } => "mx_redirect",
            Degradation::PolicyHostOutage { .. } => "policy_outage",
        }
    }

    /// Whether the degradation is expressed purely through endpoint
    /// reachability (and therefore reproduces on the wire deployment,
    /// which does not serve fault schedules or attack windows).
    pub fn wire_faithful(&self) -> bool {
        matches!(
            self,
            Degradation::None | Degradation::OneMxDown | Degradation::TierOutage
        )
    }
}

/// Whether (and how) the scenario domains deploy MTA-STS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StsDeployment {
    /// No MTA-STS anywhere; plaintext MXes (the pre-enforcement worlds).
    None,
    /// Every domain publishes a policy in `mode`: STARTTLS-capable MXes
    /// with valid chains, a `_mta-sts` TXT record, and a policy host
    /// serving a document listing all three exchanges explicitly.
    Published {
        /// The policy mode every domain publishes.
        mode: Mode,
        /// The policy `max_age` in seconds.
        max_age: u64,
    },
}

impl StsDeployment {
    /// Short machine name, used as the bench scenario key suffix.
    pub fn key(&self) -> &'static str {
        match self {
            StsDeployment::None => "nosts",
            StsDeployment::Published { mode, .. } => match mode {
                Mode::Enforce => "enforce",
                Mode::Testing => "testing",
                Mode::None => "mode_none",
            },
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Seed for the world's fault schedules.
    pub seed: u64,
    /// Populated recipient domains (`d0.test` … `d{n-1}.test`).
    pub domains: usize,
    /// Messages queued per domain.
    pub messages_per_domain: usize,
    /// The injected failure shape.
    pub degradation: Degradation,
    /// MTA-STS deployment shape across the recipient domains.
    pub sts: StsDeployment,
    /// When the scenario's clock starts (flapping windows anchor here).
    pub epoch: SimInstant,
}

impl ScenarioSpec {
    /// A small scenario with the given degradation (tests, example).
    pub fn small(seed: u64, degradation: Degradation) -> ScenarioSpec {
        ScenarioSpec {
            seed,
            domains: 4,
            messages_per_domain: 8,
            degradation,
            sts: StsDeployment::None,
            epoch: SimInstant::from_unix_secs(1_717_200_000),
        }
    }

    /// The same scenario with every domain publishing a policy in
    /// `mode` (week-long `max_age`, well within every queue run).
    pub fn with_sts(self, mode: Mode) -> ScenarioSpec {
        ScenarioSpec {
            sts: StsDeployment::Published {
                mode,
                max_age: 604_800,
            },
            ..self
        }
    }
}

/// One recipient domain's deployed topology.
#[derive(Debug, Clone)]
pub struct DomainTopology {
    /// The recipient domain.
    pub domain: DomainName,
    /// Its exchanges as `(preference, host)`, primaries first.
    pub exchanges: Vec<(u16, DomainName)>,
}

/// A built world plus the message load to drain through it.
pub struct Scenario {
    /// The simulated internet with the degradation installed.
    pub world: World,
    /// The queue load, round-robin across domains in submission order.
    pub messages: Vec<QueuedMessage>,
    /// Per-domain topology (asserts and ledger checks).
    pub topologies: Vec<DomainTopology>,
    /// The spec this was built from.
    pub spec: ScenarioSpec,
}

/// MX layout every scenario domain gets: two primaries, one backup.
const MX_LAYOUT: [(&str, u16); 3] = [("mxa", 10), ("mxb", 10), ("mxc", 20)];

/// Builds the world and message load for `spec`.
pub fn build(spec: ScenarioSpec) -> Scenario {
    let mut world = World::new();
    let mut topologies = Vec::with_capacity(spec.domains);
    for i in 0..spec.domains {
        let domain: DomainName = format!("d{i}.test")
            .parse()
            .expect("scenario domain parses");
        world.ensure_zone(&domain);
        let mut exchanges = Vec::new();
        for (slot, (label, preference)) in MX_LAYOUT.iter().enumerate() {
            let host: DomainName = format!("{label}.d{i}.test")
                .parse()
                .expect("scenario host parses");
            let mut endpoint = match spec.sts {
                // Enforcement worlds get STARTTLS-capable exchanges with
                // valid chains — the policy must be satisfiable.
                StsDeployment::Published { .. } => MxEndpoint::healthy(
                    host.clone(),
                    world
                        .pki
                        .issue_valid(std::slice::from_ref(&host), spec.epoch),
                ),
                StsDeployment::None => MxEndpoint::plaintext(host.clone()),
            };
            apply_degradation(&mut endpoint, &spec, slot);
            let ip = world.add_mx_endpoint(endpoint);
            world.with_zone(&domain, |z| {
                z.add_rr(&host, 300, RecordData::A(ip));
                z.add_rr(
                    &domain,
                    300,
                    RecordData::Mx {
                        preference: *preference,
                        exchange: host.clone(),
                    },
                );
            });
            exchanges.push((*preference, host));
        }
        if let StsDeployment::Published { mode, max_age } = spec.sts {
            deploy_sts(&mut world, &spec, i, mode, max_age);
        }
        topologies.push(DomainTopology { domain, exchanges });
    }

    install_attacker(&mut world, &spec);

    // Round-robin submission order spreads each domain's messages across
    // the admission timeline, so time-varying degradations (flapping,
    // greylist windows) bite different messages of the same domain.
    let mut messages = Vec::with_capacity(spec.domains * spec.messages_per_domain);
    let mut seq = 0usize;
    for j in 0..spec.messages_per_domain {
        for i in 0..spec.domains {
            messages.push(QueuedMessage::new(
                &format!("m{seq}"),
                "queue@sender.test",
                &format!("user{j}@d{i}.test"),
                &format!("scenario message {seq}"),
            ));
            seq += 1;
        }
    }

    Scenario {
        world,
        messages,
        topologies,
        spec,
    }
}

/// Publishes domain `i`'s MTA-STS deployment: the `_mta-sts` TXT record
/// and a per-domain policy host serving a document that lists all three
/// exchanges explicitly (no wildcard — the ladder filter must match
/// hosts, not luck). Under [`Degradation::PolicyHostOutage`] the policy
/// host goes TCP-dark for the window, so only the TOFU cache keeps
/// enforcement alive.
fn deploy_sts(world: &mut World, spec: &ScenarioSpec, i: usize, mode: Mode, max_age: u64) {
    let domain: DomainName = format!("d{i}.test").parse().expect("domain parses");
    let policy_host: DomainName = format!("mta-sts.d{i}.test")
        .parse()
        .expect("policy host parses");
    let mut web = WebEndpoint::up();
    web.identity.install(
        policy_host.clone(),
        world
            .pki
            .issue_valid(std::slice::from_ref(&policy_host), spec.epoch),
    );
    let mut body = format!("version: STSv1\r\nmode: {mode}\r\n");
    for (label, _) in MX_LAYOUT {
        body.push_str(&format!("mx: {label}.d{i}.test\r\n"));
    }
    body.push_str(&format!("max_age: {max_age}\r\n"));
    web.install_policy(policy_host.clone(), &body);
    if let Degradation::PolicyHostOutage {
        delay_secs,
        duration_secs,
    } = spec.degradation
    {
        let start = spec.epoch + netbase::Duration::seconds(delay_secs);
        web.faults = FaultSchedule::new(spec.seed).with_window(
            FaultKind::TcpReset,
            start,
            start + netbase::Duration::seconds(duration_secs),
        );
    }
    let web_ip = world.add_web_endpoint(web);
    world.with_zone(&domain, |z| {
        z.add_rr(&policy_host, 300, RecordData::A(web_ip));
        let txt: DomainName = format!("_mta-sts.d{i}.test")
            .parse()
            .expect("txt name parses");
        z.add_rr(
            &txt,
            300,
            RecordData::Txt(vec!["v=STSv1; id=scenario1;".to_string()]),
        );
    });
}

/// Installs the on-path attacker for the window-based degradations and,
/// for [`Degradation::MxRedirect`], deploys the attacker's own relay
/// zone so the forged preference-0 answer actually resolves.
fn install_attacker(world: &mut World, spec: &ScenarioSpec) {
    let (kind, delay_secs, duration_secs) = match spec.degradation {
        Degradation::StartTlsStrip {
            delay_secs,
            duration_secs,
        } => (AttackKind::StartTlsStrip, delay_secs, duration_secs),
        Degradation::MxRedirect {
            delay_secs,
            duration_secs,
        } => (AttackKind::MxRedirect, delay_secs, duration_secs),
        _ => return,
    };
    let start = spec.epoch + netbase::Duration::seconds(delay_secs);
    let schedule = AttackSchedule::new().with_window(
        kind,
        None,
        start,
        start + netbase::Duration::seconds(duration_secs),
    );
    if kind == AttackKind::MxRedirect {
        let relay = schedule.attacker_host().clone();
        let zone: DomainName = "attacker.example".parse().expect("attacker zone parses");
        world.ensure_zone(&zone);
        let ip = world.add_mx_endpoint(MxEndpoint::plaintext(relay.clone()));
        world.with_zone(&zone, |z| z.add_rr(&relay, 300, RecordData::A(ip)));
    }
    world.set_attacker(schedule);
}

fn apply_degradation(endpoint: &mut MxEndpoint, spec: &ScenarioSpec, slot: usize) {
    match spec.degradation {
        Degradation::None => {}
        Degradation::OneMxDown => {
            if slot == 0 {
                endpoint.reachability = Reachability::Refused;
            }
        }
        Degradation::FlappingMx {
            down_secs,
            up_secs,
            cycles,
        } => {
            if slot == 0 {
                endpoint.faults = FaultSchedule::new(spec.seed).with_flapping(
                    FaultKind::TcpReset,
                    spec.epoch,
                    netbase::Duration::seconds(down_secs),
                    netbase::Duration::seconds(up_secs),
                    cycles,
                );
            }
        }
        Degradation::TierOutage => {
            if slot <= 1 {
                endpoint.reachability = Reachability::Refused;
            }
        }
        Degradation::Greylist { rate } => {
            endpoint.faults =
                FaultSchedule::new(spec.seed).with_rate(FaultKind::SmtpGreylist, rate);
        }
        // Attacker-window degradations leave the legitimate exchanges
        // untouched: the strip and redirect live on the path (the
        // attacker schedule), the outage lives on the policy host.
        Degradation::StartTlsStrip { .. }
        | Degradation::MxRedirect { .. }
        | Degradation::PolicyHostOutage { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_topology_and_load() {
        let s = build(ScenarioSpec::small(7, Degradation::None));
        assert_eq!(s.topologies.len(), 4);
        assert_eq!(s.messages.len(), 32);
        // MX records resolve with both tiers present.
        let recs = s
            .world
            .mx_records_with_pref(&s.topologies[0].domain, s.spec.epoch)
            .unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.iter().filter(|(p, _)| *p == 10).count(), 2);
        assert_eq!(recs.iter().filter(|(p, _)| *p == 20).count(), 1);
    }

    #[test]
    fn sts_deployment_publishes_fetchable_policies() {
        let s = build(ScenarioSpec::small(7, Degradation::None).with_sts(Mode::Enforce));
        let d = &s.topologies[0].domain;
        let txts = s.world.mta_sts_txts(d, s.spec.epoch).unwrap();
        assert_eq!(txts.len(), 1, "one _mta-sts TXT record: {txts:?}");
        let (policy, _raw) = s.world.fetch_policy(d, s.spec.epoch).result.unwrap();
        assert_eq!(policy.mode, Mode::Enforce);
        // Every published exchange is listed in the policy.
        for (_, host) in &s.topologies[0].exchanges {
            assert!(
                mtasts::mx_matches_policy(host, &policy),
                "{host} missing from policy"
            );
        }
    }

    #[test]
    fn mx_redirect_deploys_a_resolvable_attacker_relay() {
        let s = build(
            ScenarioSpec::small(
                7,
                Degradation::MxRedirect {
                    delay_secs: 300,
                    duration_secs: 600,
                },
            )
            .with_sts(Mode::Enforce),
        );
        let inside = s.spec.epoch + netbase::Duration::seconds(400);
        let recs = s
            .world
            .mx_records_with_pref(&s.topologies[0].domain, inside)
            .unwrap();
        assert_eq!(recs.len(), 1, "forged answer replaces the real set");
        assert_eq!(recs[0].0, 0);
        let relay = recs[0].1.clone();
        assert!(
            s.world.resolve(&relay, dns::RecordType::A, inside).is_ok(),
            "attacker relay must resolve"
        );
        // Outside the window the legitimate ladder is back.
        let after = s.spec.epoch + netbase::Duration::seconds(2_000);
        assert_eq!(
            s.world
                .mx_records_with_pref(&s.topologies[0].domain, after)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn one_mx_down_kills_exactly_the_first_primary() {
        let s = build(ScenarioSpec::small(7, Degradation::OneMxDown));
        let down: Vec<bool> = s.topologies[0]
            .exchanges
            .iter()
            .map(|(_, host)| {
                let ip = s
                    .world
                    .resolve(host, dns::RecordType::A, s.spec.epoch)
                    .unwrap()
                    .a_addrs()[0];
                s.world.mx_endpoint(ip).unwrap().reachability != Reachability::Up
            })
            .collect();
        assert_eq!(down, vec![true, false, false]);
    }
}
