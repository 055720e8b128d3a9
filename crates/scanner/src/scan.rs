//! Snapshot scanning: §4.1's methodology against a world.

use crate::classify::{EntityClasses, EntityClassifier};
use crate::taxonomy::{
    DomainScan, MxVerdict, PolicyLayer, PolicyLayerError, ScanAttempts, StageAttempts,
};
use dns::RecordType;
use mtasts::{classify_policy_mismatches, evaluate_record_set, MismatchKind, Policy, RecordError};
use netbase::default_scan_threads;
use netbase::{
    map_sharded, AttemptEvent, DetRng, DomainName, RetryPolicy, SimDate, SimInstant, TokenBucket,
};
use simnet::{
    dns_error_is_transient, MxProbeOutcome, PolicyFetchError, PolicyFetchOutcome, TlsFailure, World,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// The scanner's retry discipline, per stage.
///
/// All retry state derives from `seed` and the domain name, so a scan is a
/// pure function of `(world, domain, instant, config)` — which is what
/// lets the supervisor resume an interrupted run byte-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanConfig {
    /// Root seed for backoff jitter.
    pub seed: u64,
    /// Retry policy for DNS lookups (`_mta-sts`, MX, NS).
    pub record_retry: RetryPolicy,
    /// Retry policy for the HTTPS policy fetch.
    pub policy_retry: RetryPolicy,
    /// Retry policy for each SMTP MX probe.
    pub mx_retry: RetryPolicy,
}

impl ScanConfig {
    /// The seed scanner's behaviour: one attempt everywhere.
    pub fn single_shot() -> ScanConfig {
        ScanConfig {
            seed: 0,
            record_retry: RetryPolicy::single_shot(),
            policy_retry: RetryPolicy::single_shot(),
            mx_retry: RetryPolicy::single_shot(),
        }
    }

    /// A production-shaped discipline: up to `attempts` tries per stage.
    pub fn resilient(seed: u64, attempts: u32) -> ScanConfig {
        ScanConfig {
            seed,
            record_retry: RetryPolicy::resilient(attempts),
            policy_retry: RetryPolicy::resilient(attempts),
            mx_retry: RetryPolicy::resilient(attempts),
        }
    }
}

impl Default for ScanConfig {
    /// Resilient with 4 attempts. On a fault-free world this is
    /// indistinguishable from [`ScanConfig::single_shot`] except for the
    /// attempt accounting: persistent errors stop after one try, and
    /// static faults that *look* transient (a permanently dropped port)
    /// exhaust their retries into the same classification.
    fn default() -> ScanConfig {
        ScanConfig::resilient(0, 4)
    }
}

/// One full-component snapshot: scans + classification context.
pub struct Snapshot {
    /// The snapshot date, and so the date of every scan it holds.
    pub date: SimDate,
    /// Per-domain results, in input order. A scan the rescan cache
    /// reused is the same allocation as the previous snapshot's.
    pub scans: Vec<Arc<DomainScan>>,
    /// Each domain's managing entities, parallel to `scans`.
    pub(crate) classes: Vec<EntityClasses>,
    /// Domain → index into `scans`, built lazily on the first
    /// [`Snapshot::scan_of`] — analyses probe tens of thousands of
    /// domains per snapshot, and a linear search per lookup is O(n²).
    index: OnceLock<HashMap<DomainName, usize>>,
}

impl Snapshot {
    /// Assembles a snapshot from scan results and classifies every domain
    /// from scratch with a classifier built over them. The classes are a
    /// pure function of the scans: the monthly campaign, which carries
    /// its classifier across dates and re-classifies only what changed,
    /// must reproduce them, and its tests check it against this.
    pub fn assemble(date: SimDate, scans: Vec<Arc<DomainScan>>) -> Snapshot {
        let classifier = EntityClassifier::from_scans(&scans);
        let classes = scans.iter().map(|scan| classifier.classify(scan)).collect();
        Snapshot::classified(date, scans, classes)
    }

    /// A snapshot whose classes, parallel to `scans`, the caller computed.
    pub(crate) fn classified(
        date: SimDate,
        scans: Vec<Arc<DomainScan>>,
        classes: Vec<EntityClasses>,
    ) -> Snapshot {
        debug_assert_eq!(scans.len(), classes.len());
        Snapshot {
            date,
            scans,
            classes,
            index: OnceLock::new(),
        }
    }

    /// Looks up a domain's scan.
    pub fn scan_of(&self, domain: &DomainName) -> Option<&DomainScan> {
        let index = self.index.get_or_init(|| {
            self.scans
                .iter()
                .enumerate()
                .map(|(i, s)| (s.domain.clone(), i))
                .collect()
        });
        index.get(domain).map(|&i| &*self.scans[i])
    }

    /// Number of domains scanned.
    pub fn len(&self) -> usize {
        self.scans.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.scans.is_empty()
    }
}

/// Maps a fetch error to the layered taxonomy record.
fn layer_error(error: &PolicyFetchError) -> PolicyLayerError {
    let cert_error = match error {
        PolicyFetchError::Tls(TlsFailure::Cert(e)) => Some(e.clone()),
        _ => None,
    };
    PolicyLayerError {
        layer: PolicyLayer::of(error),
        detail: error.to_string(),
        cert_error,
    }
}

/// The record stage's output: the `_mta-sts` TXT evaluation.
struct RecordStage {
    pub record: Result<String, RecordError>,
    pub attempts: StageAttempts,
}

/// The policy stage's output: the HTTPS fetch ladder's result plus the
/// CNAME delegation evidence.
struct PolicyStage {
    pub policy: Result<Policy, PolicyLayerError>,
    pub cname: Vec<DomainName>,
    pub attempts: StageAttempts,
}

/// The MX stage's output: records, NS evidence, and per-host probes.
struct MxStage {
    pub mx_records: Vec<DomainName>,
    pub ns_records: Vec<DomainName>,
    pub mx_verdicts: Vec<MxVerdict>,
    pub attempts: StageAttempts,
}

/// Telemetry for one retry attempt (a side channel only: counters read
/// nothing back). Recovered transients, failed attempts, retries and
/// real backoff sleeps each get a counter, matching the taxonomy's
/// retry vocabulary.
fn note_attempt(ev: AttemptEvent) {
    match ev {
        AttemptEvent::Success { attempt } => {
            if attempt > 1 {
                obsv::counter!("scan_recovered_transients_total");
            }
        }
        AttemptEvent::Failure { backoff, .. } => {
            obsv::counter!("scan_failed_attempts_total");
            if let Some(delay) = backoff {
                obsv::counter!("scan_retries_total");
                if delay > netbase::Duration::ZERO {
                    obsv::counter!("scan_backoff_sleeps_total");
                }
            }
        }
    }
}

/// An attempt observer that accumulates the stage's taxonomy accounting
/// (total attempts; whether a transient recovered) and emits the retry
/// telemetry. This is the migration target for the per-call-site
/// `RetryOutcome.attempts` bookkeeping: stages hand this to
/// [`RetryPolicy::run_observed`] instead of reading outcome fields back.
fn tally(acc: &mut StageAttempts) -> impl FnMut(AttemptEvent) + '_ {
    move |ev| {
        acc.attempts += 1;
        if let AttemptEvent::Success { attempt } = ev {
            if attempt > 1 {
                acc.recovered = true;
            }
        }
        note_attempt(ev);
    }
}

/// Stage 1: the `_mta-sts` record, retrying SERVFAIL/timeout shapes.
fn record_stage(
    world: &World,
    domain: &DomainName,
    now: SimInstant,
    config: &ScanConfig,
    rng: &DetRng,
) -> RecordStage {
    let mut span = obsv::span!("scan.record");
    let mut attempts = StageAttempts::default();
    let record_out = config.record_retry.run_observed(
        rng,
        "record",
        now,
        dns_error_is_transient,
        |at, _| world.mta_sts_txts(domain, at),
        tally(&mut attempts),
    );
    span.set_sim_secs(record_out.finished_at.since(now).as_secs());
    RecordStage {
        attempts,
        record: match record_out.result {
            Ok(txts) => evaluate_record_set(&txts).map(|r| r.id),
            Err(_) => Err(RecordError::NoRecord),
        },
    }
}

/// Stage 2: policy retrieval over HTTPS (full §4.3.3 ladder). The whole
/// outcome travels through the retry loop so delegation evidence from
/// the final attempt is preserved either way.
// The policy-retry closure's Err carries the whole fetch outcome on
// purpose — delegation evidence from the final attempt must survive.
#[allow(clippy::result_large_err)]
fn policy_stage(
    world: &World,
    domain: &DomainName,
    now: SimInstant,
    config: &ScanConfig,
    rng: &DetRng,
) -> PolicyStage {
    let mut span = obsv::span!("scan.policy");
    let mut attempts = StageAttempts::default();
    let policy_out = config.policy_retry.run_observed(
        rng,
        "policy",
        now,
        |o: &PolicyFetchOutcome| {
            o.result
                .as_ref()
                .err()
                .is_some_and(PolicyFetchError::is_transient)
        },
        |at, _| {
            let outcome = world.fetch_policy(domain, at);
            if outcome.result.is_ok() {
                Ok(outcome)
            } else {
                Err(outcome)
            }
        },
        tally(&mut attempts),
    );
    span.set_sim_secs(policy_out.finished_at.since(now).as_secs());
    let fetch = match policy_out.result {
        Ok(outcome) | Err(outcome) => outcome,
    };
    PolicyStage {
        policy: match &fetch.result {
            Ok((policy, _raw)) => Ok(policy.clone()),
            Err(e) => Err(layer_error(e)),
        },
        cname: fetch.cname_chain,
        attempts,
    }
}

/// Stage 3: MX records and the instrumented SMTP probe (NS records are
/// collected alongside, §3.1). The MX-record lookup and every per-host
/// probe count toward the MX stage's attempt budget; a probe that still
/// tempfails after its last retry is kept with `chain: None`, excluding
/// the host from certificate analysis rather than miscounting it.
fn mx_stage(
    world: &World,
    domain: &DomainName,
    now: SimInstant,
    config: &ScanConfig,
    rng: &DetRng,
) -> MxStage {
    let mut span = obsv::span!("scan.mx");
    let mut attempts = StageAttempts::default();
    let mx_out = config.record_retry.run_observed(
        rng,
        "mx-records",
        now,
        dns_error_is_transient,
        |at, _| world.mx_records(domain, at),
        tally(&mut attempts),
    );
    let mx_records = mx_out.result.unwrap_or_default();
    // NS evidence rides along for classification but has never counted
    // toward the MX stage's attempt budget; telemetry still sees it.
    let ns_out = config.record_retry.run_observed(
        rng,
        "ns-records",
        now,
        dns_error_is_transient,
        |at, _| world.resolve(domain, RecordType::Ns, at),
        note_attempt,
    );
    let ns_records: Vec<DomainName> = ns_out
        .result
        .map(|l| {
            l.records
                .iter()
                .filter_map(|r| match &r.data {
                    dns::RecordData::Ns(t) => Some(t.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let mut sim_end = mx_out.finished_at;
    let mx_verdicts: Vec<MxVerdict> = mx_records
        .iter()
        .map(|host| {
            let mut probe_span = obsv::span!("scan.probe");
            let probe_out = config.mx_retry.run_observed(
                rng,
                &format!("mx/{host}"),
                now,
                MxProbeOutcome::is_transient_failure,
                |at, _| {
                    let probe = world.probe_mx(host, None, at);
                    if probe.is_transient_failure() {
                        Err(probe)
                    } else {
                        Ok(probe)
                    }
                },
                tally(&mut attempts),
            );
            probe_span.set_sim_secs(probe_out.finished_at.since(now).as_secs());
            if probe_out.finished_at > sim_end {
                sim_end = probe_out.finished_at;
            }
            let probe = match probe_out.result {
                Ok(p) | Err(p) => p,
            };
            let cert = probe.cert_verdict(host, now, world.pki.trust_store());
            MxVerdict {
                host: host.clone(),
                reachable: probe.reachable,
                starttls: probe.starttls_offered,
                cert,
            }
        })
        .collect();
    span.set_sim_secs(sim_end.since(now).as_secs());
    MxStage {
        mx_records,
        ns_records,
        mx_verdicts,
        attempts,
    }
}

/// Stage 4: consistency between mx patterns and MX records (§4.4), a
/// pure function of the policy- and MX-stage outputs.
fn consistency_mismatches(
    policy: &Result<Policy, PolicyLayerError>,
    mx_records: &[DomainName],
) -> Vec<(String, MismatchKind)> {
    match policy {
        Ok(p) if !mx_records.is_empty() => classify_policy_mismatches(p, mx_records)
            .into_iter()
            .map(|(pattern, kind)| (pattern.to_string(), kind))
            .collect(),
        _ => Vec::new(),
    }
}

/// Stage 5: the policy host's address, classification evidence, with
/// transient DNS failures retried so flaky resolution does not degrade
/// clustering. It counts toward no stage's attempt budget; telemetry
/// still sees its attempts.
fn policy_ip_stage(
    world: &World,
    domain: &DomainName,
    now: SimInstant,
    config: &ScanConfig,
    rng: &DetRng,
) -> Option<Ipv4Addr> {
    let policy_host = domain.prefixed(mtasts::POLICY_HOST_LABEL).ok()?;
    let mut span = obsv::span!("scan.policy_ip");
    let out = config.record_retry.run_observed(
        rng,
        "policy-ip",
        now,
        dns_error_is_transient,
        |at, _| world.resolve(&policy_host, RecordType::A, at),
        note_attempt,
    );
    span.set_sim_secs(out.finished_at.since(now).as_secs());
    out.result.ok()?.a_addrs().first().copied()
}

/// Scans one domain end to end (§4.1: record, policy over HTTPS,
/// instrumented SMTP probe of every MX, consistency check, and the
/// policy host's address), retrying transient failures per `config`
/// before anything reaches the taxonomy.
///
/// `now` is the instant the rate limiter admitted this domain — every
/// per-second fault and attack draw keys off it, so a throttled campaign
/// really does sweep across the simulated day instead of replaying
/// midnight for every domain. Unthrottled callers pass
/// `date.at_midnight()`.
///
/// Classification only ever sees the *final* attempt of each stage, so a
/// failure that a retry recovered never inflates the misconfiguration
/// statistics; the attempt counts land in [`DomainScan::attempts`].
pub fn scan_domain(
    world: &World,
    domain: &DomainName,
    now: SimInstant,
    config: &ScanConfig,
) -> DomainScan {
    let domain_start = obsv::enabled().then(std::time::Instant::now);
    // Every stage forks its own retry scope off this one per-domain RNG,
    // so no stage's draws depend on another's.
    let rng = DetRng::new(config.seed).fork(&domain.to_string());
    let record = record_stage(world, domain, now, config, &rng);
    let policy = policy_stage(world, domain, now, config, &rng);
    let mx = mx_stage(world, domain, now, config, &rng);
    let mismatches = consistency_mismatches(&policy.policy, &mx.mx_records);
    let policy_ip = policy_ip_stage(world, domain, now, config, &rng);
    if let Some(started) = domain_start {
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        obsv::histogram!("scan_domain_real_us", micros);
    }
    DomainScan {
        domain: domain.clone(),
        record: record.record,
        policy: policy.policy,
        policy_cname: policy.cname,
        policy_ip,
        mx_records: mx.mx_records,
        ns_records: mx.ns_records,
        mx_verdicts: mx.mx_verdicts,
        mismatches,
        attempts: ScanAttempts {
            record: record.attempts,
            policy: policy.attempts,
            mx: mx.attempts,
        },
    }
}

/// Plans each domain's admitted instant: the whole throttled timeline is
/// derived from one logical bucket up front, so it is the same for every
/// thread count (the parallel engine's per-shard clock slices this plan).
/// Unthrottled scans run the entire population at midnight, as before.
fn plan_admissions(date: SimDate, rate: Option<&mut TokenBucket>, n: usize) -> Vec<SimInstant> {
    let midnight = date.at_midnight();
    match rate {
        Some(bucket) => bucket.plan_admissions(midnight, n),
        None => vec![midnight; n],
    }
}

/// Scans a set of domains, optionally rate-limited (§3.1's ethics:
/// the simulated clock advances while the bucket throttles), across the
/// default thread count (`SCAN_THREADS` or the machine's parallelism).
pub fn scan_snapshot(
    world: &World,
    domains: &[DomainName],
    date: SimDate,
    rate: Option<&mut TokenBucket>,
    config: &ScanConfig,
) -> Snapshot {
    scan_snapshot_with_threads(world, domains, date, rate, config, default_scan_threads())
}

/// [`scan_snapshot`] with an explicit thread count. The output is
/// byte-identical for every `threads` value (see `parallel` module docs
/// for the argument); `threads <= 1` is the sequential engine.
pub fn scan_snapshot_with_threads(
    world: &World,
    domains: &[DomainName],
    date: SimDate,
    rate: Option<&mut TokenBucket>,
    config: &ScanConfig,
    threads: usize,
) -> Snapshot {
    let admissions = plan_admissions(date, rate, domains.len());
    let scans = map_sharded(threads, domains, |i, domain| {
        Arc::new(scan_domain(world, domain, admissions[i], config))
    });
    Snapshot::assemble(date, scans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::EntityClass;
    use crate::taxonomy::MisconfigCategory;
    use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
    use netbase::SimInstant;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::paper(42, 0.02))
    }

    #[test]
    fn snapshot_scan_matches_ground_truth() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
        let snapshot = scan_snapshot(&world, &domains, date, None, &ScanConfig::default());
        assert_eq!(snapshot.len(), domains.len());

        // Ground truth from the spec vs measured categories.
        let mut agreed = 0;
        for spec in eco.domains_at(date) {
            let scan = snapshot.scan_of(&spec.name).unwrap();
            // Record faults are detected exactly.
            assert_eq!(
                scan.record.is_err(),
                spec.faults.record.is_some(),
                "{}: record",
                spec.name
            );
            // Policy faults: a fault is injected iff retrieval fails.
            let injected = eco.effective_policy_fault(spec, date).is_some();
            assert_eq!(
                scan.policy.is_err(),
                injected,
                "{}: policy (fault {:?}, got {:?})",
                spec.name,
                eco.effective_policy_fault(spec, date),
                scan.policy.as_ref().err()
            );
            agreed += 1;
        }
        assert!(agreed > 100);
    }

    #[test]
    fn misconfiguration_rate_matches_paper_shape() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
        let snapshot = scan_snapshot(&world, &domains, date, None, &ScanConfig::default());
        let misconfigured = snapshot
            .scans
            .iter()
            .filter(|s| s.is_misconfigured())
            .count() as f64;
        let share = misconfigured / snapshot.len() as f64;
        // Paper: 29.6% at the latest snapshot.
        assert!((0.22..0.38).contains(&share), "misconfigured share {share}");
        // Policy retrieval dominates (70-85% of errors, §4.6).
        let policy_errors = snapshot
            .scans
            .iter()
            .filter(|s| s.categories().contains(&MisconfigCategory::PolicyRetrieval))
            .count() as f64;
        assert!(
            policy_errors / misconfigured > 0.6,
            "policy share of errors {}",
            policy_errors / misconfigured
        );
    }

    #[test]
    fn classification_recovers_hosting_arrangements() {
        // Needs a scale where provider thresholds hold.
        let eco = Ecosystem::generate(EcosystemConfig::paper(11, 0.25));
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
        let snapshot = scan_snapshot(&world, &domains, date, None, &ScanConfig::default());
        let classes: HashMap<&DomainName, EntityClasses> = snapshot
            .scans
            .iter()
            .map(|scan| &scan.domain)
            .zip(snapshot.classes.iter().copied())
            .collect();

        let mut policy_ok = 0usize;
        let mut policy_total = 0usize;
        let mut mx_ok = 0usize;
        let mut mx_total = 0usize;
        for spec in eco.domains_at(date) {
            let EntityClasses {
                mail: got_mx,
                policy: got_policy,
            } = classes[&spec.name];
            let want_policy = match &spec.policy {
                ecosystem::PolicyHosting::SelfManaged
                | ecosystem::PolicyHosting::Porkbun
                | ecosystem::PolicyHosting::Mxascen => EntityClass::SelfManaged,
                ecosystem::PolicyHosting::Provider { .. }
                | ecosystem::PolicyHosting::MiscProvider { .. } => EntityClass::ThirdParty,
                ecosystem::PolicyHosting::SmallProvider { .. } => EntityClass::Unclassified,
            };
            policy_total += 1;
            if got_policy == want_policy {
                policy_ok += 1;
            }
            let want_mx = match &spec.mail {
                ecosystem::MailHosting::SelfManaged { .. } | ecosystem::MailHosting::Mxascen => {
                    EntityClass::SelfManaged
                }
                // The registrar parking fleet (all parked domains share the
                // forwarding MX *and* the parking policy IP) is grouped as a
                // single administrator by design — the paper's Porkbun
                // domains land in the self-managed series.
                ecosystem::MailHosting::Provider { key } if *key == "parkmail" => {
                    EntityClass::SelfManaged
                }
                ecosystem::MailHosting::Provider { .. } => EntityClass::ThirdParty,
                ecosystem::MailHosting::SmallProvider { .. } => EntityClass::Unclassified,
            };
            mx_total += 1;
            if got_mx == want_mx {
                mx_ok += 1;
            }
        }
        // DNS hosting: self-managed iff the NS shares the domain's eSLD.
        // No figure reads it, so the snapshot does not keep it.
        let classifier = EntityClassifier::from_scans(&snapshot.scans);
        let mut dns_ok = 0usize;
        let mut dns_total = 0usize;
        for spec in eco.domains_at(date) {
            let scan = snapshot.scan_of(&spec.name).unwrap();
            let got = classifier.classify_dns(&spec.name, &scan.ns_records);
            if spec.dns_self_hosted {
                dns_total += 1;
                if got == EntityClass::SelfManaged {
                    dns_ok += 1;
                }
            }
        }
        assert!(
            dns_total > 100 && dns_ok == dns_total,
            "dns classification {dns_ok}/{dns_total}"
        );

        // The heuristics are approximations by design; they should still
        // recover the vast majority of arrangements.
        assert!(
            policy_ok as f64 / policy_total as f64 > 0.9,
            "policy classification accuracy {policy_ok}/{policy_total}"
        );
        assert!(
            mx_ok as f64 / mx_total as f64 > 0.85,
            "mx classification accuracy {mx_ok}/{mx_total}"
        );
    }

    #[test]
    fn layer_error_maps_every_fetch_error_shape() {
        use crate::taxonomy::PolicyLayer;
        use mtasts::PolicyError;
        use pkix::CertError;
        use simnet::TlsFailure;

        // Non-TLS layers never carry a certificate error.
        let cases = [
            (
                PolicyFetchError::Dns("no A records".into()),
                PolicyLayer::Dns,
            ),
            (PolicyFetchError::Tcp("refused".into()), PolicyLayer::Tcp),
            (PolicyFetchError::Http(404), PolicyLayer::Http),
            (PolicyFetchError::Http(503), PolicyLayer::Http),
            (
                PolicyFetchError::Syntax(PolicyError::EmptyDocument),
                PolicyLayer::Syntax,
            ),
            (
                PolicyFetchError::Syntax(PolicyError::InvalidMxPattern {
                    pattern: "*.*.a".into(),
                    why: "nested wildcard".into(),
                }),
                PolicyLayer::Syntax,
            ),
            (
                PolicyFetchError::Tls(TlsFailure::Handshake("alert".into())),
                PolicyLayer::Tls,
            ),
        ];
        for (error, want_layer) in cases {
            let mapped = layer_error(&error);
            assert_eq!(mapped.layer, want_layer, "{error:?}");
            assert_eq!(mapped.cert_error, None, "{error:?}");
            assert_eq!(mapped.detail, error.to_string());
        }

        // TLS certificate failures: every variant surfaces its cert error.
        let cert_errors = vec![
            CertError::NoCertificate,
            CertError::Expired,
            CertError::NotYetValid,
            CertError::SelfSigned,
            CertError::UnknownIssuer,
            CertError::BadSignature,
            CertError::NotACa,
            CertError::IntermediateExpired,
            CertError::NameMismatch {
                wanted: "mta-sts.a.com".parse().unwrap(),
                presented: vec!["shared.host.net".into()],
            },
            CertError::BrokenChain,
        ];
        for cert in cert_errors {
            let error = PolicyFetchError::Tls(TlsFailure::Cert(cert.clone()));
            let mapped = layer_error(&error);
            assert_eq!(mapped.layer, PolicyLayer::Tls, "{cert:?}");
            assert_eq!(mapped.cert_error, Some(cert.clone()), "{cert:?}");
            assert_eq!(mapped.detail, error.to_string());
        }
    }

    #[test]
    fn throttled_scan_sees_midday_fault_windows() {
        // Regression: `scan_snapshot` used to advance `now` through the
        // bucket but then scan every domain at `date.at_midnight()`, so
        // time-windowed faults could never hit a throttled campaign. With
        // the admitted instant threaded through, a DNS outage window must
        // hit exactly the domains the rate limiter schedules inside it.
        use simnet::{FaultKind, FaultSchedule};

        let mut world = World::new();
        let apex: DomainName = "example.com".parse().unwrap();
        world.ensure_zone(&apex);
        let domains: Vec<DomainName> = (0..25)
            .map(|i| format!("d{i}.example.com").parse().unwrap())
            .collect();
        world.with_zone(&apex, |z| {
            for d in &domains {
                z.add_rr(
                    &d.prefixed(mtasts::RECORD_LABEL).unwrap(),
                    300,
                    dns::RecordData::Txt(vec!["v=STSv1; id=20240601;".into()]),
                );
            }
        });

        let date = SimDate::ymd(2024, 6, 1);
        let t0 = date.at_midnight();
        // Outage: DNS drops everything for 10 s starting 5 s into the
        // scan. At 1 domain/s (burst 1), domain i is admitted at t0 + i.
        world.set_dns_faults(FaultSchedule::new(0).with_window(
            FaultKind::DnsDrop,
            t0 + netbase::Duration::seconds(5),
            t0 + netbase::Duration::seconds(15),
        ));

        let mut bucket = TokenBucket::new(1.0, 1, t0);
        let snapshot = scan_snapshot(
            &world,
            &domains,
            date,
            Some(&mut bucket),
            &ScanConfig::single_shot(),
        );
        for (i, scan) in snapshot.scans.iter().enumerate() {
            let in_window = (5..15).contains(&i);
            assert_eq!(
                scan.record.is_err(),
                in_window,
                "domain {i} admitted at t0+{i}s: record {:?}",
                scan.record
            );
        }

        // The unthrottled scan runs entirely at midnight and never
        // enters the window — the pre-fix behaviour, still correct for
        // rate-unlimited callers.
        let unthrottled = scan_snapshot(&world, &domains, date, None, &ScanConfig::single_shot());
        assert!(unthrottled.scans.iter().all(|s| s.record.is_ok()));
    }

    #[test]
    fn parallel_snapshot_is_byte_identical_to_sequential() {
        // The determinism contract of the parallel engine, on a faulted,
        // rate-limited world: thread counts 1, 2 and 8 must produce the
        // same bytes (scan order, policy IPs, attempt accounting).
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let mut world = eco.world_at(date, SnapshotDetail::Full);
        world.inject_transient_faults(&simnet::TransientFaultConfig::uniform(7, 0.05));
        let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();

        let digest = |threads: usize| {
            let mut bucket = TokenBucket::new(50.0, 10, date.at_midnight());
            let snap = crate::scan::scan_snapshot_with_threads(
                &world,
                &domains,
                date,
                Some(&mut bucket),
                &ScanConfig::default(),
                threads,
            );
            serde_json::to_string(&snap.scans).unwrap()
        };

        let sequential = digest(1);
        for threads in [2usize, 8] {
            assert_eq!(
                sequential,
                digest(threads),
                "parallel scan diverges at {threads} threads"
            );
        }
    }

    #[test]
    fn rate_limited_scan_advances_time() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let domains: Vec<DomainName> = eco
            .domains_at(date)
            .take(30)
            .map(|d| d.name.clone())
            .collect();
        let mut bucket = TokenBucket::new(10.0, 1, date.at_midnight());
        let t0 = SimInstant::from_unix_secs(date.at_midnight().unix_secs());
        let snapshot = scan_snapshot(
            &world,
            &domains,
            date,
            Some(&mut bucket),
            &ScanConfig::default(),
        );
        assert_eq!(snapshot.len(), 30);
        // The bucket forced simulated time forward.
        let after = bucket.acquire_at(t0);
        assert!(after > t0);
    }
}
