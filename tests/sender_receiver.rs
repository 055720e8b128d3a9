//! Cross-validation of the scanner's delivery-failure predictions against
//! the actual sender engine: every domain the scanner flags as "will fail
//! delivery from MTA-STS compliant senders" must indeed be refused by the
//! real [`mtasts::SenderEngine`], and healthy domains must be delivered.

use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
use mtasts::{DeliveryObservation, SenderAction, SenderEngine};
use netbase::{DomainName, SimDate, SimInstant};
use scanner::scan_snapshot;
use sender::TlsRequirement;
use simnet::World;

/// Runs a full MTA-STS-validating delivery against the world, returning
/// the action for the best (first) MX.
fn deliver(world: &World, domain: &DomainName, now: SimInstant) -> SenderAction {
    let mut engine = SenderEngine::new();
    let record_txts = world.mta_sts_txts(domain, now).ok();
    let mx_records = world.mx_records(domain, now).unwrap_or_default();
    let Some(mx) = mx_records.first().cloned() else {
        return SenderAction::DeliverUnvalidated;
    };
    let probe = world.probe_mx(&mx, None, now);
    let (_, action) = engine.evaluate(DeliveryObservation {
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
    action
}

#[test]
fn scanner_predictions_match_sender_engine() {
    let eco = Ecosystem::generate(EcosystemConfig::paper(5, 0.02));
    let date = SimDate::ymd(2024, 9, 29);
    let now = date.at_midnight();
    let world = eco.world_at(date, SnapshotDetail::Full);
    let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
    let snapshot = scan_snapshot(
        &world,
        &domains,
        date,
        None,
        &scanner::ScanConfig::default(),
    );

    let mut predicted_failures = 0;
    let mut engine_refusals = 0;
    let mut healthy_checked = 0;
    for scan in &snapshot.scans {
        if scan.delivery_failure_predicted() {
            predicted_failures += 1;
            // The real sender must refuse: mode is enforce and either no
            // pattern matches or every MX cert is invalid. The first MX is
            // what `deliver` tries; for no-pattern-match cases it refuses
            // on matching, for all-invalid on the certificate.
            let action = deliver(&world, &scan.domain, now);
            assert_eq!(
                action,
                SenderAction::Refuse,
                "{}: scanner predicted failure but the engine said {action:?}",
                scan.domain
            );
            engine_refusals += 1;
        } else if !scan.is_misconfigured() && healthy_checked < 200 {
            let action = deliver(&world, &scan.domain, now);
            assert_ne!(
                action,
                SenderAction::Refuse,
                "{}: healthy domain refused",
                scan.domain
            );
            healthy_checked += 1;
        }
    }
    assert!(
        predicted_failures > 3,
        "too few predicted failures to be meaningful: {predicted_failures}"
    );
    assert_eq!(predicted_failures, engine_refusals);
    assert!(healthy_checked > 100);
}

#[test]
fn tofu_cache_protects_across_snapshots() {
    // A domain seen healthy (enforce) remains protected when its record
    // later becomes unreadable: the cached policy still applies.
    let eco = Ecosystem::generate(EcosystemConfig::paper(5, 0.01));
    let date = SimDate::ymd(2024, 9, 29);
    let now = date.at_midnight();
    let world = eco.world_at(date, SnapshotDetail::Full);
    let spec = eco
        .domains_at(date)
        .find(|d| {
            d.faults.is_clean()
                && d.mode == mtasts::Mode::Enforce
                && matches!(d.policy, ecosystem::PolicyHosting::SelfManaged)
        })
        .expect("healthy enforce-mode domain exists");

    let mut engine = SenderEngine::new();
    let record_txts = world.mta_sts_txts(&spec.name, now).ok();
    let mx = world.mx_records(&spec.name, now).unwrap().remove(0);
    // First delivery: fetch + validate.
    let fetch_world = &world;
    let fetch_domain = spec.name.clone();
    let (_, action) = engine.evaluate(DeliveryObservation {
        domain: &spec.name,
        record_txts: record_txts.as_deref(),
        fetch_policy: move || {
            fetch_world
                .fetch_policy(&fetch_domain, now)
                .result
                .map(|(_, raw)| raw)
                .map_err(|e| e.to_string())
        },
        mx_host: &mx,
        check_mx_tls: || Ok(()),
        now,
    });
    assert_eq!(action, SenderAction::Deliver);

    // Second delivery an hour later: DNS blocked, attacker's MX offered.
    let later = now + netbase::Duration::hours(1);
    let evil_mx: DomainName = "mx.attacker.net".parse().unwrap();
    let (outcome, action) = engine.evaluate(DeliveryObservation {
        domain: &spec.name,
        record_txts: None,
        fetch_policy: || Err("blocked".to_string()),
        mx_host: &evil_mx,
        check_mx_tls: || Ok(()),
        now: later,
    });
    assert_eq!(action, SenderAction::Refuse, "outcome {outcome:?}");
}
