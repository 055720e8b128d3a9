//! Differential test: the in-memory fast path and the real-socket wire
//! path must agree layer-for-layer on ecosystem-generated domains.
//!
//! This is the strongest evidence that the simulation-scale scans measure
//! what the real protocol stacks would: a sample of generated domains —
//! healthy and faulty — is deployed onto localhost (UDP DNS, toy-TLS
//! HTTPS, SMTP with STARTTLS) and fetched both ways.

use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
use netbase::{DomainName, SimDate};
use simnet::wire::WireWorld;
use simnet::PolicyFetchError;

/// Picks a diverse sample: a few domains per policy-fault class.
fn sample_domains(eco: &Ecosystem, date: SimDate, per_class: usize) -> Vec<DomainName> {
    let mut by_class: std::collections::HashMap<String, usize> = Default::default();
    let mut out = Vec::new();
    for spec in eco.domains_at(date) {
        let class = format!("{:?}", eco.effective_policy_fault(spec, date));
        let seen = by_class.entry(class).or_insert(0);
        if *seen < per_class {
            *seen += 1;
            out.push(spec.name.clone());
        }
    }
    out
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn fast_and_wire_paths_agree_on_generated_domains() {
    let eco = Ecosystem::generate(EcosystemConfig::paper(7, 0.005));
    let date = SimDate::ymd(2024, 9, 29);
    let now = date.at_midnight();
    let mut world = eco.world_at(date, SnapshotDetail::Full);
    let sample = sample_domains(&eco, date, 3);
    assert!(sample.len() >= 6, "sample too small: {}", sample.len());
    // One sampled domain's first MX refuses that domain's recipients, so
    // the recipient-named probes below compare a refusal as well as
    // accepted sessions.
    let refusing = sample
        .iter()
        .find_map(|domain| {
            let mx = world.mx_records(domain, now).ok()?.into_iter().next()?;
            let ip = world
                .resolve(&mx, dns::RecordType::A, now)
                .ok()?
                .a_addrs()
                .first()
                .copied()?;
            world.with_mx(ip, |e| e.reject_rcpt_domains.push(domain.clone()))?;
            Some(domain.clone())
        })
        .expect("a sampled domain has an MX endpoint");
    let wire = WireWorld::deploy(&world).await.expect("deploys");

    let mut compared = 0;
    for domain in &sample {
        let fast = world.fetch_policy(domain, now);
        let slow = wire.fetch_policy(&world, domain, now).await;
        match (&fast.result, &slow.result) {
            (Ok((fp, fraw)), Ok((sp, sraw))) => {
                assert_eq!(fp, sp, "{domain}: parsed policies differ");
                assert_eq!(fraw, sraw, "{domain}: raw documents differ");
            }
            (Err(fe), Err(se)) => {
                assert_eq!(fe.layer(), se.layer(), "{domain}: {fe} vs {se}");
                // TLS-layer failures agree on the certificate error too.
                if let (
                    PolicyFetchError::Tls(simnet::TlsFailure::Cert(a)),
                    PolicyFetchError::Tls(simnet::TlsFailure::Cert(b)),
                ) = (fe, se)
                {
                    assert_eq!(a, b, "{domain}");
                }
            }
            other => panic!("{domain}: paths disagree: {other:?}"),
        }
        // Delegation evidence agrees.
        assert_eq!(fast.cname_chain, slow.cname_chain, "{domain}");
        compared += 1;
    }
    assert!(compared >= 6);

    // MX probes agree on a few hosts too: the scanner's, which names no
    // recipient, and a sender's, which names one before the upgrade.
    let mut probed = 0;
    let mut refused = 0;
    for domain in sample.iter().take(5) {
        let Ok(mx_records) = world.mx_records(domain, now) else {
            continue;
        };
        for mx in mx_records.iter().take(1) {
            let fast = world.probe_mx(mx, None, now);
            let slow = wire.probe_mx(mx, None).await;
            assert_eq!(fast.reachable, slow.reachable, "{mx}");
            assert_eq!(fast.starttls_offered, slow.starttls_offered, "{mx}");
            assert_eq!(fast.chain, slow.chain, "{mx}");
            let rcpt = format!("postmaster@{domain}");
            let fast = world.probe_mx(mx, Some(&rcpt), now);
            let slow = wire.probe_mx(mx, Some(&rcpt)).await;
            assert_eq!(fast.reply, slow.reply, "{mx} for {rcpt}");
            assert_eq!(
                fast.starttls_offered, slow.starttls_offered,
                "{mx} for {rcpt}"
            );
            assert_eq!(fast.chain, slow.chain, "{mx} for {rcpt}");
            refused += usize::from(slow.reply.is_some());
            probed += 1;
        }
    }
    assert!(probed >= 3);
    assert!(refused >= 1, "{refusing}'s refusal was never probed");
    wire.shutdown().await;
}
