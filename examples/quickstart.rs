//! Quickstart: deploy MTA-STS for a domain in a simulated Internet, then
//! validate it exactly as a sending MTA would.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dns::RecordData;
use mtasts::{DeliveryObservation, SenderAction, SenderEngine};
use netbase::{DomainName, SimDate};
use sender::TlsRequirement;
use simnet::{CertKind, MxEndpoint, WebEndpoint, World};

fn n(s: &str) -> DomainName {
    s.parse().expect("example names are valid")
}

/// Installs `domain` with a correct MTA-STS deployment (record, policy
/// host, STARTTLS MX with a valid certificate).
fn deploy_domain(world: &mut World, domain: &DomainName, mode: &str, now: netbase::SimInstant) {
    let policy_host = domain.prefixed("mta-sts").unwrap();
    let mx_host = domain.prefixed("mx").unwrap();
    world.ensure_zone(domain);

    // 1. The HTTPS policy host.
    let mut web = WebEndpoint::up();
    web.identity.install(
        policy_host.clone(),
        world
            .pki
            .issue(&CertKind::Valid, std::slice::from_ref(&policy_host), now),
    );
    web.install_policy(
        policy_host.clone(),
        &format!("version: STSv1\r\nmode: {mode}\r\nmx: {mx_host}\r\nmax_age: 604800\r\n"),
    );
    let web_ip = world.add_web_endpoint(web);

    // 2. The STARTTLS-capable MX.
    let mx_chain = world
        .pki
        .issue(&CertKind::Valid, std::slice::from_ref(&mx_host), now);
    let mx_ip = world.add_mx_endpoint(MxEndpoint::healthy(mx_host.clone(), mx_chain));

    // 3. DNS: MX, the policy host's A record, and the _mta-sts record.
    world.with_zone(domain, |z| {
        z.add_rr(
            domain,
            300,
            RecordData::Mx {
                preference: 10,
                exchange: mx_host.clone(),
            },
        );
        z.add_rr(&mx_host, 300, RecordData::A(mx_ip));
        z.add_rr(&policy_host, 300, RecordData::A(web_ip));
        z.add_rr(
            &domain.prefixed("_mta-sts").unwrap(),
            300,
            RecordData::Txt(vec!["v=STSv1; id=20240601a;".into()]),
        );
    });
}

fn main() {
    let mut world = World::new();
    let now = SimDate::ymd(2024, 6, 1).at_midnight();

    // A healthy deployment and a broken one (expired MX certificate).
    deploy_domain(&mut world, &n("good.example"), "enforce", now);
    deploy_domain(&mut world, &n("broken.example"), "enforce", now);
    {
        // Break the second domain: swap its MX certificate for an expired one.
        let mx_host = n("mx.broken.example");
        let expired = world
            .pki
            .issue(&CertKind::Expired, std::slice::from_ref(&mx_host), now);
        for ip in world.mx_ips() {
            world.with_mx(ip, |mx| {
                if mx.hostname == mx_host {
                    mx.chain = expired.clone();
                }
            });
        }
    }

    // A sending MTA delivers to both, with full MTA-STS validation.
    let mut engine = SenderEngine::new();
    for domain in [n("good.example"), n("broken.example")] {
        let record_txts = world.mta_sts_txts(&domain, now).ok();
        let mx = world.mx_records(&domain, now).unwrap().remove(0);
        // One SMTP session with the MX, judged as MTA-STS `enforce` would.
        let probe = world.probe_mx(&mx, None, now);
        let (outcome, action) = engine.evaluate(DeliveryObservation {
            domain: &domain,
            record_txts: record_txts.as_deref(),
            fetch_policy: || {
                world
                    .fetch_policy(&domain, now)
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
        println!("{domain}:");
        println!("  outcome: {outcome:?}");
        println!("  action:  {action:?}");
        match action {
            SenderAction::Deliver => println!("  => message delivered, MTA-STS validated\n"),
            SenderAction::Refuse => println!("  => message NOT delivered (enforce mode)\n"),
            SenderAction::DeliverUnvalidated => {
                println!("  => delivered without MTA-STS protection\n")
            }
        }
    }
}
