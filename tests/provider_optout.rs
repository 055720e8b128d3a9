//! Table 2 end-to-end: each policy provider's documented opt-out
//! behaviour, applied to a live delegation, produces exactly the sender
//! impact §5 describes — and none of them match RFC 8461 §8.3.

use dns::RecordData;
use ecosystem::providers::{policy_providers, PolicyProvider, PolicyUpdateOnOptOut};
use mtasts::{DeliveryObservation, Mode, SenderAction, SenderEngine};
use netbase::{DomainName, SimDate, SimInstant};
use simnet::{CertKind, PolicyFetchError, World};

struct Deployment {
    world: World,
    customer: DomainName,
    target: DomainName,
    web_ip: std::net::Ipv4Addr,
    policy_host: DomainName,
}

/// Delegates a customer to `provider` with a healthy enforce policy.
fn deploy(provider: &PolicyProvider, now: SimInstant) -> Deployment {
    let mut world = World::new();
    let customer: DomainName = format!("cust-{}.com", provider.key).parse().unwrap();
    let policy_host = customer.prefixed("mta-sts").unwrap();
    let target = provider.cname_target(&customer);
    let base = provider.base_domain();
    world.ensure_zone(&base);
    let mut web = simnet::WebEndpoint::up();
    web.identity.install(
        policy_host.clone(),
        world
            .pki
            .issue(&CertKind::Valid, std::slice::from_ref(&policy_host), now),
    );
    web.install_policy(
        policy_host.clone(),
        &format!("version: STSv1\r\nmode: enforce\r\nmx: mx.{customer}\r\nmax_age: 86400\r\n"),
    );
    let web_ip = world.add_web_endpoint(web);
    world.with_zone(&base, |z| {
        z.add_rr(&target, 300, RecordData::A(web_ip));
    });
    world.ensure_zone(&customer);
    world.with_zone(&customer, |z| {
        z.add_rr(&policy_host, 300, RecordData::Cname(target.clone()));
        z.add_rr(
            &customer.prefixed("_mta-sts").unwrap(),
            300,
            RecordData::Txt(vec!["v=STSv1; id=1;".into()]),
        );
    });
    Deployment {
        world,
        customer,
        target,
        web_ip,
        policy_host,
    }
}

/// Applies the provider's documented opt-out behaviour.
fn opt_out(d: &mut Deployment, provider: &PolicyProvider, now: SimInstant) {
    if provider.opt_out.returns_nxdomain {
        d.world.with_zone(&provider.base_domain(), |z| {
            z.remove_all(&d.target);
        });
    }
    match provider.opt_out.policy_update {
        PolicyUpdateOnOptOut::Unchanged => {}
        PolicyUpdateOnOptOut::EmptiedFile => {
            d.world.with_web(d.web_ip, |ep| {
                ep.install_policy(d.policy_host.clone(), "");
            });
        }
        PolicyUpdateOnOptOut::ModeToNone => {
            d.world.with_web(d.web_ip, |ep| {
                ep.install_policy(
                    d.policy_host.clone(),
                    "version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n",
                );
            });
        }
    }
    if !provider.opt_out.reissues_cert && !provider.opt_out.returns_nxdomain {
        let expired = d.world.pki.issue(
            &CertKind::Expired,
            std::slice::from_ref(&d.policy_host),
            now,
        );
        d.world.with_web(d.web_ip, |ep| {
            ep.identity.install(d.policy_host.clone(), expired);
        });
    }
}

#[test]
fn every_provider_behaviour_matches_table2() {
    let now = SimDate::ymd(2024, 6, 1).at_midnight();
    for provider in policy_providers() {
        let mut d = deploy(&provider, now);
        // Healthy while subscribed.
        let before = d.world.fetch_policy(&d.customer, now);
        assert!(
            before.result.is_ok(),
            "{}: {:?}",
            provider.key,
            before.result
        );

        opt_out(&mut d, &provider, now);
        let after = d.world.fetch_policy(&d.customer, now);
        match provider.key {
            // NXDOMAIN providers: the policy domain stops resolving.
            "powerdmarc" | "mailhardener" | "uriports" => {
                assert!(
                    matches!(after.result, Err(PolicyFetchError::Dns(_))),
                    "{}: {:?}",
                    provider.key,
                    after.result
                );
                // The CNAME is still observable (the paper's delegation
                // evidence survives).
                assert_eq!(after.cname_chain, vec![d.target.clone()]);
            }
            // DMARCReport: valid cert, empty file — a parse failure that
            // senders treat like `none`.
            "dmarcreport" => {
                assert!(
                    matches!(
                        after.result,
                        Err(PolicyFetchError::Syntax(mtasts::PolicyError::EmptyDocument))
                    ),
                    "{}: {:?}",
                    provider.key,
                    after.result
                );
            }
            // Cert re-issuers with stale policies: still serving enforce.
            "easydmarc" | "sendmarc" | "ondmarc" => {
                let (policy, _) = after.result.expect("stale policy still served");
                assert_eq!(policy.mode, Mode::Enforce, "{}", provider.key);
            }
            // Tutanota: policy unchanged, certificates lapse.
            "tutanota" => {
                assert!(
                    matches!(
                        after.result,
                        Err(PolicyFetchError::Tls(simnet::TlsFailure::Cert(
                            pkix::CertError::Expired
                        )))
                    ),
                    "{}: {:?}",
                    provider.key,
                    after.result
                );
            }
            other => panic!("unexpected provider {other}"),
        }
    }
}

#[test]
fn stale_enforce_policy_strands_senders_after_mx_migration() {
    // The §5 hazard: a cert-reissuing provider keeps serving the old
    // enforce policy; when the customer migrates mail, validating senders
    // refuse delivery.
    let provider = policy_providers()
        .into_iter()
        .find(|p| p.key == "easydmarc")
        .unwrap();
    let now = SimDate::ymd(2024, 6, 1).at_midnight();
    let mut d = deploy(&provider, now);
    opt_out(&mut d, &provider, now);

    // The customer's new MX (after migrating away).
    let new_mx: DomainName = "in.newprovider.net".to_string().parse().unwrap();
    let mut engine = SenderEngine::new();
    let record_txts = d.world.mta_sts_txts(&d.customer, now).ok();
    let fetch_world = &d.world;
    let fetch_domain = d.customer.clone();
    let (outcome, action) = engine.evaluate(DeliveryObservation {
        domain: &d.customer,
        record_txts: record_txts.as_deref(),
        fetch_policy: move || {
            fetch_world
                .fetch_policy(&fetch_domain, now)
                .result
                .map(|(_, raw)| raw)
                .map_err(|e| e.to_string())
        },
        mx_host: &new_mx,
        check_mx_tls: || Ok(()),
        now,
    });
    assert_eq!(
        action,
        SenderAction::Refuse,
        "stale enforce policy must strand the migrated customer: {outcome:?}"
    );
}

#[test]
fn emptied_policy_releases_senders() {
    // DMARCReport's emptying behaviour, by contrast, releases senders
    // (parse failure ⇒ unprotected delivery).
    let provider = policy_providers()
        .into_iter()
        .find(|p| p.key == "dmarcreport")
        .unwrap();
    let now = SimDate::ymd(2024, 6, 1).at_midnight();
    let mut d = deploy(&provider, now);
    opt_out(&mut d, &provider, now);

    let new_mx: DomainName = "in.newprovider.net".parse().unwrap();
    let mut engine = SenderEngine::new();
    let record_txts = d.world.mta_sts_txts(&d.customer, now).ok();
    let fetch_world = &d.world;
    let fetch_domain = d.customer.clone();
    let (_, action) = engine.evaluate(DeliveryObservation {
        domain: &d.customer,
        record_txts: record_txts.as_deref(),
        fetch_policy: move || {
            fetch_world
                .fetch_policy(&fetch_domain, now)
                .result
                .map(|(_, raw)| raw)
                .map_err(|e| e.to_string())
        },
        mx_host: &new_mx,
        check_mx_tls: || Ok(()),
        now,
    });
    assert_eq!(action, SenderAction::DeliverUnvalidated);
}
