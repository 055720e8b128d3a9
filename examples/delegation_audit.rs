//! Policy-delegation audit (§5 / Table 2): install a customer on each
//! policy-hosting provider, verify the delegation works, then have the
//! customer opt out and observe what the provider's documented
//! deprovisioning behaviour does to MTA-STS validation.
//!
//! ```sh
//! cargo run --example delegation_audit
//! ```

use dns::RecordData;
use ecosystem::providers::{policy_providers, PolicyUpdateOnOptOut};
use mtasts::Mode;
use netbase::{DomainName, SimDate};
use simnet::{CertKind, WebEndpoint, World};

fn main() {
    let now_date = SimDate::ymd(2024, 6, 1);
    let now = now_date.at_midnight();

    for provider in policy_providers() {
        let mut world = World::new();
        let customer: DomainName = format!("customer-of-{}.com", provider.key).parse().unwrap();
        let policy_host = customer.prefixed("mta-sts").unwrap();
        let target = provider.cname_target(&customer);
        let base = provider.base_domain();

        // Provider infrastructure + the delegation.
        world.ensure_zone(&base);
        let mut web = WebEndpoint::up();
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

        let before = world.fetch_policy(&customer, now);
        let before_desc = match &before.result {
            Ok((p, _)) => format!("policy served, mode {}", p.mode),
            Err(e) => format!("{e}"),
        };

        // The customer opts out; the provider applies its documented
        // behaviour (Table 2, verified with each provider's support).
        if provider.opt_out.returns_nxdomain {
            world.with_zone(&base, |z| {
                z.remove_all(&target);
            });
        }
        match provider.opt_out.policy_update {
            PolicyUpdateOnOptOut::Unchanged => {}
            PolicyUpdateOnOptOut::EmptiedFile => {
                world.with_web(web_ip, |ep| {
                    ep.install_policy(policy_host.clone(), "");
                });
            }
            PolicyUpdateOnOptOut::ModeToNone => {
                world.with_web(web_ip, |ep| {
                    ep.install_policy(
                        policy_host.clone(),
                        "version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n",
                    );
                });
            }
        }
        if !provider.opt_out.reissues_cert && !provider.opt_out.returns_nxdomain {
            // Certificates lapse eventually: simulate with an expired chain.
            let expired =
                world
                    .pki
                    .issue(&CertKind::Expired, std::slice::from_ref(&policy_host), now);
            world.with_web(web_ip, |ep| {
                ep.identity.install(policy_host.clone(), expired)
            });
        }

        let after = world.fetch_policy(&customer, now);
        let after_desc = match &after.result {
            Ok((p, _)) if p.mode == Mode::None => "mode none (released)".to_string(),
            Ok((p, _)) => format!("STALE policy still served, mode {}", p.mode),
            Err(e) => format!("{e}"),
        };
        println!("{}:", provider.key);
        println!("  while customer: {before_desc}");
        println!("  after opt-out:  {after_desc}");
        println!(
            "  (NXDOMAIN={}, reissues cert={}, update={:?})\n",
            provider.opt_out.returns_nxdomain,
            provider.opt_out.reissues_cert,
            provider.opt_out.policy_update
        );
    }
    println!("none of the eight providers follow RFC 8461 §8.3's removal procedure");
}
