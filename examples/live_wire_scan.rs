//! Live-wire scan: the same world served over *real* localhost sockets —
//! an authoritative UDP DNS server, HTTPS policy servers speaking the
//! toy-TLS + HTTP/1.1 stack, and SMTP MX servers with STARTTLS — scanned
//! by the real protocol clients, and cross-checked against the in-memory
//! fast path.
//!
//! ```sh
//! cargo run --example live_wire_scan
//! ```

use dns::RecordData;
use netbase::{DomainName, SimDate};
use simnet::wire::WireWorld;
use simnet::{CertKind, MxEndpoint, WebEndpoint, World};

fn n(s: &str) -> DomainName {
    s.parse().expect("example names are valid")
}

fn deploy(world: &mut World, domain: &DomainName, kind: CertKind, now: netbase::SimInstant) {
    let policy_host = domain.prefixed("mta-sts").unwrap();
    let mx_host = domain.prefixed("mx").unwrap();
    world.ensure_zone(domain);
    let mut web = WebEndpoint::up();
    web.identity.install(
        policy_host.clone(),
        world
            .pki
            .issue(&kind, std::slice::from_ref(&policy_host), now),
    );
    web.install_policy(
        policy_host.clone(),
        &format!("version: STSv1\r\nmode: enforce\r\nmx: {mx_host}\r\nmax_age: 86400\r\n"),
    );
    let web_ip = world.add_web_endpoint(web);
    let mx_chain = world
        .pki
        .issue(&CertKind::Valid, std::slice::from_ref(&mx_host), now);
    let mx_ip = world.add_mx_endpoint(MxEndpoint::healthy(mx_host.clone(), mx_chain));
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
            RecordData::Txt(vec!["v=STSv1; id=live1;".into()]),
        );
    });
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let mut world = World::new();
    let now_date = SimDate::ymd(2024, 6, 1);
    let now = now_date.at_midnight();
    let cases = [
        ("healthy.example", CertKind::Valid),
        ("expired.example", CertKind::Expired),
        ("selfsigned.example", CertKind::SelfSigned),
        (
            "mismatch.example",
            CertKind::WrongName(n("shared.hosting.example")),
        ),
    ];
    for (domain, kind) in &cases {
        deploy(&mut world, &n(domain), kind.clone(), now);
    }

    println!("deploying onto real localhost sockets...");
    let wire = WireWorld::deploy(&world).await.expect("deploy succeeds");
    println!("  DNS server on {}", wire.dns_addr);

    for (domain, _) in &cases {
        let domain = n(domain);
        let fast = world.fetch_policy(&domain, now);
        let live = wire.fetch_policy(&world, &domain, now).await;
        let describe = |r: &Result<(mtasts::Policy, String), simnet::PolicyFetchError>| match r {
            Ok((p, _)) => format!("OK (mode {})", p.mode),
            Err(e) => format!("{} error: {e}", e.layer()),
        };
        println!("\n{domain}:");
        println!("  in-memory: {}", describe(&fast.result));
        println!("  over wire: {}", describe(&live.result));
        let agree = match (&fast.result, &live.result) {
            (Ok(_), Ok(_)) => true,
            (Err(a), Err(b)) => a.layer() == b.layer(),
            _ => false,
        };
        println!("  paths agree: {agree}");
        assert!(agree, "fast and wire paths must agree");

        // Probe the MX over the wire too.
        let mx = domain.prefixed("mx").unwrap();
        let probe = wire.probe_mx(&mx, None).await;
        println!(
            "  MX probe over wire: reachable={} starttls={} chain={}",
            probe.reachable,
            probe.starttls_offered,
            probe.chain.as_ref().map_or(0, |c| c.len())
        );
    }

    wire.shutdown().await;
    println!("\nall servers shut down cleanly");
}
