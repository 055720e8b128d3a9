//! The policy-resolution daemon end to end (DESIGN.md
//! "Policy-resolution service"): a shared single-flight TOFU cache
//! answering "how do I deliver to domain X right now?" for batches of
//! sender traffic, with rate-admitted refreshes, periodic expiry
//! sweeps, and a live Prometheus `/metrics` endpoint served over TCP.
//!
//! The walkthrough:
//!
//! 1. a thundering herd — one batch of 8 requests for the same cold
//!    domain — triggers exactly **one** policy fetch;
//! 2. three daemon ticks drain mixed request batches deterministically
//!    (cold fetches, warm hits, §3.3 stale fallbacks under a simulated
//!    policy-host outage);
//! 3. the daemon binds a real socket and serves the service counters
//!    at `/metrics` in Prometheus text exposition.
//!
//! ```sh
//! cargo run --release --example policy_daemon
//! ```

use netbase::{DomainName, Duration, SimInstant};
use sender::resolver::{
    AdmissionConfig, DaemonConfig, PolicyResolver, PolicySource, ResolverConfig, ResolverDaemon,
};
use std::sync::Arc;

fn n(s: &str) -> DomainName {
    s.parse().expect("domain")
}

fn epoch() -> SimInstant {
    SimInstant::from_unix_secs(1_717_200_000)
}

/// A small world: three enforce-mode domains whose policy hosts can be
/// switched off, one domain with no MTA-STS at all.
struct World {
    outage: bool,
}

impl PolicySource for World {
    fn record_txts(&self, domain: &DomainName, _now: SimInstant) -> Option<Vec<String>> {
        if domain == &n("plaintext.example") {
            Some(Vec::new()) // never deployed MTA-STS
        } else if self.outage {
            // The operator rolled the record id (demanding a refetch)
            // right as the policy hosts went dark — the §3.3 shape.
            Some(vec!["v=STSv1; id=gen2;".to_string()])
        } else {
            Some(vec!["v=STSv1; id=gen1;".to_string()])
        }
    }

    fn fetch_policy(&self, _domain: &DomainName, _now: SimInstant) -> Result<String, String> {
        if self.outage {
            Err("policy host unreachable".to_string())
        } else {
            Ok(
                "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 604800\r\n"
                    .to_string(),
            )
        }
    }
}

fn main() {
    let resolver = Arc::new(PolicyResolver::new(
        ResolverConfig {
            shards: 16,
            admission: Some(AdmissionConfig {
                rate_per_sec: 100.0,
                burst: 50,
                max_delay: Duration::seconds(5),
            }),
            threads: 1,
        },
        epoch(),
    ));

    // --- 1. The thundering herd -------------------------------------
    println!("== cold herd: 8 requests, 1 domain ==");
    let world = World { outage: false };
    let herd = vec![n("alpha.example"); 8];
    for row in resolver.resolve_batch(&world, &herd, epoch()) {
        println!("  request {}: {:?}", row.seq, row.disposition);
    }
    let m = resolver.metrics();
    println!(
        "  fetches={} coalesced={} hits={} (single-flight: one fetch for the whole herd)\n",
        m.fetches, m.coalesced, m.hits
    );

    // --- 2. Daemon ticks over mixed batches --------------------------
    let mut daemon = ResolverDaemon::new(
        DaemonConfig {
            tick: Duration::minutes(1),
            sweep_every: 2,
        },
        Arc::clone(&resolver),
        epoch() + Duration::minutes(1),
    );
    let batch = vec![
        n("alpha.example"),
        n("beta.example"),
        n("gamma.example"),
        n("plaintext.example"),
        n("beta.example"), // in-batch duplicate → coalesces
    ];

    println!("== tick 1: mixed batch, policy hosts up ==");
    for row in daemon.tick(&world, &batch) {
        println!(
            "  #{} {:<22} {:?}{}",
            row.seq,
            row.domain.to_string(),
            row.disposition,
            row.mode
                .map(|m| format!(" (mode {m:?})"))
                .unwrap_or_default()
        );
    }

    println!("== tick 2: same batch, fully warm ==");
    for row in daemon.tick(&world, &batch) {
        println!(
            "  #{} {:<22} {:?}",
            row.seq,
            row.domain.to_string(),
            row.disposition
        );
    }

    println!("== tick 3: record ids rolled, policy hosts dark (§3.3 stale fallback) ==");
    let dark = World { outage: true };
    for row in daemon.tick(&dark, &batch) {
        println!(
            "  #{} {:<22} {:?} stale={}",
            row.seq,
            row.domain.to_string(),
            row.disposition,
            row.stale
        );
    }
    println!();

    // --- 3. /metrics over real TCP ------------------------------------
    println!("== /metrics ==");
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = {
        let resolver = Arc::clone(&resolver);
        std::thread::spawn(move || {
            ResolverDaemon::serve_metrics(resolver, "127.0.0.1:0", Some(1), move |addr| {
                addr_tx.send(addr).expect("addr");
            })
        })
    };
    let addr = addr_rx.recv().expect("bound");
    use std::io::{Read as _, Write as _};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: daemon\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("response");
    server.join().expect("server").expect("serve");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        println!("  {line}");
    }
}
