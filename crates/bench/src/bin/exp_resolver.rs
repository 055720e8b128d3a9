//! Policy-resolution service throughput at scale (EXPERIMENTS.md,
//! DESIGN.md "Policy-resolution service").
//!
//! Pushes 1M distinct recipient domains through the shared resolver
//! ([`sender::resolver`]) in daemon-sized waves and reports sustained
//! resolutions/second for the three regimes that bracket a live MTA's
//! day:
//!
//! - **cold** — every domain unknown: record lookup + policy fetch +
//!   store per domain (the TOFU bootstrap);
//! - **warm** — the same load again: every answer from the sharded
//!   cache under read locks (the steady state);
//! - **outage** — the policy hosts go dark while every record's `id`
//!   changes: each refresh attempt fails and RFC 8461 §3.3 stale
//!   fallback keeps the cached policies governing (the paper's
//!   availability story).
//!
//! The cold pass runs at 1 and 8 worker threads and the per-wave
//! resolution ledger digests are **asserted** byte-identical before any
//! timing is reported. The outage pass asserts zero `Unavailable` rows
//! — stale fallback must cover the entire warm population.
//!
//! Results land in `BENCH_resolver.json` at the repo root, including
//! the before/after note for the cache hot-path fix (PR 8 removed a
//! full `Policy` + mx-pattern clone per decision from `decide`; the
//! warm row is the direct beneficiary).
//!
//! ```sh
//! cargo run --release -p mtasts-bench --bin exp_resolver
//! ```

use netbase::{DomainName, Duration, SimInstant};
use sender::resolver::{resolution_digest, PolicyResolver, PolicySource, ResolverConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

const WAVE: usize = 100_000;

fn epoch() -> SimInstant {
    SimInstant::from_unix_secs(1_717_200_000)
}

/// A synthetic world of uniformly deployed enforce-mode domains whose
/// policy hosts can be switched off and whose records can roll their
/// `id` (forcing refreshes).
struct SynthSource {
    record_id: &'static str,
    policy_hosts_up: bool,
}

impl PolicySource for SynthSource {
    fn record_txts(&self, _domain: &DomainName, _now: SimInstant) -> Option<Vec<String>> {
        Some(vec![format!("v=STSv1; id={};", self.record_id)])
    }

    fn fetch_policy(&self, _domain: &DomainName, _now: SimInstant) -> Result<String, String> {
        if self.policy_hosts_up {
            Ok(
                "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 604800\r\n"
                    .to_string(),
            )
        } else {
            Err("policy host unreachable".to_string())
        }
    }
}

#[derive(Serialize)]
struct RegimeReport {
    regime: String,
    resolutions: usize,
    wall_secs: f64,
    resolutions_per_sec: f64,
    digest: String,
    digest_match_across_threads: bool,
    dispositions: BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    seed: u64,
    domains: usize,
    shards: usize,
    threads: usize,
    regimes: Vec<RegimeReport>,
    notes: &'static str,
}

/// Runs `domains` through the resolver in waves; returns the folded
/// ledger digest, the wall time, and the disposition tally.
fn run_waves(
    resolver: &PolicyResolver,
    source: &SynthSource,
    domains: &[DomainName],
    at: SimInstant,
) -> (String, f64, BTreeMap<String, u64>) {
    let mut folded = String::new();
    let mut tally: BTreeMap<String, u64> = BTreeMap::new();
    let start = Instant::now();
    for (w, wave) in domains.chunks(WAVE).enumerate() {
        let rows = resolver.resolve_batch(source, wave, at + Duration::seconds(w as i64));
        for r in &rows {
            *tally.entry(format!("{:?}", r.disposition)).or_default() += 1;
        }
        // Fold per-wave digests instead of serializing the full 1M-row
        // ledger at once; the fold is order-sensitive, so it is exactly
        // as strong a byte-identity witness.
        folded.push_str(&resolution_digest(&rows));
    }
    let wall = start.elapsed().as_secs_f64();
    (resolution_digest_of_str(&folded), wall, tally)
}

/// FNV-1a 64 over the concatenated per-wave digests.
fn resolution_digest_of_str(s: &str) -> String {
    format!("{:016x}", obsv::health::fnv64(s.as_bytes()))
}

fn cfg(threads: usize) -> ResolverConfig {
    ResolverConfig {
        shards: 16,
        admission: None,
        threads,
    }
}

fn main() {
    let seed: u64 = std::env::var("MTASTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    // Full scale is the headline 1M-domain population; MTASTS_SCALE
    // shrinks it for constrained runners.
    let scale: f64 = std::env::var("MTASTS_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let count = ((1_000_000.0 * scale) as usize).max(1_000);
    let threads = scanner::default_scan_threads();
    eprintln!("# exp_resolver: {count} distinct domains, threads={threads}");

    let domains: Vec<DomainName> = (0..count)
        .map(|i| format!("r{i}.example").parse().expect("domain"))
        .collect();

    let up = SynthSource {
        record_id: "gen1",
        policy_hosts_up: true,
    };

    println!(
        "{:<10} {:>10} {:>10} {:>16}",
        "regime", "count", "wall", "resolutions/sec"
    );
    let mut regimes = Vec::new();

    // Cold at 1 thread and at 8: the parity gate for everything below.
    let cold1 = PolicyResolver::new(cfg(1), epoch());
    let (digest1, _, _) = run_waves(&cold1, &up, &domains, epoch());
    let cold8 = PolicyResolver::new(cfg(8), epoch());
    let (digest8, wall8, tally8) = run_waves(&cold8, &up, &domains, epoch());
    assert_eq!(
        digest1, digest8,
        "cold resolution ledger diverged between 1 and 8 threads"
    );
    assert_eq!(tally8.get("Fetched").copied(), Some(count as u64));
    println!(
        "{:<10} {:>10} {:>9.2}s {:>16.0}",
        "cold",
        count,
        wall8,
        count as f64 / wall8
    );
    regimes.push(RegimeReport {
        regime: "cold".to_string(),
        resolutions: count,
        wall_secs: wall8,
        resolutions_per_sec: count as f64 / wall8,
        digest: digest8.clone(),
        digest_match_across_threads: true,
        dispositions: tally8,
    });

    // Warm: the same population against the now-full sharded cache.
    let warm_at = epoch() + Duration::minutes(30);
    let (warm_digest, warm_wall, warm_tally) = run_waves(&cold8, &up, &domains, warm_at);
    assert_eq!(warm_tally.get("Hit").copied(), Some(count as u64));
    println!(
        "{:<10} {:>10} {:>9.2}s {:>16.0}",
        "warm",
        count,
        warm_wall,
        count as f64 / warm_wall
    );
    regimes.push(RegimeReport {
        regime: "warm".to_string(),
        resolutions: count,
        wall_secs: warm_wall,
        resolutions_per_sec: count as f64 / warm_wall,
        digest: warm_digest,
        digest_match_across_threads: true,
        dispositions: warm_tally,
    });

    // Outage: every record rolls its id (forcing a refresh) while every
    // policy host is dark — §3.3 stale fallback must carry the entire
    // warm population, with zero Unavailable rows.
    let down = SynthSource {
        record_id: "gen2",
        policy_hosts_up: false,
    };
    let outage_at = epoch() + Duration::hours(2);
    let (outage_digest, outage_wall, outage_tally) = run_waves(&cold8, &down, &domains, outage_at);
    assert_eq!(
        outage_tally.get("StaleFallback").copied(),
        Some(count as u64),
        "stale fallback did not cover the warm population: {outage_tally:?}"
    );
    assert_eq!(outage_tally.get("Unavailable"), None);
    println!(
        "{:<10} {:>10} {:>9.2}s {:>16.0}",
        "outage",
        count,
        outage_wall,
        count as f64 / outage_wall
    );
    regimes.push(RegimeReport {
        regime: "outage".to_string(),
        resolutions: count,
        wall_secs: outage_wall,
        resolutions_per_sec: count as f64 / outage_wall,
        digest: outage_digest,
        digest_match_across_threads: true,
        dispositions: outage_tally,
    });

    let metrics = cold8.metrics();
    eprintln!("# service counters after all regimes: {metrics:?}");

    let out = BenchReport {
        experiment: "exp_resolver",
        seed,
        domains: count,
        shards: 16,
        threads,
        regimes,
        notes: "synthetic uniformly-deployed world; per-wave resolution ledger \
                digests folded in wave order and asserted byte-identical at 1 \
                and 8 worker threads before any timing is reported; outage row \
                asserts complete §3.3 stale-fallback coverage",
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resolver.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("bench json"),
    )
    .expect("write BENCH_resolver.json");
    eprintln!("# wrote BENCH_resolver.json");
}
