//! End-to-end scanning throughput: single-domain validation against the
//! in-memory world, a full snapshot scan, and the rate-limited variant
//! (DESIGN.md's throttling ablation).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
use netbase::{DomainName, SimDate, TokenBucket};
use scanner::{scan_domain, scan_snapshot, scan_snapshot_with_threads, ScanConfig};
use std::hint::black_box;

fn bench_scan(c: &mut Criterion) {
    let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.01));
    let date = SimDate::ymd(2024, 9, 29);
    let world = eco.world_at(date, SnapshotDetail::Full);
    let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
    eprintln!("# scanning population: {} domains", domains.len());

    let config = ScanConfig::default();
    let one = domains[0].clone();
    c.bench_function("scan/single-domain", |b| {
        b.iter(|| {
            scan_domain(
                black_box(&world),
                black_box(&one),
                date.at_midnight(),
                &config,
            )
        })
    });

    let sample: Vec<DomainName> = domains.iter().take(100).cloned().collect();
    c.bench_function("scan/snapshot-100", |b| {
        b.iter(|| scan_snapshot(black_box(&world), black_box(&sample), date, None, &config))
    });
    c.bench_function("scan/snapshot-100-seq", |b| {
        b.iter(|| {
            scan_snapshot_with_threads(
                black_box(&world),
                black_box(&sample),
                date,
                None,
                &config,
                1,
            )
        })
    });
    c.bench_function("scan/snapshot-100-8-threads", |b| {
        b.iter(|| {
            scan_snapshot_with_threads(
                black_box(&world),
                black_box(&sample),
                date,
                None,
                &config,
                8,
            )
        })
    });
    c.bench_function("scan/snapshot-100-rate-limited", |b| {
        b.iter_batched(
            || TokenBucket::new(1000.0, 100, date.at_midnight()),
            |mut bucket| {
                scan_snapshot(
                    black_box(&world),
                    black_box(&sample),
                    date,
                    Some(&mut bucket),
                    &config,
                )
            },
            BatchSize::SmallInput,
        )
    });

    // World construction itself (per-snapshot rebuild cost).
    c.bench_function("scan/world-build-dns-only", |b| {
        b.iter(|| eco.world_at(date, SnapshotDetail::DnsOnly))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scan
}
criterion_main!(benches);
