//! The sender policy cache: TOFU hits vs the always-refetch ablation
//! (DESIGN.md's design-choice list).

use criterion::{criterion_group, criterion_main, Criterion};
use mtasts::{classify, Mode, MxPattern, Policy, PolicyCache};
use netbase::{DomainName, SimDate};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let domain: DomainName = "example.com".parse().unwrap();
    let policy = Policy::new(
        Mode::Enforce,
        604_800,
        vec![MxPattern::parse("mx.example.com").unwrap()],
    );
    let t0 = SimDate::ymd(2024, 6, 1).at_midnight();
    let same_id = vec!["v=STSv1; id=id1;".to_string()];
    let new_id = vec!["v=STSv1; id=id2;".to_string()];

    c.bench_function("cache/hit", |b| {
        let mut cache = PolicyCache::new();
        cache.store(domain.clone(), policy.clone(), "id1", t0);
        b.iter(|| classify(Some(&same_id), cache.peek(black_box(&domain)), t0))
    });
    c.bench_function("cache/miss-id-changed", |b| {
        let mut cache = PolicyCache::new();
        cache.store(domain.clone(), policy.clone(), "id1", t0);
        b.iter(|| classify(Some(&new_id), cache.peek(black_box(&domain)), t0))
    });
    // The ablation: always refetch = store + evict on every delivery.
    c.bench_function("cache/always-refetch", |b| {
        let mut cache = PolicyCache::new();
        b.iter(|| {
            cache.store(domain.clone(), policy.clone(), "id1", t0);
            cache.evict(&domain);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60);
    targets = bench_cache
}
criterion_main!(benches);
