//! The parallel-engine acceptance gate: determinism always, the ≥3×
//! 8-thread speedup whenever the host actually has 8 cores to offer.
//! (`exp_parallel` is the full scaling-curve experiment; this is the
//! slice of it cheap enough for the test suite.)

use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
use netbase::DomainName;
use scanner::{scan_snapshot_with_threads, ScanConfig, Snapshot};
use std::time::Instant;

fn digest(snap: &Snapshot) -> String {
    serde_json::to_string(&snap.scans).unwrap()
}

fn population(scale: f64) -> (simnet::World, Vec<DomainName>, netbase::SimDate) {
    let eco = Ecosystem::generate(EcosystemConfig::paper(42, scale));
    let date = *eco.config.full_scan_dates().last().unwrap();
    let world = eco.world_at(date, SnapshotDetail::Full);
    let domains = eco.domains_at(date).map(|d| d.name.clone()).collect();
    (world, domains, date)
}

#[test]
fn thread_counts_are_unobservable() {
    let (world, domains, date) = population(0.02);
    let config = ScanConfig::default();
    let run = |threads| {
        digest(&scan_snapshot_with_threads(
            &world, &domains, date, None, &config, threads,
        ))
    };
    let sequential = run(1);
    assert_eq!(sequential, run(2), "2-thread scan diverges");
    assert_eq!(sequential, run(8), "8-thread scan diverges");
}

#[test]
fn eight_threads_give_3x_on_8_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 8 {
        eprintln!("skipping speedup assertion: host has {cores} cores (need 8)");
        return;
    }

    // ~17k domains: large enough that shard imbalance and spawn overhead
    // are noise, small enough for a test.
    let (world, domains, date) = population(0.25);
    let config = ScanConfig::default();
    // One untimed run first, so both timed runs start equally warm.
    scan_snapshot_with_threads(&world, &domains, date, None, &config, 8);

    let start = Instant::now();
    let seq = scan_snapshot_with_threads(&world, &domains, date, None, &config, 1);
    let seq_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let par = scan_snapshot_with_threads(&world, &domains, date, None, &config, 8);
    let par_secs = start.elapsed().as_secs_f64();

    assert_eq!(digest(&seq), digest(&par));
    let speedup = seq_secs / par_secs;
    eprintln!("sequential {seq_secs:.2}s, 8 threads {par_secs:.2}s: {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "8-thread speedup {speedup:.2}x below the 3x acceptance floor \
         (sequential {seq_secs:.2}s, parallel {par_secs:.2}s)"
    );
}
