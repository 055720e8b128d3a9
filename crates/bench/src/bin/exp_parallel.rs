//! Scaling curve for the deterministic parallel scan engine
//! (EXPERIMENTS.md): one full-component snapshot of a paper-scale
//! population (`MTASTS_SCALE` defaults to 1.0 here — ~68k domains, the
//! acceptance floor is 50k) scanned at 1, 2, 4 and 8 threads.
//!
//! Two things are on display:
//!
//! 1. **Speedup**: per-domain scans dominate, shards are balanced to ±1
//!    domain, and workers share no mutable state, so the curve should be
//!    near-linear until the machine runs out of cores.
//! 2. **Determinism**: every run's digest must equal the sequential
//!    digest — thread count is unobservable in the output.
//!
//! ```sh
//! cargo run --release -p mtasts-bench --bin exp_parallel
//! MTASTS_SCALE=0.25 SCAN_THREAD_CURVE=1,2,4,8,16 \
//!     cargo run --release -p mtasts-bench --bin exp_parallel
//! ```

use ecosystem::SnapshotDetail;
use netbase::DomainName;
use scanner::{scan_snapshot_with_threads, ScanConfig, Snapshot};
use std::time::Instant;

fn digest(snap: &Snapshot) -> String {
    serde_json::to_string(&snap.scans).unwrap()
}

fn main() {
    // This experiment defaults to the paper's full scale: the scaling
    // claim is only interesting on a ≥50k-domain population.
    if std::env::var("MTASTS_SCALE").is_err() {
        std::env::set_var("MTASTS_SCALE", "1.0");
    }
    let curve: Vec<usize> = std::env::var("SCAN_THREAD_CURVE")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .map(|t| t.trim().parse().expect("SCAN_THREAD_CURVE: integers"))
        .collect();

    let eco = mtasts_bench::ecosystem();
    let date = *eco.config.full_scan_dates().last().unwrap();
    let world = eco.world_at(date, SnapshotDetail::Full);
    let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
    let config = ScanConfig::default();
    eprintln!(
        "# snapshot {date}: {} domains, {} cores available",
        domains.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    println!("threads  wall-clock  speedup  efficiency  deterministic");
    let mut baseline: Option<(f64, String)> = None;
    for &threads in &curve {
        let start = Instant::now();
        let snap = scan_snapshot_with_threads(&world, &domains, date, None, &config, threads);
        let secs = start.elapsed().as_secs_f64();
        let d = digest(&snap);
        let (base_secs, base_digest) = baseline.get_or_insert_with(|| (secs, d.clone()));
        let speedup = *base_secs / secs;
        assert_eq!(
            *base_digest, d,
            "digest diverges at {threads} threads — determinism broken"
        );
        println!(
            "{threads:>7}  {secs:>9.2}s  {speedup:>6.2}x  {:>9.1}%  {:>13}",
            100.0 * speedup / threads as f64,
            "yes"
        );
    }
    println!(
        "\nall {} runs byte-identical; acceptance: >=3x at 8 threads on an 8-core host",
        curve.len()
    );
}
