//! Incremental-vs-scratch cost of the longitudinal study (EXPERIMENTS.md,
//! DESIGN.md "Incremental engine").
//!
//! The from-scratch drivers pay `O(dates × domains)`: every weekly and
//! monthly date rebuilds a world and re-scans every domain. The
//! incremental engine pays `O(changes)`: one persistent delta-built
//! world ([`ecosystem::IncrementalWorld`]) plus the change-driven rescan
//! cache ([`scanner::incremental`]), with byte-identity to the scratch
//! output asserted here on every run — the speedup is only admissible
//! because the answer is *exactly* the same.
//!
//! Results land in `BENCH_scan.json` at the repo root. Acceptance: ≥5×
//! combined wall-clock speedup at `MTASTS_SCALE=0.05` (this binary's
//! default scale; the digest assertions hold at any scale).
//!
//! ```sh
//! cargo run --release -p mtasts-bench --bin exp_incremental
//! ```

use scanner::longitudinal::{MxHistory, Study, WeeklyPoint};
use scanner::{default_scan_threads, CacheStats, Snapshot, SupervisedOutcome, SupervisorConfig};
use serde::Serialize;
use std::time::Instant;

fn full_digest(snapshots: &[Snapshot]) -> String {
    let digest: Vec<_> = snapshots.iter().map(|s| (s.date, &s.scans)).collect();
    serde_json::to_string(&digest).expect("snapshots serialize")
}

fn weekly_digest(weekly: &[WeeklyPoint], history: &MxHistory) -> String {
    let sorted = |m: &std::collections::HashMap<ecosystem::TldId, u64>| {
        let mut v: Vec<_> = m.iter().map(|(t, c)| (format!("{t:?}"), *c)).collect();
        v.sort();
        v
    };
    let points: Vec<_> = weekly
        .iter()
        .map(|p| {
            (
                p.date,
                sorted(&p.mtasts_per_tld),
                sorted(&p.tlsrpt_among_mtasts_per_tld),
            )
        })
        .collect();
    let mut hist: Vec<_> = history
        .iter()
        .map(|(d, v)| (d.to_string(), format!("{v:?}")))
        .collect();
    hist.sort();
    serde_json::to_string(&(points, hist)).expect("weekly serializes")
}

struct Measured {
    scratch_secs: f64,
    incremental_secs: f64,
    stats: CacheStats,
}

impl Measured {
    fn speedup(&self) -> f64 {
        self.scratch_secs / self.incremental_secs
    }

    fn report(&self, dates: usize) -> SeriesReport {
        SeriesReport {
            dates,
            scratch_secs: self.scratch_secs,
            incremental_secs: self.incremental_secs,
            speedup: self.speedup(),
            cache: self.stats,
        }
    }
}

#[derive(Serialize)]
struct SeriesReport {
    dates: usize,
    scratch_secs: f64,
    incremental_secs: f64,
    speedup: f64,
    cache: CacheStats,
}

/// The `BENCH_scan.json` payload.
#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    seed: u64,
    scale: f64,
    threads: usize,
    digests_match: bool,
    full: SeriesReport,
    weekly: SeriesReport,
    combined_speedup: f64,
    notes: &'static str,
}

fn main() {
    // Default scale for this experiment: large enough that the scratch
    // drivers' O(dates × domains) cost is visible, small enough for CI.
    if std::env::var("MTASTS_SCALE").is_err() {
        std::env::set_var("MTASTS_SCALE", "0.05");
    }
    let config = mtasts_bench::config_from_env();
    let study = Study::new(mtasts_bench::ecosystem());
    let threads = default_scan_threads();
    eprintln!("# threads: {threads}");

    // Monthly full-component scans: 11 snapshot dates.
    eprintln!("# full scans, from scratch...");
    let start = Instant::now();
    let scratch_full = study.run_full_scratch_with_threads(threads);
    let scratch_full_secs = start.elapsed().as_secs_f64();
    eprintln!("# full scans, incremental...");
    let start = Instant::now();
    // `run_full_with_threads`'s campaign, keeping its cache accounting.
    let SupervisedOutcome::Complete {
        snapshots: inc_full,
        report,
    } = study.run_full_supervised(&SupervisorConfig {
        threads,
        ..SupervisorConfig::default()
    })
    else {
        unreachable!("no domain budget to run out")
    };
    let inc_full_secs = start.elapsed().as_secs_f64();
    let full_stats = report.cache;
    assert_eq!(
        full_digest(&scratch_full),
        full_digest(&inc_full),
        "incremental full scans must be byte-identical to scratch"
    );
    let full = Measured {
        scratch_secs: scratch_full_secs,
        incremental_secs: inc_full_secs,
        stats: full_stats,
    };

    // Weekly record scans: 160 snapshot dates.
    eprintln!("# weekly series, from scratch...");
    let start = Instant::now();
    let (scratch_weekly, scratch_hist) = study.run_weekly_scratch_with_threads(threads);
    let scratch_weekly_secs = start.elapsed().as_secs_f64();
    eprintln!("# weekly series, incremental...");
    let start = Instant::now();
    let (inc_weekly, inc_hist, weekly_stats) = study.run_weekly_with_threads(threads);
    let inc_weekly_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        weekly_digest(&scratch_weekly, &scratch_hist),
        weekly_digest(&inc_weekly, &inc_hist),
        "incremental weekly series must be byte-identical to scratch"
    );
    let weekly = Measured {
        scratch_secs: scratch_weekly_secs,
        incremental_secs: inc_weekly_secs,
        stats: weekly_stats,
    };

    let combined = (full.scratch_secs + weekly.scratch_secs)
        / (full.incremental_secs + weekly.incremental_secs);

    println!("series   scratch  incremental  speedup  full-hits  misses");
    for (name, m) in [("full", &full), ("weekly", &weekly)] {
        println!(
            "{name:<7} {:>7.2}s  {:>10.2}s  {:>6.2}x  {:>9}  {:>6}",
            m.scratch_secs,
            m.incremental_secs,
            m.speedup(),
            m.stats.full_hits,
            m.stats.misses,
        );
    }
    println!("\ncombined speedup: {combined:.2}x (acceptance: >=5x at scale 0.05)");
    println!(
        "note: {} full-scan hits share the cached scan (one Arc<DomainScan>) \
         instead of copying it per date",
        full.stats.full_hits
    );

    let out = BenchReport {
        experiment: "exp_incremental",
        seed: config.seed,
        scale: config.scale,
        threads,
        digests_match: true,
        full: full.report(inc_full.len()),
        weekly: weekly.report(inc_weekly.len()),
        combined_speedup: combined,
        notes: "a domain name is one Arc<str> and a reused scan one Arc<DomainScan>; \
                snapshot clones and cache reuse are refcount bumps, not per-date copies; \
                the monthly campaign carries its entity classifier across dates and \
                re-classifies only the scans that changed",
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("bench json"),
    )
    .expect("write BENCH_scan.json");
    eprintln!("# wrote {path}");

    assert!(
        combined >= 5.0,
        "combined incremental speedup {combined:.2}x below the 5x acceptance floor"
    );
}
