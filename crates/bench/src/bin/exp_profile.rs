//! Per-stage self-time profile of the longitudinal study, and the cost
//! of observing it (EXPERIMENTS.md, DESIGN.md "Observability").
//!
//! Runs the incremental study (monthly full scans + weekly series) at
//! scale 0.05 twice — telemetry off, then telemetry *and the flight
//! recorder* on — and:
//!
//! - asserts the outputs are byte-identical (the observability layer's
//!   determinism contract, also pinned by
//!   `scanner/tests/telemetry_identity.rs` and
//!   `scanner/tests/flight_identity.rs`);
//! - asserts the enabled-telemetry overhead on the combined run is ≤ 5%
//!   (plus a small absolute slack so sub-second runs don't flake on
//!   scheduler noise) — the flight recorder's per-date window folding
//!   is inside that budget;
//! - emits the per-stage self-time profile table (span counts, real
//!   time, sim time) and the run's counters into `BENCH_profile.json`.
//!
//! ```sh
//! cargo run --release -p mtasts-bench --bin exp_profile
//! ```
//!
//! Set `RUN_TRACE=/path/to/trace.jsonl` to also stream every span and
//! event as JSON lines while the profiled (telemetry-on) pass runs.

use scanner::longitudinal::Study;
use scanner::Snapshot;
use serde::Serialize;
use std::time::Instant;

fn full_digest(snapshots: &[Snapshot]) -> String {
    let digest: Vec<_> = snapshots
        .iter()
        .map(|s| {
            let mut ips: Vec<_> = s
                .policy_ips
                .iter()
                .map(|(d, ip)| (d.to_string(), ip.to_string()))
                .collect();
            ips.sort();
            (s.date, &s.scans, ips)
        })
        .collect();
    serde_json::to_string(&digest).expect("snapshots serialize")
}

/// One combined study pass (the same work `exp_incremental` measures on
/// its incremental side): monthly full scans + weekly record series.
fn combined_run(study: &Study, threads: usize) -> (String, f64) {
    let start = Instant::now();
    let full = study.run_full_with_threads(threads);
    let _ = study.run_weekly_with_threads(threads);
    let secs = start.elapsed().as_secs_f64();
    (full_digest(&full), secs)
}

/// Best-of-2 timing: the second pass of each mode reuses warm page
/// caches and allocator state, so the minimum is the fair comparison.
fn timed_runs(study: &Study, threads: usize) -> (String, f64) {
    let (digest, first) = combined_run(study, threads);
    let (digest2, second) = combined_run(study, threads);
    assert_eq!(digest, digest2, "a repeated run must reproduce itself");
    (digest, first.min(second))
}

#[derive(Serialize)]
struct ProfileRowOut {
    stage: String,
    count: u64,
    real_ms: f64,
    mean_us: f64,
    sim_secs: u64,
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    seed: u64,
    scale: f64,
    threads: usize,
    digests_match: bool,
    telemetry_off_secs: f64,
    telemetry_on_secs: f64,
    overhead_pct: f64,
    /// Flight-recorder window counts from the telemetry-on pass — the
    /// overhead number above includes maintaining them.
    flight_sim_windows: u64,
    flight_wall_windows: u64,
    profile: Vec<ProfileRowOut>,
    counters: std::collections::BTreeMap<String, u64>,
    notes: &'static str,
}

fn main() {
    if std::env::var("MTASTS_SCALE").is_err() {
        std::env::set_var("MTASTS_SCALE", "0.05");
    }
    let config = mtasts_bench::config_from_env();
    let study = Study::new(mtasts_bench::ecosystem());
    let threads = scanner::default_scan_threads();
    eprintln!("# threads: {threads}");

    // Baseline: telemetry fully disabled (one atomic load per site).
    obsv::set_enabled(false);
    eprintln!("# combined run, telemetry off...");
    let (off_digest, off_secs) = timed_runs(&study, threads);

    // Profiled: collectors live, worker harvest/absorb active, the
    // flight recorder folding per-date windows, trace streaming if
    // RUN_TRACE is set.
    obsv::timeseries::set_flight(true);
    obsv::reset();
    eprintln!("# combined run, telemetry + flight recorder on...");
    let (on_digest, on_secs) = timed_runs(&study, threads);
    let collected = obsv::snapshot();
    let recorder = obsv::timeseries::take();
    obsv::trace::flush();
    obsv::set_enabled(false);
    let (flight_sim_windows, flight_wall_windows) = recorder
        .as_ref()
        .map(|r| (r.sim.iter().count() as u64, r.wall.iter().count() as u64))
        .unwrap_or((0, 0));

    assert_eq!(
        off_digest, on_digest,
        "telemetry must never change scan output"
    );

    let overhead_pct = (on_secs / off_secs - 1.0) * 100.0;
    let rows = obsv::export::profile_rows(&collected);
    println!("{}", obsv::export::profile_table(&rows));
    let quantiles = obsv::export::quantile_rows(&collected);
    if !quantiles.is_empty() {
        println!("{}", obsv::export::quantile_table(&quantiles));
    }
    println!(
        "telemetry off: {off_secs:.3}s  on: {on_secs:.3}s  overhead: {overhead_pct:+.2}%  \
         (acceptance: <=5%)"
    );

    let out = BenchReport {
        experiment: "exp_profile",
        seed: config.seed,
        scale: config.scale,
        threads,
        digests_match: true,
        telemetry_off_secs: off_secs,
        telemetry_on_secs: on_secs,
        overhead_pct,
        flight_sim_windows,
        flight_wall_windows,
        profile: rows
            .iter()
            .map(|r| ProfileRowOut {
                stage: r.name.clone(),
                count: r.count,
                real_ms: r.real_ns as f64 / 1e6,
                mean_us: r.mean_ns as f64 / 1e3,
                sim_secs: r.sim_secs,
            })
            .collect(),
        counters: collected
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        notes: "profile covers the telemetry-on combined run (2 passes merged) \
                with the flight recorder folding per-date windows; span \
                aggregates merge from worker collectors in shard order, so \
                the count/sim columns are deterministic — only real-time varies",
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("bench json"),
    )
    .expect("write BENCH_profile.json");
    eprintln!("# wrote {path}");

    // Noise guard: sub-second runs flake on scheduler jitter, so allow a
    // quarter second of absolute slack on top of the 5% criterion.
    assert!(
        on_secs <= off_secs * 1.05 + 0.25,
        "telemetry overhead {overhead_pct:.2}% exceeds the 5% acceptance ceiling \
         (off {off_secs:.3}s, on {on_secs:.3}s)"
    );
}
