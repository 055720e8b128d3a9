//! Scale sweep of the streaming ecosystem engine (DESIGN.md "Streaming
//! ecosystem engine", EXPERIMENTS.md `exp_scale`): wall-clock and peak
//! RSS of the weekly longitudinal series at scale ∈ {0.05, 0.1, 0.25,
//! 0.5, 1.0}, stepping toward the paper's 87M-domain zone files. The
//! 1.0 step reproduces the paper's absolute population (~68k MTA-STS
//! domains).
//!
//! Every child step runs with the flight recorder on
//! (`obsv::timeseries`) and reports its [`obsv::health::RunManifest`]
//! identity digest plus window counts, so BENCH_ecosystem.json carries
//! a verifiable fingerprint of each recorded row.
//!
//! Each step runs in a fresh child process (re-exec of this binary with
//! `MTASTS_SCALE_STEP` set) because `VmHWM` — the peak-RSS high-water
//! mark in `/proc/self/status` — is cumulative per process and would
//! otherwise carry the largest scale's footprint into every smaller
//! step's reading.
//!
//! Asserted acceptance criteria:
//!
//! - the weekly digest at scale 0.05 is identical for 1 and 8 scan
//!   threads (thread count is unobservable);
//! - `snapshot.weekly` mean self-time at scale 0.05 is ≥3× below the
//!   pre-streaming baseline of 7590.769 µs/call (a per-stage profile
//!   of the O(population) weekly loop);
//! - peak RSS stays sub-linear in scale: per step, total RSS may grow
//!   at most as fast as the domain population (a super-linear jump
//!   means an O(population × dates) regression), and the per-domain
//!   peak RSS must not increase as the fixed process floor amortizes.
//!   (Measured marginal cost is flat at ~6 kB/domain — the population
//!   itself is resident, so total RSS is inherently linear in scale and
//!   a 1.5×-per-doubling bound on the total is unsatisfiable.)
//!
//! ```sh
//! cargo run --release -p mtasts-bench --bin exp_scale
//! ```
//!
//! `MTASTS_SCALE_MAX` caps the sweep (CI uses 0.25 to stay inside its
//! timeout; the recorded EXPERIMENTS.md run uses the full 1.0).

use ecosystem::EcosystemConfig;
use obsv::health::fnv64;
use scanner::longitudinal::{MxHistory, Study, WeeklyPoint};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Pre-streaming `snapshot.weekly` mean at scale 0.05 (µs/call), from a
/// per-stage profile of the O(population) weekly loop.
const BASELINE_WEEKLY_MEAN_US: f64 = 7590.769;

/// Required speedup over the baseline at scale 0.05.
const REQUIRED_SPEEDUP: f64 = 3.0;

/// Slack on the linear-in-scale peak-RSS ceiling (VmHWM granularity,
/// allocator noise).
const RSS_LINEAR_SLACK: f64 = 1.10;

/// Slack on the per-domain peak-RSS monotonicity check.
const RSS_PER_DOMAIN_SLACK: f64 = 1.05;

const SWEEP: [f64; 5] = [0.05, 0.1, 0.25, 0.5, 1.0];

/// One step's measurements, as serialized by the child process.
#[derive(Debug, Serialize, Deserialize)]
struct StepReport {
    scale: f64,
    threads: usize,
    domains: usize,
    generate_secs: f64,
    weekly_secs: f64,
    snapshot_weekly_calls: u64,
    snapshot_weekly_mean_us: f64,
    peak_rss_kb: u64,
    weekly_digest: String,
    /// Identity digest of the step's [`obsv::health::RunManifest`] —
    /// a pure function of seed, config, and outputs, so a re-run of the
    /// same row must reproduce it bit-for-bit.
    manifest_identity_digest: String,
    /// Flight-recorder window counts for the step (execution detail).
    sim_windows: u64,
    wall_windows: u64,
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    seed: u64,
    baseline_snapshot_weekly_mean_us: f64,
    required_speedup: f64,
    speedup_at_smallest_scale: f64,
    digest_parity_threads_1_8: bool,
    rss_linear_slack: f64,
    rss_per_domain_slack: f64,
    steps: Vec<StepReport>,
    notes: &'static str,
}

/// Canonical weekly digest (sorted maps, sorted history), FNV-hashed.
fn weekly_digest(points: &[WeeklyPoint], history: &MxHistory) -> String {
    let mut out = String::new();
    for p in points {
        let sorted = |m: &std::collections::HashMap<ecosystem::TldId, u64>| {
            let mut v: Vec<_> = m.iter().map(|(t, c)| (format!("{t:?}"), *c)).collect();
            v.sort();
            v
        };
        out.push_str(&format!(
            "{:?} {:?} {:?}\n",
            p.date,
            sorted(&p.mtasts_per_tld),
            sorted(&p.tlsrpt_among_mtasts_per_tld)
        ));
    }
    let mut hist: Vec<String> = history.iter().map(|(d, v)| format!("{d} {v:?}")).collect();
    hist.sort();
    for line in hist {
        out.push_str(&line);
        out.push('\n');
    }
    format!("{:016x}", fnv64(out.as_bytes()))
}

/// `VmHWM` (peak resident set, kB) of this process.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Child mode: one scale step in a fresh process, JSON report on stdout.
fn run_step(seed: u64, scale: f64, threads: usize) -> ! {
    let config = EcosystemConfig::paper(seed, scale);
    let t0 = Instant::now();
    let eco = ecosystem::Ecosystem::generate(config.clone());
    let generate_secs = t0.elapsed().as_secs_f64();
    let domains = eco.population.domains.len();

    let study = Study::new(eco);
    // Flight recorder on: per-date windows accumulate alongside the
    // base collector without touching the scan path.
    obsv::timeseries::set_flight(true);
    obsv::reset();
    let t1 = Instant::now();
    let (points, history, _stats) = study.run_weekly_with_threads(threads);
    let weekly_secs = t1.elapsed().as_secs_f64();
    let collected = obsv::snapshot();

    let rows = obsv::export::profile_rows(&collected);
    let weekly_row = rows
        .iter()
        .find(|r| r.name == "snapshot.weekly")
        .expect("the weekly driver emits snapshot.weekly spans");

    let digest = weekly_digest(&points, &history);
    let mut manifest = obsv::health::RunManifest {
        experiment: "exp_scale.step".to_string(),
        seed,
        config_digest: fnv64(format!("{config:?}").as_bytes()),
        output_digest: fnv64(digest.as_bytes()),
        threads: threads as u64,
        wall_ms: (weekly_secs * 1e3) as u64,
        ..Default::default()
    };
    manifest
        .totals
        .insert("domains".to_string(), domains as u64);
    manifest
        .totals
        .insert("weekly_points".to_string(), points.len() as u64);
    manifest.capture_execution();
    // CI artifact hook: children run sequentially, so the last sweep
    // child (the largest scale) leaves the manifest that gets uploaded.
    if let Ok(path) = std::env::var("MTASTS_SCALE_MANIFEST") {
        if !path.is_empty() {
            manifest
                .write(std::path::Path::new(&path))
                .expect("write step manifest");
        }
    }
    let (sim_windows, wall_windows) = (
        manifest
            .sim_windows
            .as_ref()
            .map_or(0, |s| s.iter().count() as u64),
        manifest
            .wall_windows
            .as_ref()
            .map_or(0, |s| s.iter().count() as u64),
    );
    obsv::set_enabled(false);

    let report = StepReport {
        scale,
        threads,
        domains,
        generate_secs,
        weekly_secs,
        snapshot_weekly_calls: weekly_row.count,
        snapshot_weekly_mean_us: weekly_row.mean_ns as f64 / 1e3,
        peak_rss_kb: peak_rss_kb(),
        weekly_digest: digest,
        manifest_identity_digest: format!("{:016x}", manifest.identity_digest()),
        sim_windows,
        wall_windows,
    };
    println!("{}", serde_json::to_string(&report).expect("step json"));
    std::process::exit(0);
}

/// Spawns a child step and parses its report.
fn spawn_step(seed: u64, scale: f64, threads: usize) -> StepReport {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .env("MTASTS_SEED", seed.to_string())
        .env("MTASTS_SCALE_STEP", scale.to_string())
        .env("MTASTS_SCALE_THREADS", threads.to_string())
        .output()
        .expect("spawn step child");
    assert!(
        out.status.success(),
        "step scale={scale} threads={threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 step output");
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .expect("step child prints a JSON report");
    serde_json::from_str(line).expect("step report parses")
}

fn main() {
    // Child mode: run exactly one scale step and exit.
    if let Ok(step) = std::env::var("MTASTS_SCALE_STEP") {
        let seed = std::env::var("MTASTS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        let scale: f64 = step.parse().expect("MTASTS_SCALE_STEP is a scale");
        let threads: usize = std::env::var("MTASTS_SCALE_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        run_step(seed, scale, threads);
    }

    let seed: u64 = std::env::var("MTASTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let scale_max: f64 = std::env::var("MTASTS_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);

    // Thread-parity gate at the smallest scale: 1 vs 8 scan threads
    // must digest identically.
    let smallest = SWEEP[0];
    eprintln!("# scale {smallest}: threads=1 (parity reference)...");
    let one_thread = spawn_step(seed, smallest, 1);
    eprintln!("# scale {smallest}: threads=8...");
    let first = spawn_step(seed, smallest, 8);
    let digest_parity = one_thread.weekly_digest == first.weekly_digest;
    assert!(
        digest_parity,
        "weekly digest diverges across scan threads at scale {smallest}: \
         {} (1 thread) vs {} (8 threads)",
        one_thread.weekly_digest, first.weekly_digest
    );

    let speedup = BASELINE_WEEKLY_MEAN_US / first.snapshot_weekly_mean_us;
    eprintln!(
        "# snapshot.weekly at {smallest}: {:.1} µs/call ({speedup:.1}x over the \
         {BASELINE_WEEKLY_MEAN_US} µs baseline; acceptance >= {REQUIRED_SPEEDUP}x)",
        first.snapshot_weekly_mean_us
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "snapshot.weekly mean {:.1} µs at scale {smallest} misses the required \
         {REQUIRED_SPEEDUP}x speedup over the {BASELINE_WEEKLY_MEAN_US} µs baseline",
        first.snapshot_weekly_mean_us
    );

    let mut steps = vec![first];
    for &scale in &SWEEP[1..] {
        if scale > scale_max + 1e-9 {
            eprintln!("# scale {scale}: skipped (MTASTS_SCALE_MAX={scale_max})");
            continue;
        }
        eprintln!("# scale {scale}: threads=8...");
        steps.push(spawn_step(seed, scale, 8));
    }

    // Peak-RSS growth: the resident population makes total RSS linear
    // in scale (~3 kB/domain marginal), so the gate is two-sided:
    // total growth per step must not exceed the population ratio
    // (super-linear ⇒ an O(population × dates) regression), and the
    // per-domain peak must not rise — the fixed process floor can only
    // amortize as scale grows.
    for pair in steps.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let ratio = b.domains as f64 / a.domains as f64;
        let allowed = ratio * RSS_LINEAR_SLACK;
        let growth = b.peak_rss_kb as f64 / a.peak_rss_kb as f64;
        let per_a = a.peak_rss_kb as f64 / a.domains as f64;
        let per_b = b.peak_rss_kb as f64 / b.domains as f64;
        eprintln!(
            "# rss {}kB @{} -> {}kB @{}: {growth:.2}x (allowed {allowed:.2}x), \
             {per_a:.2} -> {per_b:.2} kB/domain",
            a.peak_rss_kb, a.scale, b.peak_rss_kb, b.scale
        );
        assert!(
            growth <= allowed,
            "peak RSS grew {growth:.2}x from scale {} to {} (allowed {allowed:.2}x): \
             super-linear memory",
            a.scale,
            b.scale
        );
        assert!(
            per_b <= per_a * RSS_PER_DOMAIN_SLACK,
            "per-domain peak RSS rose from {per_a:.2} to {per_b:.2} kB/domain \
             between scale {} and {}: the fixed floor must amortize",
            a.scale,
            b.scale
        );
    }

    for s in &steps {
        eprintln!(
            "# scale {}: {} domains, generate {:.2}s, weekly {:.2}s, \
             snapshot.weekly {:.1} µs/call x{}, peak RSS {} kB, digest {}",
            s.scale,
            s.domains,
            s.generate_secs,
            s.weekly_secs,
            s.snapshot_weekly_mean_us,
            s.snapshot_weekly_calls,
            s.peak_rss_kb,
            s.weekly_digest
        );
    }

    let out = BenchReport {
        experiment: "exp_scale",
        seed,
        baseline_snapshot_weekly_mean_us: BASELINE_WEEKLY_MEAN_US,
        required_speedup: REQUIRED_SPEEDUP,
        speedup_at_smallest_scale: speedup,
        digest_parity_threads_1_8: digest_parity,
        rss_linear_slack: RSS_LINEAR_SLACK,
        rss_per_domain_slack: RSS_PER_DOMAIN_SLACK,
        steps,
        notes: "each step runs in a fresh child process so VmHWM isolates that \
                scale's peak; weekly digests are canonical (sorted maps/history) \
                and thread-count invariant; the 1-thread step is the parity \
                reference and is not part of the sweep; every step runs with \
                the flight recorder on and reports its RunManifest identity \
                digest (seed + config + outputs, execution-independent)",
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ecosystem.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("bench json"),
    )
    .expect("write BENCH_ecosystem.json");
    eprintln!("# wrote {path}");
}
