//! `exp_e2e` — the end-to-end benchmark: four workloads through stable
//! public entry points, their end-to-end metrics, a traced run that
//! splits each workload's time into exclusive per-layer shares, and the
//! parent-versus-change rule. See README.md next to this file.
//!
//! ```sh
//! exp_e2e run <workload> [--seed N] [--seconds S] [--out FILE]
//! exp_e2e trace <workload> [--seed N] [--seconds S] [--out FILE]
//! exp_e2e compare <parent.json> <change.json>
//! exp_e2e --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Every measurement runs in a fresh child process (a re-exec of this
//! binary), so `VmHWM` is that run's own peak and the thread count is
//! fixed through `SCAN_THREADS` before the program reads it. Timings are
//! reported at reference speed (see `reference.rs`): each lap of a round
//! is divided by the host-speed readings taken around it.

mod layers;
mod reference;
mod stats;
mod workload;

use layers::{parse_spans, Lap, SpanTable, Stopwatch, ROUND_SPAN};
use reference::at_reference;
use serde::{Deserialize, Serialize};
use stats::{alternating_pairs, judge, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Body, Census, Delivery, Resolver, Size, Verdict, Weekly, FULL, NAMES};

const USAGE: &str = "usage:
  exp_e2e run <workload> [--seed N] [--seconds S] [--out FILE]
  exp_e2e trace <workload> [--seed N] [--seconds S] [--out FILE]
  exp_e2e compare <parent.json> <change.json>
  exp_e2e --workload W --seed N --seconds S --trace 0|1 [--out FILE]
workloads: census, weekly_1x, delivery, resolver";

/// The benchmark definition: metric names, units, directions and bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Thread count of every timed run. On a few shared vCPUs a second scan
/// thread is no faster than one (`parallel_efficiency` 0.3–0.6), and the
/// wall time of two threads measures how the host schedules them.
const TIMED_THREADS: usize = 1;

/// Thread count of the traced run's parallel child: 2, or 1 on a 1-CPU
/// host.
fn parallel_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Environment the telemetry layer reads; children start without it so a
/// caller's setting cannot turn an untimed run into a traced one.
const TELEMETRY_ENV: [&str; 5] = [
    "RUN_TRACE",
    "OBSV",
    "FLIGHT",
    "RUN_HEALTH",
    "RUN_HEALTH_STALL_MS",
];

#[derive(Debug, Clone, Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

impl MetricSpec {
    fn higher_better(&self) -> bool {
        self.better == "higher"
    }
}

#[derive(Debug, Deserialize)]
struct BenchSpec {
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn bench_spec() -> BenchSpec {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// The per-layer throughputs that `compare` also judges, each with the
/// bound of `norm_ops_per_s` (they are `norm_ops_per_s` restricted to one
/// phase).
const PHASE_RATES: [&str; 5] = [
    "plain_msgs_per_s",
    "enforce_msgs_per_s",
    "write_ops_per_s",
    "read_ops_per_s",
    "stale_ops_per_s",
];

// ---------------------------------------------------------------------
// Child: one measured configuration in a fresh process
// ---------------------------------------------------------------------

/// What a child process reports on its last stdout line: per set-up and
/// round, the time as measured and at reference speed, and every
/// reference reading taken.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ChildReport {
    setup_secs: Vec<f64>,
    setup_norm_secs: Vec<f64>,
    round_secs: Vec<f64>,
    round_norm_secs: Vec<f64>,
    ref_secs: Vec<f64>,
    ops: u64,
    attempted: u64,
    failed: u64,
    digest: String,
    pinned: Option<bool>,
    peak_rss_kb: u64,
    /// Per-round mean of each round's extra values, at reference speed.
    extra: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
}

/// Restates one of a round's extra values at reference speed, where
/// `scale` is the round's time at reference speed over its time as
/// measured: names ending in `_per_s` are rates, names ending in `_ms`
/// are times.
fn extra_at_reference(name: &str, value: f64, scale: f64) -> f64 {
    if name.ends_with("_per_s") {
        value / scale
    } else if name.ends_with("_ms") {
        value * scale
    } else {
        value
    }
}

/// Runs rounds while the next one still ends within `seconds` of the
/// start, set-ups and checks included (at least one round; exactly one
/// when `single`), checking each round's outputs after the clock stops.
/// Every round gets a fresh, separately timed set-up: no round inherits
/// state an earlier one left in its input. The host reference is read
/// before and after the set-up and at every seam of the round, so each
/// timing is also restated at reference speed. A traced child
/// (`RUN_TRACE` set) then reads its own trace back into per-layer
/// numbers.
fn drive<B: Body>(body: &B, seconds: f64, single: bool) -> ChildReport {
    let mut report = ChildReport::default();
    let mut first_digest = None;
    let sw = Stopwatch::default();
    let started = Instant::now();
    loop {
        let before_setup = sw.reference_secs();
        let t = Instant::now();
        let input = body.setup();
        let setup = t.elapsed().as_secs_f64();
        let after_setup = sw.start();
        let output = {
            let _s = obsv::span!(ROUND_SPAN);
            body.round(&input, &sw)
        };
        let laps = sw.finish();
        let round: f64 = laps.iter().map(|l| l.secs).sum();
        let round_norm: f64 = laps.iter().map(Lap::at_reference).sum();
        report.setup_secs.push(setup);
        report
            .setup_norm_secs
            .push(at_reference(setup, before_setup, after_setup));
        report.round_secs.push(round);
        report.round_norm_secs.push(round_norm);
        report.ref_secs.push(before_setup);
        report.ref_secs.extend(laps.iter().map(|l| l.before));
        report.ref_secs.extend(laps.last().map(|l| l.after));
        let v: Verdict = body.check(&input, output);
        drop(input);
        report.ops += v.ops;
        report.attempted += v.attempted;
        report.failed += v.failed;
        report.pinned = v.pinned;
        for (k, x) in v.extra {
            let x = extra_at_reference(&k, x, round_norm / round);
            *report.extra.entry(k).or_default() += x;
        }
        // Every repeat must reproduce the first round's outputs. The peak
        // is read after the first round, so it covers set-up plus one
        // round however many rounds fit.
        match first_digest {
            None => {
                first_digest = Some(v.digest);
                report.peak_rss_kb = obsv::health::peak_rss_kb();
            }
            Some(d) => {
                report.attempted += 1;
                report.failed += u64::from(d != v.digest);
            }
        }
        let spent = started.elapsed().as_secs_f64();
        let per_round = spent / report.round_secs.len() as f64;
        if single || spent + per_round > seconds {
            break;
        }
    }
    let rounds = report.round_secs.len() as f64;
    for x in report.extra.values_mut() {
        *x /= rounds;
    }
    report.digest = format!("{:016x}", first_digest.expect("one round ran"));
    if let Some(path) = std::env::var_os("RUN_TRACE") {
        obsv::trace::flush();
        let jsonl = std::fs::read_to_string(&path).expect("read own trace");
        let table = SpanTable::build(&parse_spans(&jsonl));
        let setup_ms = stats::median(&report.setup_secs) * 1e3;
        let l = body.layers(&table, setup_ms);
        let wall_ms = report.round_secs.iter().sum::<f64>() * 1e3;
        let other_ms = wall_ms - l.exclusive_ms.values().sum::<f64>();
        let other_pct = 100.0 * other_ms / wall_ms;
        report.layers = l.metrics;
        report.layers.insert("trace.wall_ms".into(), wall_ms);
        report.layers.insert("trace.other_pct".into(), other_pct);
        // The exclusive layer times must account for the traced wall
        // time, leaving at most 5% unattributed.
        report.attempted += 1;
        report.failed += u64::from(!(-1.0..=5.0).contains(&other_pct));
    }
    report
}

/// Runs `workload` in this process.
fn run_body(workload: &str, seed: u64, seconds: f64, single: bool, size: &Size) -> ChildReport {
    match workload {
        "census" => drive(&Census::new(seed, size), seconds, single),
        "weekly_1x" => drive(&Weekly::new(seed, size), seconds, single),
        "delivery" => drive(&Delivery::new(seed, size), seconds, single),
        "resolver" => drive(&Resolver::new(seed, size), seconds, single),
        other => unreachable!("unknown workload {other} passed validation"),
    }
}

// ---------------------------------------------------------------------
// Parent: children, metrics, results files
// ---------------------------------------------------------------------

/// Where traces and results go by default: `$CARGO_TARGET_DIR/exp_e2e`,
/// else `target/exp_e2e`.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("exp_e2e")
}

struct ChildSpec<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    threads: usize,
    single: bool,
    trace: Option<&'a Path>,
}

fn spawn_child(c: &ChildSpec) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", c.workload])
        .args(["--seed", &c.seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--single", if c.single { "1" } else { "0" }])
        .env("SCAN_THREADS", c.threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in TELEMETRY_ENV {
        cmd.env_remove(var);
    }
    if let Some(path) = c.trace {
        cmd.env("RUN_TRACE", path);
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} child failed: {}", c.workload, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("child printed no report")?;
    serde_json::from_str(line).map_err(|e| format!("child report: {e}"))
}

/// One benchmark run's printed result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Sample {
    workload: String,
    seed: u64,
    trace: bool,
    started_unix_ms: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The printed metrics.
    metrics: BTreeMap<String, f64>,
    /// Phase throughputs of the untraced run, judged by `compare` too.
    phases: BTreeMap<String, f64>,
    digest: String,
    pinned_digest_match: Option<bool>,
}

/// Every round does the same work, so the throughput is one round's work
/// over the median round, which a slow first round does not move. Times
/// are at reference speed.
fn e2e_metrics(a: &ChildReport) -> BTreeMap<String, f64> {
    let wall = stats::median(&a.round_norm_secs);
    let ops_per_round = a.ops as f64 / a.round_secs.len() as f64;
    BTreeMap::from([
        ("setup_s".to_string(), stats::median(&a.setup_norm_secs)),
        ("norm_wall_s".to_string(), wall),
        ("norm_ops_per_s".to_string(), ops_per_round / wall),
        ("peak_rss_mb".to_string(), a.peak_rss_kb as f64 / 1024.0),
    ])
}

fn phases_of(a: &ChildReport) -> BTreeMap<String, f64> {
    a.extra
        .iter()
        .filter(|(k, _)| PHASE_RATES.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Measures one workload: one child at [`TIMED_THREADS`], plus for a
/// traced run a one-round child at [`parallel_threads`] and a traced
/// one-round child at [`TIMED_THREADS`].
fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Sample, String> {
    let started_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let base = ChildSpec {
        workload,
        seed,
        seconds,
        threads: TIMED_THREADS,
        single: false,
        trace: None,
    };
    let a = spawn_child(&base)?;
    let mut sample = Sample {
        workload: workload.to_string(),
        seed,
        trace,
        started_unix_ms,
        correct: false,
        attempted: a.attempted,
        failed: a.failed,
        metrics: e2e_metrics(&a),
        phases: phases_of(&a),
        digest: a.digest.clone(),
        pinned_digest_match: a.pinned,
    };
    if trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let jsonl = dir.join(format!("{workload}-seed{seed}.trace.jsonl"));
        let _ = std::fs::remove_file(&jsonl);
        let one = ChildSpec {
            single: true,
            ..base
        };
        let parallel = ChildSpec {
            threads: parallel_threads(),
            ..one
        };
        let b = spawn_child(&parallel)?;
        let c = spawn_child(&ChildSpec {
            trace: Some(&jsonl),
            ..one
        })?;
        let text = std::fs::read_to_string(&jsonl).map_err(|e| format!("read trace: {e}"))?;
        let chrome = dir.join(format!("{workload}-seed{seed}.trace.json"));
        std::fs::write(&chrome, obsv::trace::chrome_trace(&text))
            .map_err(|e| format!("{}: {e}", chrome.display()))?;
        eprintln!(
            "# trace: {} (Perfetto: {})",
            jsonl.display(),
            chrome.display()
        );
        // The traced run's outputs equal the untraced run's, and more
        // threads give the same outputs as one.
        sample.attempted += b.attempted + c.attempted + 2;
        sample.failed += b.failed + c.failed;
        sample.failed += u64::from(b.digest != a.digest) + u64::from(c.digest != a.digest);
        let wall = |r: &ChildReport| stats::median(&r.round_norm_secs);
        let mut m = c.layers.clone();
        m.extend(a.extra.clone());
        m.insert(
            "parallel_efficiency".into(),
            wall(&a) / (parallel.threads as f64 * wall(&b)),
        );
        m.insert(
            "trace_overhead_pct".into(),
            100.0 * (wall(&c) - wall(&a)) / wall(&a),
        );
        m.insert("host.ref_ms".into(), stats::median(&a.ref_secs) * 1e3);
        m.insert("host.raw_wall_s".into(), stats::median(&a.round_secs));
        sample.metrics = m;
    }
    sample.correct = sample.failed == 0;
    Ok(sample)
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Host {
    nproc: usize,
    cpu_model: String,
    rustc: String,
    git_rev: String,
    git_dirty: Option<bool>,
    kernel: String,
    scan_threads: usize,
}

/// Trimmed stdout of a command run in the current directory, or `None`.
/// Git stops at the current directory's parent, so a checkout that is
/// not a repository never reads one above it.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        git_rev: command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        git_dirty: command_output("git", &["status", "--porcelain", "--untracked-files=no"])
            .map(|s| !s.is_empty()),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        scan_threads: TIMED_THREADS,
    }
}

/// A results file: the host, every sample, and per-workload summaries.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Results {
    host: Option<Host>,
    samples: Vec<Sample>,
    summary: BTreeMap<String, BTreeMap<String, Summary>>,
}

fn read_results(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `sample` to the results file at `path` (created when missing
/// or unreadable) and refreshes its host block and summaries.
fn append_sample(path: &Path, sample: Sample, spec: &BenchSpec) -> Result<(), String> {
    let mut results = read_results(path).unwrap_or_default();
    results.host = Some(host());
    results.samples.push(sample);
    let units: BTreeMap<&str, &str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    results.summary.clear();
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for s in &results.samples {
        let failed_frac = s.failed as f64 / s.attempted.max(1) as f64;
        let all = s
            .metrics
            .iter()
            .chain(&s.phases)
            .map(|(k, v)| (k.as_str(), *v));
        for (name, v) in all.chain([("failed_frac", failed_frac)]) {
            values
                .entry((s.workload.clone(), name.to_string()))
                .or_default()
                .push(v);
        }
    }
    for ((workload, name), v) in values {
        let unit = units.get(name.as_str()).copied().unwrap_or("ratio");
        results
            .summary
            .entry(workload)
            .or_default()
            .insert(name, Summary::of(unit, &v));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricOut>,
}

/// Measures, prints `name value unit` lines and the JSON result line,
/// and appends to the results file. Exit code 1 when a check failed.
fn run_command(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
) -> Result<i32, String> {
    let spec = bench_spec();
    let sample = measure(workload, seed, seconds, trace)?;
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = BTreeMap::new();
    for m in declared {
        // A layer this workload never enters reads 0.
        let value = sample.metrics.get(&m.name).copied().unwrap_or(0.0);
        println!("{} {value} {}", m.name, m.unit);
        metrics.insert(
            m.name.clone(),
            MetricOut {
                value,
                unit: m.unit.clone(),
            },
        );
    }
    if let Some(matched) = sample.pinned_digest_match {
        eprintln!(
            "# pinned digest {}: {}",
            sample.digest,
            if matched { "match" } else { "MISMATCH" }
        );
    }
    let path = out.unwrap_or_else(|| out_dir().join("results.json"));
    let code = i32::from(!sample.correct);
    let line = ResultLine {
        correct: sample.correct,
        attempted: sample.attempted,
        failed: sample.failed,
        metrics,
    };
    append_sample(&path, sample, &spec)?;
    eprintln!("# results appended to {}", path.display());
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(code)
}

/// `compare`: judges every (metric, workload) the two results files
/// share. Exit code 1 when anything regressed.
fn compare_command(parent: &Path, change: &Path) -> Result<i32, String> {
    let spec = bench_spec();
    let (p, c) = (read_results(parent)?, read_results(change)?);
    let ops_bound = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "norm_ops_per_s")
        .and_then(|m| m.bound)
        .expect("norm_ops_per_s has a bound");
    let mut judged: Vec<MetricSpec> = spec.end_to_end.clone();
    judged.extend(PHASE_RATES.iter().map(|name| MetricSpec {
        name: name.to_string(),
        unit: "1/s".into(),
        better: "higher".into(),
        bound: Some(ops_bound),
    }));
    let mut regressed = false;
    println!(
        "{:<10} {:<20} {:>14} {:>14} {:>7} verdict",
        "workload", "metric", "parent", "change", "bound"
    );
    for workload in NAMES {
        let series = |r: &Results, name: &str| -> Vec<(u64, f64)> {
            r.samples
                .iter()
                .filter(|s| s.workload == workload && !s.trace)
                .filter_map(|s| {
                    s.metrics
                        .get(name)
                        .or(s.phases.get(name))
                        .map(|v| (s.started_unix_ms, *v))
                })
                .collect()
        };
        for m in &judged {
            let (ps, cs) = (series(&p, &m.name), series(&c, &m.name));
            if ps.is_empty() && cs.is_empty() {
                continue;
            }
            let bound = m.bound.expect("judged metrics have a bound");
            let Some(pairs) = alternating_pairs(&ps, &cs) else {
                return Err(format!(
                    "{workload} {}: needs at least {} alternating parent/change pairs ({} vs {} runs)",
                    m.name,
                    stats::MIN_PAIRS,
                    ps.len(),
                    cs.len()
                ));
            };
            let verdict = judge(&pairs, bound, m.higher_better());
            regressed |= verdict == stats::Verdict::Regressed;
            let (pv, cv): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
            println!(
                "{workload:<10} {:<20} {:>14.6} {:>14.6} {:>6.0}% {}",
                m.name,
                stats::median(&pv),
                stats::median(&cv),
                bound * 100.0,
                verdict.label()
            );
        }
        // Any rise in the share of failed checks is a regression.
        let frac = |r: &Results| {
            let (f, a) = r
                .samples
                .iter()
                .filter(|s| s.workload == workload && !s.trace)
                .fold((0u64, 0u64), |(f, a), s| (f + s.failed, a + s.attempted));
            (a > 0).then(|| f as f64 / a as f64)
        };
        if let (Some(pf), Some(cf)) = (frac(&p), frac(&c)) {
            let verdict = if cf > pf { "regressed" } else { "unchanged" };
            regressed |= cf > pf;
            println!(
                "{workload:<10} {:<20} {pf:>14.6} {cf:>14.6} {:>7} {verdict}",
                "failed_frac", "0"
            );
        }
    }
    Ok(i32::from(regressed))
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

/// Positional arguments and `--key value` options.
fn split_args(args: &[String]) -> Result<(Vec<&str>, BTreeMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut options = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                options.insert(key, value.as_str());
            }
            None => positional.push(a.as_str()),
        }
    }
    Ok((positional, options))
}

fn option<T: std::str::FromStr>(
    options: &BTreeMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    options.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("--{key}: bad value {v:?}"))
    })
}

fn workload_arg(name: Option<&str>) -> Result<&'static str, String> {
    let name = name.ok_or("missing workload")?;
    NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (pos, opts) = split_args(args)?;
    let seed: u64 = option(&opts, "seed", 42)?;
    let seconds: f64 = option(&opts, "seconds", 20.0)?;
    let out = opts.get("out").map(PathBuf::from);
    match pos.first().copied() {
        Some("child") => {
            let workload = workload_arg(pos.get(1).copied())?;
            let single = option(&opts, "single", 0u8)? == 1;
            let report = run_body(workload, seed, seconds, single, &FULL);
            println!(
                "{}",
                serde_json::to_string(&report).map_err(|e| e.to_string())?
            );
            Ok(0)
        }
        Some(cmd @ ("run" | "trace")) => {
            let workload = workload_arg(pos.get(1).copied())?;
            run_command(workload, seed, seconds, cmd == "trace", out)
        }
        Some("compare") => match (pos.get(1), pos.get(2)) {
            (Some(p), Some(c)) => compare_command(Path::new(p), Path::new(c)),
            _ => Err("compare needs two results files".into()),
        },
        None if opts.contains_key("workload") => {
            let workload = workload_arg(opts.get("workload").copied())?;
            let trace = match opts.get("trace").copied().unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
            };
            run_command(workload, seed, seconds, trace, out)
        }
        _ => Err("no command".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = dispatch(&args).unwrap_or_else(|msg| {
        eprintln!("exp_e2e: {msg}\n{USAGE}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_body_runs_tiny_without_failures() {
        for workload in NAMES {
            let r = run_body(workload, 42, 0.0, true, &workload::TINY);
            assert!(r.attempted > 0 && r.ops > 0, "{workload}: {r:?}");
            assert_eq!(r.failed, 0, "{workload}: {r:?}");
            assert_eq!((r.setup_secs.len(), r.round_secs.len()), (1, 1));
        }
    }

    /// A body whose round `n` digests to `n * step`.
    struct Drift {
        step: u64,
        round: std::cell::Cell<u64>,
    }

    impl Body for Drift {
        type Input = ();
        type Output = u64;
        fn setup(&self) {}
        fn round(&self, _: &(), _: &Stopwatch) -> u64 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let n = self.round.get();
            self.round.set(n + 1);
            n * self.step
        }
        fn check(&self, _: &(), digest: u64) -> Verdict {
            Verdict {
                digest,
                ops: 1,
                attempted: 1,
                ..Verdict::default()
            }
        }
        fn layers(&self, _: &SpanTable, _: f64) -> workload::Layers {
            workload::Layers::default()
        }
    }

    #[test]
    fn repeated_rounds_must_reproduce_the_first() {
        for step in [0, 1] {
            let body = Drift {
                step,
                round: Default::default(),
            };
            // Each round also takes three host-reference readings of a few
            // tens of milliseconds, so a second is several rounds.
            let r = drive(&body, 1.0, false);
            let rounds = r.round_secs.len() as u64;
            assert!(rounds > 1, "{r:?}");
            // One check per round, plus one repeat comparison per round
            // after the first; every repeat of a drifting body fails.
            assert_eq!(r.attempted, 2 * rounds - 1);
            assert_eq!(r.failed, step * (rounds - 1));
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_bench_emits() {
        let spec = bench_spec();
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "norm_wall_s", "norm_ops_per_s", "peak_rss_mb"]
        );
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        for name in PHASE_RATES {
            assert!(declared.contains(&name), "{name}");
        }
    }
}
