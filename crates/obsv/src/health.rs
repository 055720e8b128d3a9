//! Run-health layer: RSS watermarks, progress/ETA/stall tracking, and
//! the end-of-run [`RunManifest`].
//!
//! A multi-minute scale-1.0 study needs three things the end-of-run
//! aggregates can't give: *is it still moving* (progress + stall
//! detection), *is memory creeping* (RSS/VmHWM sampling, the same
//! `/proc/self/status` probe `exp_scale` uses for its child-process
//! watermarks), and *what run was this, exactly* (the manifest: seed,
//! config digest, output digest, per-stage profile, peak memory).
//!
//! # Streaming vs. manifest
//!
//! Progress is streamed as JSONL while the run is live — set the
//! `RUN_HEALTH` environment variable to a file path and every
//! [`progress`] call appends one line:
//!
//! ```text
//! {"kind":"progress","label":"scan.full","done":12,"total":100,"rate_milli":4100,"eta_secs":21,"rss_kb":51234,"ts_us":812345}
//! {"kind":"stall","label":"scan.full","gap_ms":31007,"ts_us":31819352}
//! ```
//!
//! Like the trace, the stream is an execution log (wall-clock rates,
//! interleaving) — not a digest artifact. The manifest splits the same
//! way, explicitly: its **identity** section (experiment, seed, config
//! digest, output digest, deterministic totals) is a pure function of
//! the work and is what the kill/resume test compares; its
//! **execution** section (wall time, peak RSS, threads, stage profile,
//! flight-recorder windows) describes *this particular* execution and
//! legitimately differs between a resumed and an uninterrupted run —
//! a resumed run restores completed dates from the checkpoint instead
//! of rescanning them, so its wall clock and window deltas must
//! differ while its identity must not.
//!
//! # Stall detection
//!
//! A stall is an inter-progress gap exceeding the threshold
//! (`RUN_HEALTH_STALL_MS`, default 30 000). Detection is post-hoc at
//! the next update — the recorder has no watchdog thread, because a
//! thread that wakes on wall-clock timers is exactly the kind of
//! nondeterminism this crate exists to avoid. A run that hangs
//! *forever* is caught by the absence of further JSONL lines, which is
//! what an operator tails anyway.

use crate::export::ProfileRow;
use crate::timeseries::WindowSeries;
use crate::trace::{escape_into, ts_us};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// FNV-1a (the workspace-wide digest primitive)
// ---------------------------------------------------------------------

/// FNV-1a 64-bit's offset basis: the hash of the empty string, where a
/// streamed hash starts.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over a byte string — the digest primitive of both
/// checkpoint headers, the ledger and resolution digests, the ecosystem
/// fingerprints and the bench binaries.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_OFFSET, bytes)
}

/// Continues the FNV-1a 64-bit hash `h` over `bytes`, for callers that
/// hash in pieces: `fnv64_extend(fnv64(a), b) == fnv64(a ++ b)`.
#[inline]
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Sealed files and atomic writes
// ---------------------------------------------------------------------

/// Seals `payload` behind a `<magic> <len> <fnv64>` header line: the
/// payload's byte length and its [`fnv64`] as 16 hex digits. Both
/// checkpoint formats (`MTASTS-CKPT3`, `MTASTS-DLVQ2`) are this framing
/// over JSON, each with its own magic.
pub fn seal(magic: &str, payload: &str) -> String {
    format!(
        "{magic} {} {:016x}\n{payload}",
        payload.len(),
        fnv64(payload.as_bytes())
    )
}

/// The payload that [`seal`] framed in `text` under `magic`; `None` on
/// any mismatch — another magic, a malformed header, a truncated or
/// extended payload, a hash that does not vouch for it.
pub fn unseal<'a>(magic: &str, text: &'a str) -> Option<&'a str> {
    let (header, payload) = text.split_once('\n')?;
    let mut fields = header.split(' ');
    if fields.next() != Some(magic) {
        return None;
    }
    let len: usize = fields.next()?.parse().ok()?;
    let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
    let intact =
        fields.next().is_none() && payload.len() == len && fnv64(payload.as_bytes()) == hash;
    intact.then_some(payload)
}

/// Writes `contents` to `path` atomically: first a temp sibling named
/// for this writer (pid and a process-wide sequence, so writers sharing
/// a directory never clobber each other's), then a rename over `path`,
/// which therefore always holds either the old or the new contents in
/// full. On failure the temp file is removed and the error returned.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    static WRITER_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITER_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

// ---------------------------------------------------------------------
// RSS probes (/proc/self/status)
// ---------------------------------------------------------------------

fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// Peak resident set size (VmHWM) of this process in kB; 0 where
/// `/proc` is unavailable. Cumulative per process — `exp_scale` re-execs
/// itself per step for exactly this reason.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set size (VmRSS) in kB; 0 where `/proc` is
/// unavailable.
pub fn current_rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

// ---------------------------------------------------------------------
// Progress stream
// ---------------------------------------------------------------------

static HEALTH_WRITER: OnceLock<Option<Mutex<BufWriter<std::fs::File>>>> = OnceLock::new();

fn health_writer() -> Option<&'static Mutex<BufWriter<std::fs::File>>> {
    HEALTH_WRITER
        .get_or_init(|| {
            let path = std::env::var_os("RUN_HEALTH").filter(|v| !v.is_empty())?;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .ok()?;
            Some(Mutex::new(BufWriter::new(file)))
        })
        .as_ref()
}

/// Whether the progress stream is active (`RUN_HEALTH` named a writable
/// path).
pub fn health_active() -> bool {
    health_writer().is_some()
}

fn write_health_line(line: &str) {
    if let Some(w) = health_writer() {
        if let Ok(mut w) = w.lock() {
            let _ = writeln!(w, "{line}");
        }
    }
}

/// Flushes buffered progress lines (end-of-run; mirrors
/// [`crate::trace::flush`]).
pub fn flush() {
    if let Some(w) = health_writer() {
        if let Ok(mut w) = w.lock() {
            let _ = w.flush();
        }
    }
}

fn stall_threshold_ms() -> u64 {
    static MS: OnceLock<u64> = OnceLock::new();
    *MS.get_or_init(|| {
        std::env::var("RUN_HEALTH_STALL_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30_000)
    })
}

struct ProgressState {
    started: Instant,
    last_update: Option<Instant>,
    stalls: u64,
}

static PROGRESS: Mutex<Option<ProgressState>> = Mutex::new(None);

/// One progress snapshot, as computed by [`progress`] (returned so
/// callers — and tests — can see what was derived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressReport {
    /// Work units completed so far.
    pub done: u64,
    /// Total work units (0 when unknown).
    pub total: u64,
    /// Throughput in milli-units per second (integer arithmetic: a
    /// rate of 4.1 domains/sec reports 4100).
    pub rate_milli: u64,
    /// Estimated seconds to completion (0 when rate or total unknown).
    pub eta_secs: u64,
    /// Current VmRSS sample in kB.
    pub rss_kb: u64,
    /// Whether this update closed a stall gap.
    pub stalled: bool,
}

/// Derives rate/ETA from raw elapsed time — pure integer arithmetic,
/// kept separate so the math is unit-testable without wall clocks.
pub fn derive_progress(done: u64, total: u64, elapsed_ms: u64, rss_kb: u64) -> ProgressReport {
    let rate_milli = if elapsed_ms == 0 {
        0
    } else {
        (done as u128 * 1_000_000 / elapsed_ms as u128) as u64
    };
    let eta_secs = if rate_milli == 0 || total <= done {
        0
    } else {
        ((total - done) as u128 * 1000 / rate_milli as u128) as u64
    };
    ProgressReport {
        done,
        total,
        rate_milli,
        eta_secs,
        rss_kb,
        stalled: false,
    }
}

/// Records a progress tick for a named stage: derives throughput and
/// ETA, samples VmRSS, stages RSS as a flight-recorder gauge, detects
/// stalls (gap since the previous tick above the threshold), and
/// appends a JSONL line when `RUN_HEALTH` is active. Cheap when
/// neither the health stream nor the flight recorder is on.
pub fn progress(label: &'static str, done: u64, total: u64) -> Option<ProgressReport> {
    if !health_active() && !crate::timeseries::flight_enabled() {
        return None;
    }
    let now = Instant::now();
    let mut guard = PROGRESS.lock().unwrap_or_else(|p| p.into_inner());
    let state = guard.get_or_insert_with(|| ProgressState {
        started: now,
        last_update: None,
        stalls: 0,
    });
    let elapsed_ms =
        u64::try_from(now.duration_since(state.started).as_millis()).unwrap_or(u64::MAX);
    let gap_ms = state
        .last_update
        .map(|t| u64::try_from(now.duration_since(t).as_millis()).unwrap_or(u64::MAX));
    state.last_update = Some(now);
    let stalled = gap_ms.is_some_and(|g| g >= stall_threshold_ms());
    if stalled {
        state.stalls += 1;
    }
    let stalls = state.stalls;
    drop(guard);

    let rss = current_rss_kb();
    let mut report = derive_progress(done, total, elapsed_ms, rss);
    report.stalled = stalled;

    crate::timeseries::gauge("health.rss_kb", rss);
    if stalled {
        crate::counter!("health.stalls_total");
    }

    if health_active() {
        if let Some(gap) = gap_ms.filter(|_| stalled) {
            let mut line = String::with_capacity(96);
            line.push_str("{\"kind\":\"stall\",\"label\":\"");
            escape_into(&mut line, label);
            line.push_str(&format!(
                "\",\"gap_ms\":{gap},\"stalls\":{stalls},\"ts_us\":{}}}",
                ts_us()
            ));
            write_health_line(&line);
        }
        let mut line = String::with_capacity(160);
        line.push_str("{\"kind\":\"progress\",\"label\":\"");
        escape_into(&mut line, label);
        line.push_str(&format!(
            "\",\"done\":{},\"total\":{},\"rate_milli\":{},\"eta_secs\":{},\"rss_kb\":{},\"ts_us\":{}}}",
            report.done,
            report.total,
            report.rate_milli,
            report.eta_secs,
            report.rss_kb,
            ts_us()
        ));
        write_health_line(&line);
    }
    Some(report)
}

/// Stalls observed so far (manifest assembly reads this).
pub fn stall_count() -> u64 {
    PROGRESS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(|s| s.stalls)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// RunManifest
// ---------------------------------------------------------------------

/// The end-of-run manifest: what ran (identity) and how it ran
/// (execution). Written next to the checkpoint as
/// `<checkpoint>.manifest.json` and by the bench binaries next to
/// their reports.
///
/// The identity section is deterministic — same seed, same config,
/// same outputs ⇒ same [`RunManifest::identity_digest`], regardless of
/// thread count, flight recorder, or kill/resume. The execution
/// section is this execution's log and carries no such guarantee.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Experiment name ("scan.full_supervised", "exp_scale.step", ...).
    pub experiment: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// Digest of the run configuration.
    pub config_digest: u64,
    /// Digest of the run's outputs (snapshot fingerprints, ledger
    /// digests — whatever the driver considers its product).
    pub output_digest: u64,
    /// Deterministic named totals (error taxonomy counts, domain
    /// counts) — kill/resume-stable by construction.
    pub totals: BTreeMap<String, u64>,
    /// Worker thread count used.
    pub threads: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// Peak resident set size (VmHWM) in kB.
    pub peak_rss_kb: u64,
    /// Stalls detected by the progress layer.
    pub stalls: u64,
    /// Per-stage self-time profile (sorted by real time desc).
    pub profile: Vec<ProfileRow>,
    /// Flight-recorder sim-keyed windows, when recording was on.
    pub sim_windows: Option<WindowSeries>,
    /// Flight-recorder wall-keyed windows, when recording was on.
    pub wall_windows: Option<WindowSeries>,
}

impl RunManifest {
    /// The identity section as canonical JSON — the digest input.
    pub fn identity_json(&self) -> String {
        let mut out = String::from("{\"experiment\":\"");
        escape_into(&mut out, &self.experiment);
        out.push_str(&format!(
            "\",\"seed\":{},\"config_digest\":\"{:016x}\",\"output_digest\":\"{:016x}\",\"totals\":{{",
            self.seed, self.config_digest, self.output_digest
        ));
        for (i, (name, v)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("}}");
        out
    }

    /// FNV-1a digest of the identity section.
    pub fn identity_digest(&self) -> u64 {
        fnv64(self.identity_json().as_bytes())
    }

    /// The full manifest as JSON (identity + digest + execution).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"identity\": ");
        out.push_str(&self.identity_json());
        out.push_str(&format!(
            ",\n  \"identity_digest\": \"{:016x}\",\n  \"execution\": {{\"threads\":{},\"wall_ms\":{},\"peak_rss_kb\":{},\"stalls\":{}",
            self.identity_digest(),
            self.threads,
            self.wall_ms,
            self.peak_rss_kb,
            self.stalls
        ));
        out.push_str(",\"profile\":[");
        for (i, r) in self.profile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_into(&mut out, &r.name);
            out.push_str(&format!(
                "\",\"count\":{},\"real_ns\":{},\"sim_secs\":{},\"mean_ns\":{}}}",
                r.count, r.real_ns, r.sim_secs, r.mean_ns
            ));
        }
        out.push(']');
        if let Some(s) = &self.sim_windows {
            out.push_str(",\"sim_windows\":");
            out.push_str(&s.to_json());
            out.push_str(&format!(",\"sim_windows_evicted\":{}", s.evicted));
        }
        if let Some(s) = &self.wall_windows {
            out.push_str(",\"wall_windows\":");
            out.push_str(&s.to_json());
        }
        out.push_str("}\n}\n");
        out
    }

    /// Fills the execution profile and flight-recorder windows from the
    /// current thread's collector and the global recorder (taking the
    /// recorder), plus peak RSS and stall count. Call once, at end of
    /// run, from the driver thread that absorbed the workers.
    pub fn capture_execution(&mut self) {
        self.profile = crate::export::profile_rows(&crate::snapshot());
        self.peak_rss_kb = peak_rss_kb();
        self.stalls = stall_count();
        if let Some(rec) = crate::timeseries::take() {
            self.sim_windows = Some(rec.sim);
            self.wall_windows = Some(rec.wall);
        }
    }

    /// Writes the manifest with [`write_atomic`], as the checkpoints
    /// are written, so a kill mid-write can't leave a torn manifest next
    /// to a good checkpoint.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }

    /// The conventional manifest path for a checkpoint file.
    pub fn path_for_checkpoint(checkpoint: &Path) -> std::path::PathBuf {
        let mut name = checkpoint.file_name().unwrap_or_default().to_os_string();
        name.push(".manifest.json");
        checkpoint.with_file_name(name)
    }
}

/// Extracts the `identity_digest` field from a serialized manifest
/// without a JSON parser — the kill/resume test reads manifests from
/// disk and only needs the digest.
pub fn identity_digest_of_json(manifest_json: &str) -> Option<String> {
    let needle = "\"identity_digest\": \"";
    let start = manifest_json.find(needle)? + needle.len();
    let rest = &manifest_json[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64_extend(fnv64(b"ab"), b"cd"), fnv64(b"abcd"));
    }

    #[test]
    fn unseal_returns_exactly_what_seal_framed() {
        let sealed = seal("MAGIC1", "{\"a\":1}");
        assert_eq!(
            sealed,
            format!("MAGIC1 7 {:016x}\n{{\"a\":1}}", fnv64(b"{\"a\":1}"))
        );
        assert_eq!(unseal("MAGIC1", &sealed), Some("{\"a\":1}"));
        assert_eq!(unseal("MAGIC2", &sealed), None);
        assert_eq!(unseal("MAGIC1", &sealed[..sealed.len() - 1]), None);
        assert_eq!(unseal("MAGIC1", &format!("{sealed} ")), None);
        assert_eq!(unseal("MAGIC1", &sealed.replace("\"a\"", "\"b\"")), None);
    }

    #[test]
    fn derive_progress_rates_and_eta() {
        let r = derive_progress(50, 100, 10_000, 1234);
        assert_eq!(r.rate_milli, 5_000, "50 units / 10s = 5/s");
        assert_eq!(r.eta_secs, 10, "50 left at 5/s");
        assert_eq!(r.rss_kb, 1234);
        let done = derive_progress(100, 100, 10_000, 0);
        assert_eq!(done.eta_secs, 0);
        let fresh = derive_progress(0, 100, 0, 0);
        assert_eq!(fresh.rate_milli, 0);
        assert_eq!(fresh.eta_secs, 0);
    }

    #[test]
    fn manifest_identity_digest_ignores_execution() {
        let mut a = RunManifest {
            experiment: "scan.full".into(),
            seed: 42,
            config_digest: 7,
            output_digest: 9,
            ..Default::default()
        };
        a.totals.insert("domains".into(), 100);
        let mut b = a.clone();
        b.wall_ms = 99_999;
        b.peak_rss_kb = 1 << 20;
        b.threads = 8;
        b.stalls = 3;
        assert_eq!(a.identity_digest(), b.identity_digest());
        b.output_digest = 10;
        assert_ne!(a.identity_digest(), b.identity_digest());
    }

    #[test]
    fn manifest_json_round_trips_digest() {
        let mut m = RunManifest {
            experiment: "exp\"quoted".into(),
            seed: 1,
            ..Default::default()
        };
        m.totals.insert("t".into(), 2);
        let json = m.to_json();
        let extracted = identity_digest_of_json(&json).expect("digest field present");
        assert_eq!(extracted, format!("{:016x}", m.identity_digest()));
    }

    #[test]
    fn manifest_path_is_checkpoint_sibling() {
        let p = RunManifest::path_for_checkpoint(std::path::Path::new("/tmp/run/scan.ckpt"));
        assert_eq!(p, std::path::Path::new("/tmp/run/scan.ckpt.manifest.json"));
    }

    #[test]
    fn manifest_write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("obsv_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.manifest.json");
        let m = RunManifest {
            experiment: "t".into(),
            seed: 3,
            ..Default::default()
        };
        m.write(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, m.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_manifest_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("obsv_manifest_dir_{}", std::process::id()));
        let path = dir.join("run.manifest.json");
        // A directory where the manifest should go: the rename fails.
        std::fs::create_dir_all(&path).unwrap();
        assert!(RunManifest::default().write(&path).is_err());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["run.manifest.json"], "temp sibling left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
