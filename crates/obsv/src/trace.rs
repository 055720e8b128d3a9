//! Streaming JSONL trace exporter.
//!
//! When the `RUN_TRACE` environment variable names a file, every
//! completed span and every event appends one JSON object per line:
//!
//! ```text
//! {"kind":"span","name":"scan.policy","real_ns":183042,"sim_secs":5,"thread":3}
//! {"kind":"event","name":"supervisor.checkpoint_write","thread":0}
//! ```
//!
//! `thread` is a small process-local ordinal (assigned on first write
//! per thread), not an OS thread id, so traces from repeated runs are
//! comparable. `ts_us` is elapsed wall microseconds since the first
//! trace write in the process — a relative clock, so two traces of the
//! same run shape line up when overlaid. Lines from concurrent workers
//! interleave — the trace is an execution log, not a deterministic
//! artifact; the deterministic aggregates live in [`crate::Collector`].
//! JSON is emitted by hand: names are `&'static str` literals from
//! instrumentation sites and the writer escapes them conservatively,
//! keeping the crate zero-dep.
//!
//! [`chrome_trace`] converts a captured JSONL trace into Chrome
//! `trace_event` JSON (the `[{"ph":"X",...}]` array format), loadable
//! directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing` — spans become duration slices per worker track,
//! events become instants. The `trace_chrome` binary in `crates/bench`
//! wraps it for the command line.

use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static WRITER: OnceLock<Option<Mutex<BufWriter<std::fs::File>>>> = OnceLock::new();
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

/// Elapsed wall microseconds since the process's trace epoch (the first
/// call in the process pins the epoch).
pub(crate) fn ts_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn writer() -> Option<&'static Mutex<BufWriter<std::fs::File>>> {
    WRITER
        .get_or_init(|| {
            let path = std::env::var_os("RUN_TRACE").filter(|v| !v.is_empty())?;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .ok()?;
            Some(Mutex::new(BufWriter::new(file)))
        })
        .as_ref()
}

/// Whether a trace file is active (i.e. `RUN_TRACE` named a writable
/// path).
pub fn active() -> bool {
    writer().is_some()
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_line(line: &str) {
    if let Some(w) = writer() {
        if let Ok(mut w) = w.lock() {
            let _ = writeln!(w, "{line}");
        }
    }
}

pub(crate) fn write_span(name: &str, real_ns: u64, sim_secs: u64) {
    if !active() {
        return;
    }
    let ord = THREAD_ORD.with(|t| *t);
    let ts = ts_us();
    let mut line = String::with_capacity(112);
    line.push_str("{\"kind\":\"span\",\"name\":\"");
    escape_into(&mut line, name);
    line.push_str(&format!(
        "\",\"real_ns\":{real_ns},\"sim_secs\":{sim_secs},\"thread\":{ord},\"ts_us\":{ts}}}"
    ));
    write_line(&line);
}

pub(crate) fn write_event(name: &str) {
    if !active() {
        return;
    }
    let ord = THREAD_ORD.with(|t| *t);
    let ts = ts_us();
    let mut line = String::with_capacity(80);
    line.push_str("{\"kind\":\"event\",\"name\":\"");
    escape_into(&mut line, name);
    line.push_str(&format!("\",\"thread\":{ord},\"ts_us\":{ts}}}"));
    write_line(&line);
}

/// Flushes buffered trace lines to disk. Call at the end of a run: the
/// writer is a `static` that is never dropped, so nothing flushes it at
/// exit, and lines still in the buffer then are lost. The shared study
/// runners (`mtasts_bench::{full_study, full_scans_only, weekly_only}`),
/// `exp_notify` and `exp_e2e` call it; otherwise lines
/// reach disk only when the buffer fills.
pub fn flush() {
    if let Some(w) = writer() {
        if let Ok(mut w) = w.lock() {
            let _ = w.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Chrome trace_event conversion
// ---------------------------------------------------------------------

/// Pulls a JSON string field out of one of *our own* trace lines. This
/// is not a general JSON parser — it relies on the writer above always
/// emitting `"key":"value"` with the value already escaped — which is
/// exactly why it can stay 20 lines and zero-dep.
fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut escaped = false;
    for (i, ch) in rest.char_indices() {
        match ch {
            '\\' if !escaped => escaped = true,
            '"' if !escaped => return Some(&rest[..i]),
            _ => escaped = false,
        }
    }
    None
}

/// Pulls an unsigned JSON number field out of one of our trace lines.
fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Converts a captured JSONL trace (the `RUN_TRACE` format) into Chrome
/// `trace_event` JSON — an array of complete-duration (`"ph":"X"`)
/// slices for spans and instant (`"ph":"i"`) markers for events, one
/// track per worker-thread ordinal. The output loads directly in
/// Perfetto or `chrome://tracing`.
///
/// Spans are written at *end* time (the timer records on drop), so the
/// slice start is `ts_us - dur`. Lines without a `ts_us` field (traces
/// captured by older builds) fall back to ts 0 and still render, just
/// stacked at the origin. Unrecognized lines are skipped, not fatal —
/// a truncated trace from a killed run should still open.
pub fn chrome_trace(jsonl: &str) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for line in jsonl.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(name) = extract_str(line, "name") else {
            continue;
        };
        let tid = extract_u64(line, "thread").unwrap_or(0);
        let ts = extract_u64(line, "ts_us").unwrap_or(0);
        let entry = if line.contains("\"kind\":\"span\"") {
            let dur_us = extract_u64(line, "real_ns").unwrap_or(0) / 1000;
            let sim_secs = extract_u64(line, "sim_secs").unwrap_or(0);
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"sim_secs\":{sim_secs}}}}}",
                ts.saturating_sub(dur_us),
                dur_us.max(1),
            )
        } else if line.contains("\"kind\":\"event\"") {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
            )
        } else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&entry);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::{chrome_trace, escape_into, extract_str, extract_u64};

    #[test]
    fn escapes_json_specials() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn extracts_own_line_format() {
        let line = "{\"kind\":\"span\",\"name\":\"scan.policy\",\"real_ns\":1500,\"sim_secs\":5,\"thread\":3,\"ts_us\":42}";
        assert_eq!(extract_str(line, "name"), Some("scan.policy"));
        assert_eq!(extract_u64(line, "real_ns"), Some(1500));
        assert_eq!(extract_u64(line, "ts_us"), Some(42));
        assert_eq!(extract_u64(line, "missing"), None);
        let esc = "{\"kind\":\"event\",\"name\":\"a\\\"b\",\"thread\":0,\"ts_us\":1}";
        assert_eq!(extract_str(esc, "name"), Some("a\\\"b"));
    }

    #[test]
    fn chrome_trace_converts_spans_and_events() {
        let jsonl = "\
{\"kind\":\"span\",\"name\":\"scan.policy\",\"real_ns\":2000,\"sim_secs\":5,\"thread\":3,\"ts_us\":100}\n\
garbage line that is not json\n\
{\"kind\":\"event\",\"name\":\"supervisor.checkpoint_write\",\"thread\":0,\"ts_us\":150}\n";
        let out = chrome_trace(jsonl);
        let expected = concat!(
            "[{\"name\":\"scan.policy\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":3,",
            "\"ts\":98,\"dur\":2,\"args\":{\"sim_secs\":5}},",
            "{\"name\":\"supervisor.checkpoint_write\",\"cat\":\"event\",\"ph\":\"i\",",
            "\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":150}]",
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn chrome_trace_tolerates_missing_ts() {
        let jsonl =
            "{\"kind\":\"span\",\"name\":\"s\",\"real_ns\":5000,\"sim_secs\":0,\"thread\":1}\n";
        let out = chrome_trace(jsonl);
        assert!(out.starts_with("[{\"name\":\"s\""), "{out}");
        assert!(out.contains("\"ts\":0"), "start clamps at origin: {out}");
        assert!(out.contains("\"dur\":5"), "{out}");
    }
}
