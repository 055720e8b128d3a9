//! Exporters over a [`Collector`] snapshot.
//!
//! Two formats, both hand-rolled so the crate stays zero-dep:
//!
//! - [`prometheus_text`]: Prometheus text exposition (counters, span
//!   aggregates as `_count` / `_real_seconds_total` /
//!   `_sim_seconds_total`, histograms as cumulative `_bucket{le=...}`
//!   series with `+Inf`, `_sum`, `_count`).
//! - [`profile_rows`]: per-stage span totals sorted by real time
//!   descending, which [`crate::health::RunManifest`] records and
//!   `exp_scale` reads.
//!
//! Output is fully determined by the collector contents: maps are
//! `BTreeMap`s, so iteration order is lexicographic and two identical
//! collectors always export identical bytes.

use crate::{Collector, Histogram, HISTOGRAM_BUCKETS};
use std::fmt::Write;

fn sanitize(name: &str) -> String {
    // Prometheus metric names allow [a-zA-Z0-9_:]; instrumentation
    // sites use dots as namespace separators ("scan.policy").
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders a collector in the Prometheus text exposition format.
pub fn prometheus_text(c: &Collector) -> String {
    let mut out = String::new();
    for (name, value) in &c.counters {
        let m = sanitize(name);
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, agg) in &c.spans {
        let m = sanitize(name);
        let _ = writeln!(out, "# TYPE {m}_count counter");
        let _ = writeln!(out, "{m}_count {}", agg.count);
        let _ = writeln!(out, "# TYPE {m}_real_seconds_total counter");
        let _ = writeln!(
            out,
            "{m}_real_seconds_total {}",
            format_seconds_from_ns(agg.real_ns)
        );
        let _ = writeln!(out, "# TYPE {m}_sim_seconds_total counter");
        let _ = writeln!(out, "{m}_sim_seconds_total {}", agg.sim_secs);
    }
    for (name, h) in &c.histograms {
        let m = sanitize(name);
        let _ = writeln!(out, "# TYPE {m} histogram");
        let mut cumulative = 0u64;
        for (i, n) in h.buckets.iter().enumerate() {
            cumulative += n;
            // Only print occupied boundaries plus the final +Inf to
            // keep exposition compact; cumulative semantics preserved.
            if *n > 0 {
                if i >= HISTOGRAM_BUCKETS - 1 {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(
                    out,
                    "{m}_bucket{{le=\"{}\"}} {cumulative}",
                    Histogram::upper_bound(i)
                );
            }
        }
        let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{m}_sum {}", h.sum);
        let _ = writeln!(out, "{m}_count {}", h.count);
        // Server-side quantile estimates from the log2 buckets, as
        // companion gauges (a TYPE histogram series may not carry
        // quantile labels itself). Accurate to the bucket width (2x).
        for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let _ = writeln!(out, "# TYPE {m}_{suffix} gauge");
            let _ = writeln!(out, "{m}_{suffix} {}", h.quantile(q));
        }
    }
    out
}

/// Nanoseconds → decimal seconds without going through floats (exact,
/// platform-stable).
fn format_seconds_from_ns(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// One row of the per-stage self-time profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name ("scan.record", "scan.probe", ...).
    pub name: String,
    /// Completed span count.
    pub count: u64,
    /// Total real time across all spans, nanoseconds.
    pub real_ns: u64,
    /// Total simulated seconds across all spans.
    pub sim_secs: u64,
    /// Mean real time per span, nanoseconds (0 when count is 0).
    pub mean_ns: u64,
}

/// The span aggregates as profile rows, sorted by total real time
/// descending (ties broken by name so output is deterministic).
pub fn profile_rows(c: &Collector) -> Vec<ProfileRow> {
    let mut rows: Vec<ProfileRow> = c
        .spans
        .iter()
        .map(|(name, agg)| ProfileRow {
            name: (*name).to_string(),
            count: agg.count,
            real_ns: agg.real_ns,
            sim_secs: agg.sim_secs,
            mean_ns: agg.real_ns.checked_div(agg.count).unwrap_or(0),
        })
        .collect();
    rows.sort_by(|a, b| b.real_ns.cmp(&a.real_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanAgg;

    fn sample_collector() -> Collector {
        let mut c = Collector::new();
        *c.counters.entry("scan_retries_total").or_default() += 5;
        c.histograms.entry("probe_us").or_default().record(3);
        c.histograms.entry("probe_us").or_default().record(900);
        c.spans.insert(
            "scan.record",
            SpanAgg {
                count: 2,
                real_ns: 1_500_000_000,
                sim_secs: 9,
            },
        );
        c
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus_text(&sample_collector());
        assert!(text.contains("scan_retries_total 5"));
        assert!(text.contains("scan_record_count 2"));
        assert!(text.contains("scan_record_real_seconds_total 1.500000000"));
        assert!(text.contains("scan_record_sim_seconds_total 9"));
        assert!(text.contains("probe_us_bucket{le=\"3\"} 1"));
        assert!(text.contains("probe_us_bucket{le=\"1023\"} 2"));
        assert!(text.contains("probe_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("probe_us_sum 903"));
        assert!(text.contains("probe_us_count 2"));
        assert!(text.contains("# TYPE probe_us_p99 gauge"));
        assert!(text.contains("probe_us_p50 "));
    }

    #[test]
    fn exposition_is_deterministic() {
        let c = sample_collector();
        assert_eq!(prometheus_text(&c), prometheus_text(&c.clone()));
    }

    #[test]
    fn profile_rows_sorted_by_real_time() {
        let mut c = sample_collector();
        c.spans.insert(
            "scan.policy",
            SpanAgg {
                count: 1,
                real_ns: 9_000_000_000,
                sim_secs: 1,
            },
        );
        let rows = profile_rows(&c);
        assert_eq!(rows[0].name, "scan.policy");
        assert_eq!(rows[1].name, "scan.record");
        assert_eq!(rows[1].mean_ns, 750_000_000);
    }
}
