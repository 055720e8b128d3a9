//! A small scoped worker pool for deterministic data parallelism.
//!
//! The scanner's throughput story (ROADMAP: "as fast as the hardware
//! allows") needs fan-out, but every experiment in this workspace is also
//! contractually reproducible from a seed. The pool therefore offers one
//! carefully-shaped primitive, [`map_sharded`]: the input slice is split
//! into contiguous, stable shards, each shard runs on its own scoped
//! `std::thread`, and the outputs are merged back **in input order** —
//! so the result is exactly what a sequential `iter().map()` would have
//! produced, for any thread count, as long as `f` is a pure function of
//! its `(index, item)` arguments.
//!
//! No work-stealing, no channels, no external crates: shard boundaries
//! depend only on `(len, shards)`, never on timing, which is what makes
//! the parallel scan engine's byte-identity guarantee provable rather
//! than probabilistic.
//!
//! [`default_scan_threads`] is the one reader of the `SCAN_THREADS`
//! environment variable: every engine whose config asks for the default
//! thread count (0) resolves it here.

/// The default worker-thread count: the `SCAN_THREADS` environment
/// variable when it is set to a positive integer, 1 when it is set to
/// anything else, and the machine's available parallelism when it is
/// unset.
pub fn default_scan_threads() -> usize {
    scan_threads_from(std::env::var("SCAN_THREADS").ok().as_deref(), || {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// The `SCAN_THREADS` parsing rule, pure: a set value that trims to a
/// positive integer is used as is, any other set value gives 1, and an
/// unset one (`None`) gives `available()`, at least 1.
fn scan_threads_from(value: Option<&str>, available: impl FnOnce() -> usize) -> usize {
    match value {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        None => available().max(1),
    }
}

/// Contiguous shard boundaries for `len` items over `shards` workers:
/// `ceil`/`floor` balanced (sizes differ by at most one, larger shards
/// first), covering `0..len` exactly, in order. A pure function of its
/// arguments — the shard layout is part of the determinism contract.
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        out.push((lo, lo + size));
        lo += size;
    }
    out
}

/// Applies `f(index, &item)` to every item of `items` across up to
/// `threads` scoped worker threads and returns the results in input
/// order.
///
/// Determinism contract: if `f` is a pure function of `(index, item)`
/// (it may read shared state, but the value it returns must not depend
/// on what other invocations are doing concurrently), the returned
/// vector is identical for every `threads` value, including `1`.
///
/// `threads <= 1` (or a single-item input) runs inline on the caller's
/// thread with zero spawn overhead. A panic inside `f` is re-raised on
/// the caller's thread after the other shards finish their joins.
///
/// Telemetry: each worker accumulates into its own thread-local `obsv`
/// collector; when its shard finishes, the collector is harvested and
/// merged into the caller's collector **in shard order** alongside the
/// result merge. The telemetry side-channel therefore follows exactly
/// the same deterministic merge discipline as the data — and when
/// telemetry is disabled, the harvest is a single atomic load per shard.
pub fn map_sharded<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        // Inline path: f runs on the caller's thread, so its telemetry
        // already lands in the caller's collector.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let bounds = shard_bounds(items.len(), threads);
    let shard_outputs: Vec<(Vec<R>, Option<obsv::Collector>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let f = &f;
                scope.spawn(move || {
                    let results = items[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(lo + j, t))
                        .collect::<Vec<R>>();
                    (results, obsv::harvest())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for (shard, telemetry) in shard_outputs {
        out.extend(shard);
        if let Some(collector) = telemetry {
            obsv::absorb(&collector);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_threads_parsing_rule() {
        let unused = || panic!("a set value never probes the machine");
        assert_eq!(scan_threads_from(Some("4"), unused), 4);
        assert_eq!(scan_threads_from(Some(" 12\n"), unused), 12);
        assert_eq!(scan_threads_from(Some("64"), unused), 64);
        for junk in ["0", "", "  ", "-3", "two", "1.5", "0x4"] {
            assert_eq!(scan_threads_from(Some(junk), unused), 1, "{junk:?}");
        }
        assert_eq!(scan_threads_from(None, || 3), 3);
        assert_eq!(scan_threads_from(None, || 64), 64);
        assert_eq!(scan_threads_from(None, || 0), 1);
    }

    #[test]
    fn default_thread_count_is_positive() {
        assert!(default_scan_threads() >= 1);
    }

    #[test]
    fn bounds_cover_exactly_and_balance() {
        for len in 0..40usize {
            for shards in 1..12usize {
                let b = shard_bounds(len, shards);
                assert!(!b.is_empty());
                assert_eq!(b.first().unwrap().0, 0);
                assert_eq!(b.last().unwrap().1, len);
                let mut sizes = Vec::new();
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                for (lo, hi) in &b {
                    assert!(lo <= hi);
                    sizes.push(hi - lo);
                }
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn bounds_never_exceed_len() {
        // More shards than items degrades to one shard per item.
        let b = shard_bounds(3, 16);
        assert_eq!(b, vec![(0, 1), (1, 2), (2, 3)]);
        // The empty input still yields a (single, empty) shard.
        assert_eq!(shard_bounds(0, 4), vec![(0, 0)]);
    }

    #[test]
    fn map_preserves_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<(usize, u64)> = items.iter().enumerate().map(|(i, x)| (i, x * 3)).collect();
        for threads in [1, 2, 3, 8, 16, 300] {
            let got = map_sharded(threads, &items, |i, x| (i, x * 3));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_input() {
        let got: Vec<u32> = map_sharded(8, &[] as &[u32], |_, x| *x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_sharded(4, &items, |i, x| {
                assert!(i != 40, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }
}
