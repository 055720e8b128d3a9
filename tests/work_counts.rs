//! Work-count gate: what each benchmark workload's code does at seed 42,
//! pinned.
//!
//! The census is a fixed amount of scanner work per snapshot (per
//! adopter one `_mta-sts` TXT lookup, one HTTPS policy fetch and one
//! STARTTLS probe per MX), and here that work is a pure function of the
//! seed. Wall time on a shared host drifts by half or more between runs;
//! the work does not. So this test runs the census, the delivery queue
//! and the policy resolver once, on one thread, under a counting global
//! allocator, and checks:
//!
//! - per-phase allocation counts and requested bytes, within ±0.1%
//!   ([`ALLOC_BAND_PPM`]) of their pins (the `full` phase moves by a few
//!   allocations between runs, most likely with the per-process
//!   hash-map seeds);
//! - per-layer call counts, exactly: every span count and counter the
//!   run records, and the resolver's fetches and hits.
//!
//! A value outside its band fails in either direction, so a gain shows
//! as a pin change in the diff as well as a loss does. Re-pin in
//! [`PINS`] and give the reason in CHANGES.md. The seed, the band and
//! the pins are constants; no environment variable tunes them.
//!
//! ```sh
//! cargo test -q --release --test work_counts -- --nocapture
//! ```

use ecosystem::{Ecosystem, EcosystemConfig};
use mtasts::Mode;
use netbase::DomainName;
use scanner::analysis::*;
use scanner::classify::EntityClass;
use scanner::longitudinal::{LongitudinalRun, Study};
use sender::resolver::{PolicyResolver, ResolverConfig, TransportSource};
use sender::scenario::{build, Degradation, ScenarioSpec};
use sender::{DeliveryQueue, EnforcementConfig, FastTransport, QueueConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

const SEED: u64 = 42;

/// Allocation figures may move this many parts per million either way.
const ALLOC_BAND_PPM: u64 = 1_000;

/// Every pinned figure. Names ending in ` allocs` or ` bytes` are
/// allocation figures, held within [`ALLOC_BAND_PPM`]; every other one
/// is a call count, held exactly. A span or counter the run records
/// without a pin fails too.
const PINS: &[(&str, u64)] = &[
    // Allocations and bytes requested, per phase.
    ("generate allocs", 111_370),
    ("generate bytes", 6_103_700),
    ("weekly allocs", 296_540),
    ("weekly bytes", 37_506_442),
    ("full allocs", 972_643),
    ("full bytes", 89_738_213),
    ("analysis allocs", 39_168),
    ("analysis bytes", 909_518),
    ("delivery allocs", 9_570),
    ("delivery bytes", 622_237),
    ("resolver allocs", 359),
    ("resolver bytes", 33_552),
    // Span counts.
    ("span ecosystem.advance", 171),
    ("span snapshot.weekly", 160),
    ("span snapshot.full", 11),
    ("span scan.record", 7_801),
    ("span scan.policy", 7_801),
    ("span scan.policy_ip", 7_801),
    ("span scan.mx", 7_801),
    ("span scan.probe", 9_725),
    ("span delivery.wave", 4),
    // Counters.
    ("counter ecosystem_installs_total", 13_570),
    ("counter ecosystem_reinstalls_total", 2_492),
    ("counter ecosystem_unchanged_total", 601_856),
    ("counter cache_full_hits_total", 1_131_944),
    ("counter cache_misses_total", 15_736),
    ("counter scan_retries_total", 60),
    ("counter scan_backoff_sleeps_total", 60),
    ("counter scan_failed_attempts_total", 2_016),
    ("counter delivery.delivered", 128),
    ("counter delivery.enqueued", 128),
    ("counter delivery.requeue_total", 74),
    ("counter delivery.tls_refused_total", 189),
    ("counter fault_activations_total", 11),
    ("counter fault_activations.smtp-greylist", 11),
    ("counter attack_window_hits_total", 189),
    ("counter attack_window_hits.starttls-strip", 189),
    // Resolver metrics, cold and warm batch together.
    ("resolver fetches", 8),
    ("resolver hits", 8),
];

/// Each environment variable that turns on an extra telemetry layer.
const QUIET_ENV: [&str; 3] = ["RUN_TRACE", "FLIGHT", "RUN_HEALTH"];

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// The system allocator, counting each allocation this thread asks for.
/// Per-thread counts keep libtest's own threads out; the workloads run
/// on one thread, so every allocation they make lands here.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract. The counting beside it touches only
// const-initialised thread-locals without destructors, which never
// allocate, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Measured figures, in run order.
#[derive(Default)]
struct Work(Vec<(String, u64)>);

impl Work {
    /// Runs `f` as phase `name`, recording what it allocated.
    fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
        let out = black_box(f());
        self.record(format!("{name} allocs"), ALLOCS.with(Cell::get) - allocs);
        self.record(format!("{name} bytes"), BYTES.with(Cell::get) - bytes);
        out
    }

    fn record(&mut self, name: String, value: u64) {
        self.0.push((name, value));
    }
}

/// Whether `measured` lies in `pinned`'s band.
fn within(name: &str, measured: u64, pinned: u64) -> bool {
    if name.ends_with(" allocs") || name.ends_with(" bytes") {
        measured.abs_diff(pinned) * 1_000_000 <= pinned * ALLOC_BAND_PPM
    } else {
        measured == pinned
    }
}

#[test]
fn work_matches_the_pins() {
    for var in QUIET_ENV {
        assert!(
            std::env::var_os(var).is_none(),
            "unset {var}: it turns on a telemetry layer whose allocations \
             the pins leave out"
        );
    }
    obsv::set_enabled(true);
    obsv::reset();
    let mut work = Work::default();

    // The census: population, weekly series, monthly full scans, and
    // every table and figure `exp_all` prints plus the campaign.
    let eco = work.phase("generate", || {
        Ecosystem::generate(EcosystemConfig::paper(SEED, 0.1))
    });
    let study = Study::new(eco);
    let (weekly, mx_history, _) = work.phase("weekly", || study.run_weekly_with_threads(1));
    let full = work.phase("full", || study.run_full_with_threads(1));
    let run = LongitudinalRun {
        weekly,
        full,
        mx_history,
    };
    work.phase("analysis", || {
        let eco = &study.eco;
        let scale = eco.config.scale;
        let classes = [EntityClass::SelfManaged, EntityClass::ThirdParty];
        (
            table1(&run, scale),
            fig2_series(&run, scale),
            fig3_bins(eco, eco.config.end),
            fig4_series(&run),
            classes.map(|c| fig5_series(&run, c)),
            classes.map(|c| fig6_series(&run, c)),
            fig7_series(&run),
            fig8_series(&run),
            fig9_series(&run),
            fig10_series(&run),
            fig12_mtasts_series(&run),
            table2_rows(run.latest(), 8),
            scanner::notify::run_campaign(run.latest(), SEED),
        )
    });

    // The outbound queue, policy-blind and enforcing. 64 messages at 32
    // per wave give each queue at least two waves.
    let spec = |degradation| ScenarioSpec {
        domains: 8,
        messages_per_domain: 8,
        ..ScenarioSpec::small(SEED, degradation)
    };
    let queue = |enforcement| {
        DeliveryQueue::new(QueueConfig {
            seed: SEED,
            threads: 1,
            enforcement,
            ..QueueConfig::default()
        })
    };
    let enforced = work.phase("delivery", || {
        let plain = build(spec(Degradation::Greylist { rate: 0.3 }));
        black_box(queue(None).run(&FastTransport::new(&plain.world), &plain.messages));
        let strip = Degradation::StartTlsStrip {
            delay_secs: 300,
            duration_secs: 600,
        };
        let enforced = build(spec(strip).with_sts(Mode::Enforce));
        let transport = FastTransport::new(&enforced.world);
        black_box(queue(Some(EnforcementConfig::default())).run(&transport, &enforced.messages));
        enforced
    });

    // The policy service over the enforcing scenario's domains.
    let domains: Vec<DomainName> = enforced
        .topologies
        .iter()
        .map(|t| t.domain.clone())
        .collect();
    let at = enforced.spec.epoch;
    let resolver = work.phase("resolver", || {
        let transport = FastTransport::new(&enforced.world);
        let source = TransportSource(&transport);
        let config = ResolverConfig {
            threads: 1,
            ..ResolverConfig::default()
        };
        let resolver = PolicyResolver::new(config, at);
        black_box(resolver.resolve_batch(&source, &domains, at));
        black_box(resolver.resolve_batch(&source, &domains, at));
        resolver
    });

    let collected = obsv::snapshot();
    for (name, agg) in &collected.spans {
        work.record(format!("span {name}"), agg.count);
    }
    for (name, value) in &collected.counters {
        work.record(format!("counter {name}"), *value);
    }
    let metrics = resolver.metrics();
    work.record("resolver fetches".into(), metrics.fetches);
    work.record("resolver hits".into(), metrics.hits);

    let mut failures = Vec::new();
    println!(
        "{:<40} {:>14} {:>14} {:>9}",
        "figure", "measured", "pin", "delta"
    );
    for (name, measured) in &work.0 {
        let Some(&(_, pinned)) = PINS.iter().find(|(n, _)| n == name) else {
            println!("{name:<40} {measured:>14} {:>14} {:>9}", "-", "-");
            failures.push(format!("{name}: measured {measured}, but it has no pin"));
            continue;
        };
        let delta = (*measured as f64 / pinned.max(1) as f64 - 1.0) * 100.0;
        println!("{name:<40} {measured:>14} {pinned:>14} {delta:>+8.3}%");
        if !within(name, *measured, pinned) {
            failures.push(format!("{name}: measured {measured}, pinned {pinned}"));
        }
    }
    for (name, pinned) in PINS {
        if !work.0.iter().any(|(n, _)| n == name) {
            failures.push(format!("{name}: pinned {pinned}, but nothing measured it"));
        }
    }
    assert!(
        failures.is_empty(),
        "the work moved off its pins (allocation figures may move ±{}%, \
         call counts not at all):\n  {}\nIf the change is intended, re-pin \
         in PINS and give the reason in CHANGES.md.",
        ALLOC_BAND_PPM as f64 / 10_000.0,
        failures.join("\n  ")
    );
}
