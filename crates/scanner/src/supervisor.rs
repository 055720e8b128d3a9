//! The monthly full-component campaign: the one loop over the
//! full-scan calendar, with checkpointing, resume, and per-domain error
//! isolation.
//!
//! [`Study::run_full_supervised`] steps the dates; [`Study::run_full`]
//! is the same loop under a default [`SupervisorConfig`] (no checkpoint,
//! budget, faults or chaos), keeping only the snapshots. The paper's
//! scans ran for 31–36 months; a crash 80% through a snapshot must not
//! discard the completed work, and one pathological domain must not
//! take the whole campaign down. So the loop adds:
//!
//! - **incrementality**: the campaign runs over one persistent
//!   delta-built world plus the [`crate::incremental`] slot table, one
//!   slot per domain, so a domain whose fingerprint did not move reuses
//!   its prior scan whole and any other is scanned whole. With transient
//!   faults configured the cache stands down entirely (observations are
//!   instant-keyed) and every domain scans fresh. The slots carry one
//!   entity classifier across dates too, starting empty: a date forgets
//!   and re-observes only the scans that changed and re-classifies only
//!   those, or every domain when the verdict of an eSLD they touch
//!   moved. Every date takes this one step, the first and a forced one
//!   (all of whose scans changed) included, so the classes equal
//!   [`Snapshot::assemble`]'s at every date;
//! - **checkpointing**: with a [`SupervisorConfig::checkpoint_path`],
//!   every scan the campaign took fresh (a miss or a forced scan) is
//!   saved, in order, every [`SupervisorConfig::checkpoint_every`]
//!   domains and when a date completes; a full hit is not. A resumed
//!   run takes the same step from empty state, reading each saved scan
//!   back instead of taking it, so it rebuilds the slots, snapshots and
//!   degradation report as the interrupted run built them, unless
//!   another campaign (seed, scale, scan discipline) wrote the file.
//!   Without a path nothing of this is built;
//! - **determinism**: a scan is a pure function of
//!   `(world, domain, instant, config)` and every world is rebuilt from
//!   the ecosystem seed, so a killed-and-resumed run is *byte-identical*
//!   (same serialized snapshots) to an uninterrupted one;
//! - **isolation**: each domain scan runs under `catch_unwind`; a panic
//!   abandons that domain (recorded in the [`DegradationReport`]) and the
//!   campaign continues;
//! - **accounting**: retries issued, transients recovered and cache
//!   hits are summed into the degradation report so an operator can see
//!   how hard the retry layer and the cache worked;
//! - **telemetry**: one `snapshot.full` span per date, closed before
//!   that date's flight-recorder window rolls, and one `scan.full`
//!   progress tick per date.

use crate::incremental::{cache_forced, CacheStats, HitKind, SlotTable};
use crate::longitudinal::Study;
use crate::scan::{ScanConfig, Snapshot};
use crate::taxonomy::DomainScan;
use ecosystem::{DomainFingerprint, Ecosystem, IncrementalWorld, SnapshotDetail};
use netbase::default_scan_threads;
use netbase::{map_sharded, DomainName, SimDate};
use obsv::health::{fnv64, seal, unseal, write_atomic};
use serde::{Deserialize, Serialize};
use simnet::TransientFaultConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Supervisor knobs.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// The per-domain scan discipline.
    pub scan: ScanConfig,
    /// Where to persist checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Persist a partial checkpoint every this many domains (0 = only at
    /// snapshot boundaries).
    pub checkpoint_every: usize,
    /// Stop (with a checkpoint) after this many domains went through
    /// the loop in this invocation — the test hook that simulates a
    /// mid-snapshot kill. A resumed run counts the domains whose scans
    /// it reads back too, so the same budget suspends it at the same
    /// domain as a fresh run; every caller resumes without a budget.
    pub domain_budget: Option<usize>,
    /// Transient faults injected into every snapshot's world.
    pub transient: Option<TransientFaultConfig>,
    /// Domains whose scan is made to panic — the chaos hook exercising
    /// per-domain isolation.
    pub chaos_panic_domains: Vec<DomainName>,
    /// Worker threads for the parallel scan engine (0 = the default from
    /// [`default_scan_threads`]). The snapshots and the degradation
    /// report are byte-identical for every value.
    pub threads: usize,
}

impl SupervisorConfig {
    /// The effective worker-thread count.
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            default_scan_threads()
        } else {
            self.threads
        }
    }

    /// The campaign's identity, recorded in the run manifest and in each
    /// checkpoint. Checkpoint path, thread count and domain budget only
    /// say how a run was driven, so a resumed run digests as an
    /// uninterrupted one.
    fn digest(&self, eco: &Ecosystem) -> u64 {
        let (scan, transient, chaos) = (&self.scan, &self.transient, &self.chaos_panic_domains);
        let every = self.checkpoint_every;
        fnv64(format!("{scan:?}|{transient:?}|{chaos:?}|{every}|{:?}", eco.config).as_bytes())
    }
}

/// How hard the supervision layer had to work.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Domain scans completed (across all snapshots).
    pub domains_scanned: u64,
    /// Retries issued beyond first attempts, summed over stages.
    pub retries_issued: u64,
    /// Stages that saw a transient failure and recovered.
    pub transients_recovered: u64,
    /// Domains abandoned after a panic.
    pub domains_abandoned: u64,
    /// The abandoned domains, in encounter order.
    pub abandoned_domains: Vec<String>,
    /// Checkpoint writes that failed (full disk, unwritable directory).
    /// After the first failure the supervisor keeps scanning without
    /// checkpoints rather than dying mid-campaign.
    pub checkpoint_failures: u64,
    /// The I/O errors behind those failures, in encounter order.
    pub checkpoint_errors: Vec<String>,
    /// Rescan-cache accounting. Deterministic across thread counts and
    /// kill/resume cycles, so it participates in the report-equality
    /// assertions.
    pub cache: CacheStats,
}

impl DegradationReport {
    fn absorb(&mut self, scan: &DomainScan) {
        self.domains_scanned += 1;
        self.retries_issued += u64::from(scan.attempts.retries_issued());
        self.transients_recovered += u64::from(scan.attempts.recovered_count());
    }

    /// The cache-accounting invariant a kill/resume cycle must preserve:
    /// every scanned domain was counted by the cache exactly once, so
    /// the totals agree. A resumed run rebuilds its report from empty,
    /// and a scan it reads back from the checkpoint counts as the run
    /// that took it counted it, a miss or a forced scan, so the totals
    /// agree there too.
    pub fn cache_accounting_consistent(&self) -> bool {
        self.cache.total() == self.domains_scanned
    }
}

/// The population indices adopted by `date`, ascending: a date's scan
/// order.
fn adopters_at(eco: &Ecosystem, date: SimDate) -> Vec<u32> {
    let mut adopters = eco.population.index.adopters_through(date).to_vec();
    adopters.sort_unstable();
    adopters
}

/// The on-disk checkpoint. The entity classes and the degradation
/// report are *not* persisted: a resumed run rebuilds both from the
/// scans.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Checkpoint {
    /// [`SupervisorConfig::digest`] of the campaign that wrote it.
    config_digest: u64,
    /// Every scan the campaign took fresh, a miss or a forced scan, in
    /// the order it took them, each with its policy IP. Names and
    /// addresses validate on load, so a bad one rejects the file.
    scans: Vec<Arc<DomainScan>>,
}

/// Magic tag of the checkpoint's [`seal`] header line. The payload
/// decoder reads a missing `Option` field as `None` and skips unknown
/// keys, so a file from before a change of shape can decode into the new
/// one with evidence silently missing; the tag moves with every such
/// change. `MTASTS-CKPT1` files saved each date's policy IPs beside its
/// scans, whose `policy_ip` would decode as `None`; `MTASTS-CKPT2` files
/// saved every date's scans, full hits included, with their population
/// slots and the degradation report.
const CKPT_MAGIC: &str = "MTASTS-CKPT3";

impl Checkpoint {
    /// Loads the checkpoint, verifying the `MTASTS-CKPT3 <len> <fnv64>`
    /// header. A missing file starts fresh; so does any corruption — a
    /// truncated or bit-rotted checkpoint (a crash mid-write, a full
    /// disk) must cost the saved progress, never the whole campaign —
    /// and so does a file another campaign wrote (another digest).
    fn load(path: &Path, config_digest: u64) -> Checkpoint {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| Checkpoint::parse(&text))
            .filter(|ckpt| ckpt.config_digest == config_digest)
            .unwrap_or(Checkpoint {
                config_digest,
                scans: Vec::new(),
            })
    }

    /// Parses and verifies the on-disk format; `None` means corrupt.
    fn parse(text: &str) -> Option<Checkpoint> {
        serde_json::from_str(unseal(CKPT_MAGIC, text)?).ok()
    }

    /// Persists the checkpoint with [`write_atomic`]: two studies — or
    /// two shards — sharing a checkpoint directory never clobber each
    /// other's in-flight file, and the visible checkpoint is always
    /// either the old or the new complete state.
    ///
    /// I/O failure (full disk, unwritable directory) is a recoverable
    /// error, not a panic: the supervisor records it and continues the
    /// campaign without checkpoints.
    fn store(&self, path: &Path) -> std::io::Result<()> {
        let payload = serde_json::to_string(self).expect("checkpoint serializes");
        write_atomic(path, seal(CKPT_MAGIC, &payload).as_bytes())
    }
}

/// The result of one supervised invocation.
pub enum SupervisedOutcome {
    /// Every snapshot finished.
    Complete {
        /// The monthly snapshots, as [`Study::run_full`] would produce.
        snapshots: Vec<Snapshot>,
        /// Supervision accounting.
        report: DegradationReport,
    },
    /// The domain budget ran out; state is in the checkpoint file.
    Suspended {
        /// Accounting up to the suspension point.
        report: DegradationReport,
    },
}

impl SupervisedOutcome {
    /// The degradation report, whichever way the run ended.
    pub fn report(&self) -> &DegradationReport {
        match self {
            SupervisedOutcome::Complete { report, .. }
            | SupervisedOutcome::Suspended { report } => report,
        }
    }
}

/// One invocation's state across the calendar: the persistent
/// delta-built world, the slot table (the rescan cache and the carried
/// entity classifier), the accounting, the loaded checkpoint's scans
/// still to read back, the checkpoint this invocation writes and the
/// remaining domain budget.
pub(crate) struct Campaign<'a> {
    eco: &'a Ecosystem,
    cfg: &'a SupervisorConfig,
    threads: usize,
    world: IncrementalWorld,
    slots: SlotTable,
    report: DegradationReport,
    /// The loaded checkpoint's scans not read back yet.
    saved: std::vec::IntoIter<Arc<DomainScan>>,
    /// The fresh scans so far, read back or taken.
    ckpt: Checkpoint,
    /// Where checkpoints go; cleared after the first failed write.
    path: Option<PathBuf>,
    /// Whether a scan was taken fresh since the last store.
    unsaved: bool,
    budget: Option<usize>,
}

impl<'a> Campaign<'a> {
    /// A campaign under `cfg`, resuming from its checkpoint file if any.
    pub(crate) fn new(eco: &'a Ecosystem, cfg: &'a SupervisorConfig) -> Campaign<'a> {
        let path = cfg.checkpoint_path.clone();
        let mut ckpt = path
            .as_deref()
            .map(|p| Checkpoint::load(p, cfg.digest(eco)))
            .unwrap_or_default();
        Campaign {
            eco,
            cfg,
            threads: cfg.effective_threads(),
            world: IncrementalWorld::new(SnapshotDetail::Full),
            slots: SlotTable::new(eco.population.domains.len(), cfg.scan),
            report: DegradationReport::default(),
            saved: std::mem::take(&mut ckpt.scans).into_iter(),
            ckpt,
            path,
            unsaved: false,
            budget: cfg.domain_budget,
        }
    }

    /// The accounting so far.
    #[cfg(test)]
    pub(crate) fn report(&self) -> &DegradationReport {
        &self.report
    }

    /// Scans one date: advance the world to `date`, scan its adopters
    /// through the slots in rounds, and classify by delta. `None` means
    /// the domain budget ran out inside the date; the checkpoint holds
    /// what the run scanned fresh.
    pub(crate) fn scan_date(&mut self, date: SimDate) -> Option<Snapshot> {
        let _span = obsv::span!("snapshot.full");
        let eco = self.eco;
        self.world.advance_to(eco, date);
        // With transient faults the cache is forced off for every domain:
        // fault draws are instant-keyed, so reuse would be unsound — the
        // date degrades to full scans over the (still delta-built) world.
        if let Some(transient) = &self.cfg.transient {
            self.world.inject_transient_faults(transient);
        }
        let forced = cache_forced(self.world.world());
        // The engine certifies what is deployed at `date`: walk the
        // adopter index in population order and reuse the installed
        // fingerprints — O(adopters), no population sweep and no
        // fingerprint re-hashing. A forced date keys no slot.
        let jobs: Vec<(usize, Option<DomainFingerprint>)> = adopters_at(eco, date)
            .into_iter()
            .map(|i| {
                let fp = self.world.installed_fingerprint(i as usize);
                let fp = fp.expect("adopted domains are installed");
                (i as usize, (!forced).then_some(fp))
            })
            .collect();
        let mut pops = Vec::with_capacity(jobs.len());
        let mut scans = Vec::with_capacity(jobs.len());

        // The campaign is unthrottled: every domain scans at the
        // snapshot's midnight.
        let now = date.at_midnight();
        let every = self.cfg.checkpoint_every;
        let mut restored = false;
        let mut index = 0;
        while index < jobs.len() {
            if self.budget == Some(0) {
                self.store();
                obsv::event!("supervisor.suspend");
                return None;
            }

            // One round: up to the next checkpoint boundary (and the
            // budget), scanned in parallel. Rounds depend only on
            // `(checkpoint_every, budget)`, never on the thread count, so
            // the absorb order below — and with it the whole degradation
            // report — is deterministic.
            let mut round_end = jobs.len();
            if let Some(b) = self.budget {
                round_end = round_end.min(index + b);
            }
            if every > 0 {
                round_end = round_end.min(index + every - index % every);
            }
            let round = &jobs[index..round_end];
            let replay = self.read_back(round);
            if !restored && replay.iter().any(Option::is_some) {
                obsv::event!("supervisor.restore_snapshot");
                restored = true;
            }
            // Per-domain panic isolation inside each shard worker: a
            // panicking domain yields `None` and the round survives. The
            // chaos assert stays ahead of the cache so an injected panic
            // can never be papered over by a hit.
            let world = self.world.world();
            let results = map_sharded(self.threads, round, |i, &(pop, fp)| {
                let domain = &eco.population.domains[pop].name;
                catch_unwind(AssertUnwindSafe(|| {
                    let chaos = &self.cfg.chaos_panic_domains;
                    assert!(
                        !chaos.contains(domain),
                        "chaos: injected panic for {domain}"
                    );
                    let saved = replay.get(i).and_then(Option::as_ref);
                    self.slots.scan(world, pop, domain, now, fp.as_ref(), saved)
                }))
                .ok()
            });
            // Absorb in input order — identical for every thread count.
            for (i, (&(pop, fp), outcome)) in round.iter().zip(results).enumerate() {
                let Some((scan, kind)) = outcome else {
                    obsv::event!("supervisor.panic_isolated");
                    self.report.domains_abandoned += 1;
                    let domain = &eco.population.domains[pop].name;
                    self.report.abandoned_domains.push(domain.to_string());
                    continue;
                };
                self.report.absorb(&scan);
                self.report.cache.count(kind);
                if kind != HitKind::Full && self.path.is_some() {
                    self.unsaved |= replay.get(i).is_none_or(Option::is_none);
                    self.ckpt.scans.push(Arc::clone(&scan));
                }
                self.slots.absorb(pop, fp, &scan);
                pops.push(pop);
                scans.push(scan);
            }
            if let Some(b) = self.budget.as_mut() {
                *b -= round.len();
            }
            index = round_end;
            if every > 0 && index.is_multiple_of(every) && index < jobs.len() {
                self.store();
            }
        }

        self.store();
        let classes = self.slots.settle(&pops, &scans);
        Some(Snapshot::classified(date, scans, classes))
    }

    /// The round's scans to read back, by position: one walk in input
    /// order hands each domain that is not a full hit (nor a chaos
    /// domain, which never leaves a scan) the checkpoint's next scan.
    /// At the first such domain the next scan is not of, the run reads
    /// no further, so a scan only lands where it was taken. Empty, and
    /// nothing allocated, once nothing is left to read.
    fn read_back(
        &mut self,
        round: &[(usize, Option<DomainFingerprint>)],
    ) -> Vec<Option<Arc<DomainScan>>> {
        if self.saved.as_slice().is_empty() {
            return Vec::new();
        }
        let chaos = &self.cfg.chaos_panic_domains;
        round
            .iter()
            .map(|&(pop, fp)| {
                let domain = &self.eco.population.domains[pop].name;
                if self.slots.full_hit(pop, fp.as_ref()).is_some() || chaos.contains(domain) {
                    return None;
                }
                match self.saved.as_slice().first() {
                    Some(next) if next.domain == *domain => self.saved.next(),
                    _ => {
                        self.saved = Vec::new().into_iter();
                        None
                    }
                }
            })
            .collect()
    }

    /// Stores the checkpoint if a path is still set and a scan was taken
    /// fresh since the last store, so a run that only read scans back
    /// leaves the file as it is. An I/O failure lands in the report and
    /// clears the path: the campaign continues checkpoint-free, and no
    /// store follows a failed one.
    fn store(&mut self) {
        let Some(path) = &self.path else { return };
        if !std::mem::take(&mut self.unsaved) {
            return;
        }
        if let Err(e) = self.ckpt.store(path) {
            obsv::event!("supervisor.checkpoint_failure");
            self.report.checkpoint_failures += 1;
            let error = format!("{}: {e}", path.display());
            self.report.checkpoint_errors.push(error);
            self.path = None;
        } else {
            obsv::event!("supervisor.checkpoint_write");
        }
    }
}

impl Study {
    /// Runs the monthly full-component scans under supervision — the one
    /// loop over the full-scan calendar. [`Study::run_full`] is this run
    /// under a default config; with faults, panics or a budget it stays
    /// byte-identical across kill/resume cycles.
    pub fn run_full_supervised(&self, cfg: &SupervisorConfig) -> SupervisedOutcome {
        let run_started = std::time::Instant::now();
        let mut campaign = Campaign::new(&self.eco, cfg);
        let mut snapshots = Vec::new();
        let dates = self.eco.config.full_scan_dates();
        let date_count = dates.len() as u64;
        for (date_ord, date) in dates.into_iter().enumerate() {
            let Some(snapshot) = campaign.scan_date(date) else {
                return SupervisedOutcome::Suspended {
                    report: campaign.report,
                };
            };
            snapshots.push(snapshot);
            // Close this date's flight-recorder window (a resumed date's
            // window holds the restore event and no spans for the scans
            // it read back, the truthful record of what this execution
            // did there). Runs on the calling
            // thread after the date's span closed and its workers were
            // absorbed, and draws from no RNG — the identity suites pin
            // that it cannot perturb outputs.
            obsv::timeseries::roll(date.at_midnight().unix_secs());
            obsv::health::progress("scan.full", date_ord as u64 + 1, date_count);
        }

        let Campaign {
            report, threads, ..
        } = campaign;
        debug_assert!(
            report.cache_accounting_consistent(),
            "cache stats drifted from domains_scanned: {report:?}"
        );
        // Write the run manifest next to the checkpoint. Its identity
        // section (seed, config digest, output digest, report totals) is
        // a pure function of the work — byte-equal between a resumed and
        // an uninterrupted run — while the execution section (wall time,
        // RSS, windows) describes this particular execution.
        if let Some(ckpt_path) = &cfg.checkpoint_path {
            let mut manifest = obsv::health::RunManifest {
                experiment: "scan.full_supervised".to_string(),
                seed: self.eco.config.seed,
                threads: threads as u64,
                wall_ms: u64::try_from(run_started.elapsed().as_millis()).unwrap_or(u64::MAX),
                config_digest: cfg.digest(&self.eco),
                ..Default::default()
            };
            let output: Vec<_> = snapshots.iter().map(|s| (s.date, &s.scans)).collect();
            let output = serde_json::to_string(&output).expect("snapshots serialize");
            manifest.output_digest = fnv64(output.as_bytes());
            flatten_totals("report", &report.to_value(), &mut manifest.totals);
            manifest.capture_execution();
            let manifest_path = obsv::health::RunManifest::path_for_checkpoint(ckpt_path);
            if manifest.write(&manifest_path).is_ok() {
                obsv::event!("supervisor.manifest_write");
            } else {
                obsv::event!("supervisor.manifest_failure");
            }
        }
        SupervisedOutcome::Complete { snapshots, report }
    }
}

/// Flattens a serialized report into named numeric totals for the run
/// manifest: numeric leaves keep their dotted path, sequences record
/// their length (their contents live in the report a run returns, not
/// the manifest). Every total is deterministic because the report is.
fn flatten_totals(
    prefix: &str,
    v: &serde::Value,
    out: &mut std::collections::BTreeMap<String, u64>,
) {
    match v {
        serde::Value::Bool(b) => {
            out.insert(prefix.to_string(), u64::from(*b));
        }
        serde::Value::I64(n) => {
            out.insert(prefix.to_string(), u64::try_from(*n).unwrap_or(0));
        }
        serde::Value::U64(n) => {
            out.insert(prefix.to_string(), *n);
        }
        serde::Value::Seq(items) => {
            out.insert(format!("{prefix}.len"), items.len() as u64);
        }
        serde::Value::Map(entries) => {
            for (k, val) in entries {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_totals(&key, val, out);
            }
        }
        serde::Value::Null | serde::Value::F64(_) | serde::Value::Str(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::{Ecosystem, EcosystemConfig};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn study() -> Study {
        Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)))
    }

    fn snapshot_fingerprint(snapshots: &[Snapshot]) -> String {
        // The scans are the full snapshot state (the classifier is
        // derived), so this is the byte-identity witness.
        let digest: Vec<_> = snapshots.iter().map(|s| (s.date, &s.scans)).collect();
        serde_json::to_string(&digest).unwrap()
    }

    #[test]
    fn unsupervised_and_supervised_runs_agree() {
        let study = study();
        let plain = study.run_full();
        let outcome = study.run_full_supervised(&SupervisorConfig::default());
        let SupervisedOutcome::Complete { snapshots, report } = outcome else {
            panic!("no budget set: must complete")
        };
        assert_eq!(
            snapshot_fingerprint(&plain),
            snapshot_fingerprint(&snapshots)
        );
        assert_eq!(report.domains_abandoned, 0);
        assert!(report.domains_scanned > 0);
    }

    #[test]
    fn killed_run_resumes_byte_identically() {
        let study = study();
        let dir =
            std::env::temp_dir().join(format!("mtasts-supervisor-{}-resume", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);

        let faults = TransientFaultConfig::uniform(7, 0.05);
        let base = SupervisorConfig {
            scan: ScanConfig::resilient(1, 5),
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 16,
            domain_budget: None,
            transient: Some(faults),
            chaos_panic_domains: Vec::new(),
            threads: 0,
        };

        // Reference: one uninterrupted faulted run (no checkpoint file).
        let reference = study.run_full_supervised(&SupervisorConfig {
            checkpoint_path: None,
            ..base.clone()
        });
        let SupervisedOutcome::Complete {
            snapshots: want,
            report: want_report,
        } = reference
        else {
            panic!("reference run must complete")
        };

        // Interrupted: kill mid-flight (budget lands inside a snapshot),
        // then resume to completion from the checkpoint.
        let killed = study.run_full_supervised(&SupervisorConfig {
            domain_budget: Some(want.iter().map(Snapshot::len).sum::<usize>() / 3),
            ..base.clone()
        });
        assert!(matches!(killed, SupervisedOutcome::Suspended { .. }));
        let resumed = study.run_full_supervised(&base);
        let SupervisedOutcome::Complete {
            snapshots: got,
            report: got_report,
        } = resumed
        else {
            panic!("resumed run must complete")
        };

        assert_eq!(
            snapshot_fingerprint(&want),
            snapshot_fingerprint(&got),
            "kill/resume must be byte-identical to an uninterrupted run"
        );
        // The accounting survives the kill/resume cycle too, and the retry
        // layer actually worked during the faulted runs.
        assert_eq!(want_report, got_report);
        assert!(want_report.retries_issued > 0);
        // Under transient faults every scan is forced, so the checkpoint
        // the resumed run finished holds every scan, in order.
        let saved = Checkpoint::load(&path, base.digest(&study.eco));
        let every_scan: Vec<_> = want.iter().flat_map(|s| &s.scans).collect();
        assert_eq!(
            serde_json::to_string(&saved.scans).unwrap(),
            serde_json::to_string(&every_scan).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_manifest_identity_matches_uninterrupted() {
        // The RunManifest identity section (experiment, seed, config
        // digest, output digest, report totals) is a pure function of
        // the work: a killed-and-resumed campaign must write a manifest
        // whose identity digest is bit-identical to an uninterrupted
        // run's, even though the execution sections (wall clock, window
        // deltas) legitimately differ.
        let study = study();
        let dir =
            std::env::temp_dir().join(format!("mtasts-supervisor-{}-manifest", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ref_path = dir.join("ckpt_ref.json");
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&ref_path);
        let _ = std::fs::remove_file(&path);

        let base = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 16,
            ..SupervisorConfig::default()
        };

        // Reference: uninterrupted, but checkpointed so it writes a
        // manifest too (the config digest excludes the checkpoint path).
        let reference = study.run_full_supervised(&SupervisorConfig {
            checkpoint_path: Some(ref_path.clone()),
            ..base.clone()
        });
        let SupervisedOutcome::Complete {
            snapshots: want, ..
        } = reference
        else {
            panic!("reference run must complete")
        };
        let ref_manifest_path = obsv::health::RunManifest::path_for_checkpoint(&ref_path);
        let ref_manifest = std::fs::read_to_string(&ref_manifest_path)
            .expect("uninterrupted run writes a manifest");

        // Kill mid-snapshot (no manifest: the run suspended), resume.
        let killed = study.run_full_supervised(&SupervisorConfig {
            domain_budget: Some(want.iter().map(Snapshot::len).sum::<usize>() / 3),
            ..base.clone()
        });
        assert!(matches!(killed, SupervisedOutcome::Suspended { .. }));
        let manifest_path = obsv::health::RunManifest::path_for_checkpoint(&path);
        assert!(
            !manifest_path.exists(),
            "a suspended run must not write a manifest"
        );
        let resumed = study.run_full_supervised(&base);
        assert!(matches!(resumed, SupervisedOutcome::Complete { .. }));
        let resumed_manifest =
            std::fs::read_to_string(&manifest_path).expect("resumed run writes a manifest");

        let want_digest = obsv::health::identity_digest_of_json(&ref_manifest)
            .expect("reference manifest carries an identity digest");
        let got_digest = obsv::health::identity_digest_of_json(&resumed_manifest)
            .expect("resumed manifest carries an identity digest");
        assert_eq!(
            got_digest, want_digest,
            "kill/resume must reproduce the manifest identity\n\
             reference: {ref_manifest}\nresumed: {resumed_manifest}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_resume_does_not_double_count_cache_stats() {
        // Regression guard for the cache-stat merge semantics: with the
        // rescan cache ENGAGED (no transient faults, so nothing forces
        // it off), a killed-and-resumed campaign must report exactly the
        // cache totals of an uninterrupted one. The resumed run rebuilds
        // its report while it reads the saved scans back; if it counted a
        // read-back scan twice, or not at all, its totals would leave the
        // reference's.
        let study = study();
        let dir = std::env::temp_dir().join(format!(
            "mtasts-supervisor-{}-cache-resume",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);

        let base = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 16,
            ..SupervisorConfig::default()
        };

        let reference = study.run_full_supervised(&SupervisorConfig {
            checkpoint_path: None,
            ..base.clone()
        });
        let SupervisedOutcome::Complete {
            report: want_report,
            snapshots: want,
        } = reference
        else {
            panic!("reference run must complete")
        };
        // The cache must actually be doing work for this test to bite.
        assert!(want_report.cache.full_hits > 0, "{:?}", want_report.cache);
        assert_eq!(want_report.cache.forced, 0);
        assert!(want_report.cache_accounting_consistent());

        // Kill mid-snapshot, then resume to completion.
        let killed = study.run_full_supervised(&SupervisorConfig {
            domain_budget: Some(want.iter().map(Snapshot::len).sum::<usize>() / 3),
            ..base.clone()
        });
        let SupervisedOutcome::Suspended {
            report: killed_report,
        } = killed
        else {
            panic!("budgeted run must suspend")
        };
        assert!(killed_report.cache_accounting_consistent());

        let resumed = study.run_full_supervised(&base);
        let SupervisedOutcome::Complete { report, .. } = resumed else {
            panic!("resumed run must complete")
        };
        assert_eq!(
            report, want_report,
            "kill/resume must not inflate (or lose) cache accounting"
        );
        assert!(report.cache_accounting_consistent());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_restart_cleanly() {
        let dir =
            std::env::temp_dir().join(format!("mtasts-supervisor-{}-corrupt", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);
        let study = study();
        let eco = &study.eco;
        let cfg = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let digest = cfg.digest(eco);
        let resume = || match study.run_full_supervised(&cfg) {
            SupervisedOutcome::Complete { snapshots, report } => (snapshots, report),
            SupervisedOutcome::Suspended { .. } => panic!("no budget set: must complete"),
        };

        // This campaign's own complete checkpoint is exactly its fresh
        // scans: as many as its misses and forced scans, in the order
        // taken, each the scan of a snapshot that is not the previous
        // date's `Arc`.
        let (fresh, fresh_report) = resume();
        let saved = Checkpoint::load(&path, digest);
        let cache = fresh_report.cache;
        assert_eq!(saved.scans.len() as u64, cache.misses + cache.forced);
        let later_dates = fresh.windows(2).flat_map(|pair| {
            let prev = &pair[0];
            pair[1].scans.iter().filter(move |scan| {
                !prev
                    .scan_of(&scan.domain)
                    .is_some_and(|old| std::ptr::eq(old, Arc::as_ptr(scan)))
            })
        });
        let taken: Vec<_> = fresh[0].scans.iter().chain(later_dates).collect();
        let valid = serde_json::to_string(&saved).unwrap();
        assert_eq!(
            serde_json::to_string(&saved.scans).unwrap(),
            serde_json::to_string(&taken).unwrap()
        );

        // Written by another campaign: starts fresh, stamped with the
        // loading campaign's digest.
        let other = Checkpoint::load(&path, digest ^ 1);
        assert!(other.scans.is_empty() && other.config_digest == digest ^ 1);
        // From before checkpoints carried a digest: starts fresh too.
        let undigested = valid.replacen(&format!("\"config_digest\":{digest},"), "", 1);
        assert_ne!(undigested, valid);
        std::fs::write(&path, vouched(&undigested)).unwrap();
        assert!(Checkpoint::load(&path, digest).scans.is_empty());
        // The first date's scans in the shape `MTASTS-CKPT2` files had,
        // each date with its population slots and the report beside them,
        // under that tag: the header starts the run fresh.
        let first = &fresh[0];
        let slots = adopters_at(eco, first.date);
        let old = format!(
            "{{\"config_digest\":{digest},\"snapshots\":[{{\"date\":{},\"next_index\":{},\
             \"slots\":{},\"scans\":{}}}],\"report\":{}}}",
            serde_json::to_string(&first.date).unwrap(),
            slots.len(),
            serde_json::to_string(&slots).unwrap(),
            serde_json::to_string(&first.scans).unwrap(),
            serde_json::to_string(&fresh_report).unwrap(),
        );
        std::fs::write(&path, seal("MTASTS-CKPT2", &old)).unwrap();
        assert!(Checkpoint::load(&path, digest).scans.is_empty());

        // A checkpoint of the campaign's first two scans, truncated at
        // every prefix (a crash mid-write), with one payload byte flipped,
        // without its header, and missing: each starts fresh, never a
        // panic.
        let small = Checkpoint {
            config_digest: digest,
            scans: saved.scans[..2].to_vec(),
        };
        small.store(&path).unwrap();
        assert_eq!(Checkpoint::load(&path, digest).scans.len(), 2);
        let stored = std::fs::read_to_string(&path).unwrap();
        for cut in 0..stored.len() {
            std::fs::write(&path, &stored[..cut]).unwrap();
            assert!(
                Checkpoint::load(&path, digest).scans.is_empty(),
                "truncation at {cut} must start fresh"
            );
        }
        let mut flipped = stored.clone().into_bytes();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(Checkpoint::load(&path, digest).scans.is_empty());
        std::fs::write(&path, &stored[stored.find('\n').unwrap() + 1..]).unwrap();
        assert!(Checkpoint::load(&path, digest).scans.is_empty());
        std::fs::remove_file(&path).unwrap();
        assert!(Checkpoint::load(&path, digest).scans.is_empty());

        // A correct header over a scan whose policy IP or name does not
        // parse (a writer bug, a hand edit): the decoder rejects the file,
        // and a resume over it restarts clean instead of panicking
        // mid-replay. Over the same scan with another valid IP, the resume
        // reads it back instead of scanning: the altered IP lands in the
        // output.
        let scan = saved.scans.iter().find(|s| s.policy_ip.is_some());
        let scan = scan.expect("some policy host resolves");
        let ip = format!("\"policy_ip\":\"{}\"", scan.policy_ip.unwrap());
        let name = format!("\"domain\":\"{}\"", scan.domain);
        for (good, bad) in [
            (&ip, "\"policy_ip\":\"not-an-ip\""),
            (&name, "\"domain\":\"bad..name\""),
        ] {
            std::fs::write(&path, vouched(&valid.replacen(good, bad, 1))).unwrap();
            assert!(Checkpoint::load(&path, digest).scans.is_empty(), "{bad}");
            let (snapshots, report) = resume();
            let got = snapshot_fingerprint(&snapshots);
            assert_eq!(snapshot_fingerprint(&fresh), got, "{bad}");
            assert_eq!(report, fresh_report, "{bad}");
        }
        let altered = "\"policy_ip\":\"192.0.2.254\"";
        std::fs::write(&path, vouched(&valid.replacen(&ip, altered, 1))).unwrap();
        let (snapshots, _) = resume();
        let altered_ip = Some(std::net::Ipv4Addr::new(192, 0, 2, 254));
        let mut scans = snapshots.iter().flat_map(|s| &s.scans);
        let read_back = scans.any(|s| s.domain == scan.domain && s.policy_ip == altered_ip);
        assert!(read_back, "the saved scan was not read back");

        // Vouched-for checkpoints whose scans do not replay as taken: a
        // later adopter's scan at the head, the scans reversed, and the
        // first half alone. A resume reads back at most the prefix that
        // matches and scans the rest live, so it equals the uninterrupted
        // run, report included.
        let mut later = fresh.last().unwrap().scans.iter();
        let later = later.find(|scan| first.scan_of(&scan.domain).is_none());
        let later = later.expect("a domain adopts after the first date");
        let mut head = saved.scans.clone();
        head.insert(0, Arc::clone(later));
        let mut reversed = saved.scans.clone();
        reversed.reverse();
        let half = saved.scans[..saved.scans.len() / 2].to_vec();
        for (what, scans) in [
            ("a later adopter at the head", head),
            ("reversed", reversed),
            ("the first half", half),
        ] {
            let ckpt = Checkpoint {
                config_digest: digest,
                scans,
            };
            std::fs::write(&path, vouched(&serde_json::to_string(&ckpt).unwrap())).unwrap();
            let (snapshots, report) = resume();
            let got = snapshot_fingerprint(&snapshots);
            assert_eq!(snapshot_fingerprint(&fresh), got, "{what}");
            assert_eq!(report, fresh_report, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `payload` behind a header that vouches for it, as a buggy writer
    /// or a hand edit would leave it.
    fn vouched(payload: &str) -> String {
        seal(CKPT_MAGIC, payload)
    }

    /// A checkpoint to mutate: the scanned prefix a budgeted run left.
    fn sample_checkpoint() -> &'static [u8] {
        static TEXT: OnceLock<String> = OnceLock::new();
        TEXT.get_or_init(|| {
            let dir = std::env::temp_dir()
                .join(format!("mtasts-supervisor-{}-props", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("ckpt.json");
            let _ = std::fs::remove_file(&path);
            let cfg = SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 8,
                domain_budget: Some(24),
                ..SupervisorConfig::default()
            };
            let outcome = study().run_full_supervised(&cfg);
            assert!(matches!(outcome, SupervisedOutcome::Suspended { .. }));
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            text
        })
        .as_bytes()
    }

    /// The sample's payload, after its header line.
    fn sample_payload() -> &'static [u8] {
        let text = sample_checkpoint();
        let newline = text.iter().position(|&b| b == b'\n').unwrap();
        &text[newline + 1..]
    }

    #[test]
    fn every_truncation_of_a_real_checkpoint_is_rejected() {
        let text = sample_checkpoint();
        let whole = Checkpoint::parse(std::str::from_utf8(text).unwrap()).expect("sample parses");
        // The budget stopped the first date after 24 domains, all misses.
        assert_eq!(whole.scans.len(), 24);
        for cut in 0..text.len() {
            let prefix = String::from_utf8_lossy(&text[..cut]);
            assert!(Checkpoint::parse(&prefix).is_none(), "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Byte soup parses or is rejected, bare or vouched for.
        #[test]
        fn checkpoint_parse_total_over_byte_soup(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let soup = String::from_utf8_lossy(&bytes);
            let _ = Checkpoint::parse(&soup);
            let _ = Checkpoint::parse(&vouched(&soup));
        }

        /// A vouched-for truncated payload is rejected, not half-loaded.
        #[test]
        fn vouched_truncations_are_rejected(cut in 0usize..1 << 20) {
            let payload = sample_payload();
            let prefix = String::from_utf8_lossy(&payload[..cut % payload.len()]);
            prop_assert!(Checkpoint::parse(&vouched(&prefix)).is_none());
        }

        /// One flipped bit: the header catches it or the bytes still decode
        /// to the original; vouched for, it parses or is rejected.
        #[test]
        fn checkpoint_bit_flips_never_panic(pos in 0usize..1 << 20, bit in 0u8..8) {
            let mut text = sample_checkpoint().to_vec();
            let pos = pos % text.len();
            text[pos] ^= 1 << bit;
            let text = String::from_utf8_lossy(&text);
            if let Some(ckpt) = Checkpoint::parse(&text) {
                let again = serde_json::to_string(&ckpt).unwrap();
                prop_assert_eq!(again.as_bytes(), sample_payload());
            }
            let payload = &text[text.find('\n').map_or(0, |n| n + 1)..];
            let _ = Checkpoint::parse(&vouched(payload));
        }
    }

    #[test]
    fn read_back_passes_over_chaos_domains_and_stops_at_a_stranger() {
        let study = study();
        let eco = &study.eco;
        let date = eco.config.full_scan_dates()[0];
        let plain = SupervisorConfig::default();
        let taken = Campaign::new(eco, &plain).scan_date(date).unwrap().scans;
        // Four forced domains, the second a chaos domain, against the
        // first and third domains' scans and then the first's again.
        let cfg = SupervisorConfig {
            chaos_panic_domains: vec![taken[1].domain.clone()],
            ..plain
        };
        let mut campaign = Campaign::new(eco, &cfg);
        let round: Vec<_> = adopters_at(eco, date)[..4]
            .iter()
            .map(|&pop| (pop as usize, None))
            .collect();
        let saved: Vec<_> = [0, 2, 0].map(|k| Arc::clone(&taken[k])).into();
        campaign.saved = saved.into_iter();
        // The chaos domain is passed over; the fourth domain is not the
        // next scan's, so the run reads no further.
        let got = campaign.read_back(&round);
        let same = |got: &Option<Arc<DomainScan>>, want: &Arc<DomainScan>| {
            got.as_ref().is_some_and(|got| Arc::ptr_eq(got, want))
        };
        assert!(same(&got[0], &taken[0]) && same(&got[2], &taken[2]));
        assert!(got[1].is_none() && got[3].is_none());
        assert!(campaign.saved.as_slice().is_empty());
        assert!(campaign.read_back(&round).is_empty());
    }

    #[test]
    fn resume_survives_a_truncated_checkpoint() {
        // A kill mid-snapshot followed by checkpoint corruption: the rerun
        // silently restarts from scratch and still matches the reference.
        let study = study();
        let dir = std::env::temp_dir().join(format!(
            "mtasts-supervisor-{}-trunc-resume",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);

        let base = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 16,
            ..SupervisorConfig::default()
        };
        let reference = study.run_full_supervised(&SupervisorConfig::default());
        let SupervisedOutcome::Complete {
            snapshots: want, ..
        } = reference
        else {
            panic!("reference run must complete")
        };

        let killed = study.run_full_supervised(&SupervisorConfig {
            domain_budget: Some(want.iter().map(Snapshot::len).sum::<usize>() / 3),
            ..base.clone()
        });
        assert!(matches!(killed, SupervisedOutcome::Suspended { .. }));

        // Corrupt the checkpoint the way a crash mid-write would.
        let stored = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &stored[..stored.len() / 2]).unwrap();

        let resumed = study.run_full_supervised(&base);
        let SupervisedOutcome::Complete { snapshots: got, .. } = resumed else {
            panic!("rerun over a corrupt checkpoint must complete")
        };
        assert_eq!(snapshot_fingerprint(&want), snapshot_fingerprint(&got));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_from_another_study_restarts_fresh() {
        // Two studies share a checkpoint path. The second must not replay
        // the first one's snapshots as its own: snapshots match by date,
        // and both studies scan the same calendar.
        let dir = std::env::temp_dir().join(format!(
            "mtasts-supervisor-{}-other-study",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);
        let base = SupervisorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 16,
            ..SupervisorConfig::default()
        };

        // The first study suspends a few dates in, leaving more fresh
        // scans behind than its first date has adopters.
        let first = study();
        let killed = first.run_full_supervised(&SupervisorConfig {
            domain_budget: Some(1_500),
            ..base.clone()
        });
        assert!(matches!(killed, SupervisedOutcome::Suspended { .. }));
        let left = Checkpoint::load(&path, base.digest(&first.eco));
        let first_date = first.eco.config.full_scan_dates()[0];
        assert!(left.scans.len() > adopters_at(&first.eco, first_date).len());

        // Another seed resumes on the same path: it must scan afresh.
        let other = Study::new(Ecosystem::generate(EcosystemConfig::paper(7, 0.01)));
        let SupervisedOutcome::Complete { snapshots, .. } = other.run_full_supervised(&base) else {
            panic!("no budget set: must complete")
        };
        assert_eq!(
            snapshot_fingerprint(&other.run_full()),
            snapshot_fingerprint(&snapshots)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_checkpoint_degrades_instead_of_panicking() {
        // The checkpoint path's parent is a regular *file*, so every
        // write attempt fails with ENOTDIR — the shape of a dead disk
        // that even a root test process cannot bypass. The supervisor
        // must finish the campaign anyway and record the degradation.
        let dir = std::env::temp_dir().join(format!(
            "mtasts-supervisor-{}-unwritable",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, b"occupied").unwrap();
        let path = blocker.join("ckpt.json");

        let study = study();
        let reference = study.run_full_supervised(&SupervisorConfig::default());
        let SupervisedOutcome::Complete {
            snapshots: want, ..
        } = reference
        else {
            panic!("reference run must complete")
        };

        let outcome = study.run_full_supervised(&SupervisorConfig {
            checkpoint_path: Some(path),
            checkpoint_every: 16,
            ..SupervisorConfig::default()
        });
        let SupervisedOutcome::Complete { snapshots, report } = outcome else {
            panic!("checkpoint I/O failure must not kill the campaign")
        };
        // Exactly one failure: checkpointing is disabled after the first.
        assert_eq!(report.checkpoint_failures, 1);
        assert_eq!(report.checkpoint_errors.len(), 1);
        assert!(
            report.checkpoint_errors[0].contains("ckpt.json"),
            "{:?}",
            report.checkpoint_errors
        );
        // The scans themselves are untouched by the degradation.
        assert_eq!(
            snapshot_fingerprint(&want),
            snapshot_fingerprint(&snapshots)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_clobber_each_other() {
        // Two writers (two studies, or two shards of one) share a
        // checkpoint path. The fixed-`tmp`-sibling scheme let one
        // writer's rename ship the other's half-written file; unique
        // temp names must keep every observable checkpoint complete and
        // verifiable.
        let dir = std::env::temp_dir().join(format!(
            "mtasts-supervisor-{}-concurrent",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        std::thread::scope(|scope| {
            for writer in 0u64..4 {
                let path = &path;
                scope.spawn(move || {
                    for round in 0..50 {
                        let ckpt = Checkpoint {
                            config_digest: writer * 1000 + round,
                            scans: Vec::new(),
                        };
                        ckpt.store(path).unwrap();
                    }
                });
            }
        });

        // The final file is one writer's complete checkpoint — never a
        // torn mix, which would not parse.
        let stored = std::fs::read_to_string(&path).unwrap();
        let loaded = Checkpoint::parse(&stored).expect("one writer's whole checkpoint");
        assert!(
            (0..4).any(|w| {
                let d = loaded.config_digest;
                d >= w * 1000 && d < w * 1000 + 50
            }),
            "final checkpoint holds an unexpected digest: {}",
            loaded.config_digest
        );
        // No leftover temp files accumulate.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "ckpt.json")
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervised_runs_agree_across_thread_counts() {
        let study = study();
        let mut fingerprints = Vec::new();
        for threads in [1usize, 2, 8] {
            let outcome = study.run_full_supervised(&SupervisorConfig {
                threads,
                checkpoint_every: 16,
                ..SupervisorConfig::default()
            });
            let SupervisedOutcome::Complete { snapshots, report } = outcome else {
                panic!("no budget set: must complete")
            };
            fingerprints.push((threads, snapshot_fingerprint(&snapshots), report));
        }
        let (_, want_snap, want_report) = &fingerprints[0];
        for (threads, snap, report) in &fingerprints[1..] {
            assert_eq!(snap, want_snap, "snapshots diverge at {threads} threads");
            assert_eq!(report, want_report, "report diverges at {threads} threads");
        }
    }

    /// Asserts that every snapshot's classes are those
    /// [`Snapshot::assemble`] computes from its scans.
    fn assert_scratch_classes(what: &str, snapshots: &[Snapshot]) {
        assert!(!snapshots.is_empty(), "{what}: no snapshots");
        for snap in snapshots {
            let scratch = Snapshot::assemble(snap.date, snap.scans.clone());
            assert!(
                snap.classes == scratch.classes,
                "{what}: the classes at {} differ from a from-scratch build",
                snap.date
            );
        }
    }

    #[test]
    fn carried_classes_match_a_scratch_build_under_every_config() {
        let study = study();
        let complete = |what: &str, cfg: &SupervisorConfig| {
            let SupervisedOutcome::Complete { snapshots, .. } = study.run_full_supervised(cfg)
            else {
                panic!("{what}: no budget set: must complete")
            };
            assert_scratch_classes(what, &snapshots);
            snapshots
        };
        let plain = complete(
            "1 thread",
            &SupervisorConfig {
                threads: 1,
                ..SupervisorConfig::default()
            },
        );
        complete(
            "8 threads",
            &SupervisorConfig {
                threads: 8,
                ..SupervisorConfig::default()
            },
        );
        complete(
            "checkpoint_every 16",
            &SupervisorConfig {
                checkpoint_every: 16,
                ..SupervisorConfig::default()
            },
        );
        let date = *study.eco.config.full_scan_dates().last().unwrap();
        let victim = study.eco.domains_at(date).next().unwrap().name.clone();
        complete(
            "chaos panic",
            &SupervisorConfig {
                chaos_panic_domains: vec![victim],
                ..SupervisorConfig::default()
            },
        );
        let faults = SupervisorConfig {
            scan: ScanConfig::resilient(1, 5),
            transient: Some(TransientFaultConfig::uniform(7, 0.05)),
            ..SupervisorConfig::default()
        };
        let faulted = complete("transient faults", &faults);

        // Suspended and resumed, plain and under transient faults: inside
        // the first date, exactly where the first date ends, and inside a
        // later date. The resumed run reads the saved scans back and scans
        // on.
        let dir = std::env::temp_dir().join(format!(
            "mtasts-supervisor-{}-classes-resume",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let first = plain[0].len();
        let total: usize = plain.iter().map(Snapshot::len).sum();
        for (what, cfg, want) in [
            ("plain", SupervisorConfig::default(), &plain),
            ("transient faults", faults, &faulted),
        ] {
            let base = SupervisorConfig {
                checkpoint_path: Some(path.clone()),
                ..cfg
            };
            for budget in [first / 2, first, total / 3] {
                let _ = std::fs::remove_file(&path);
                let killed = study.run_full_supervised(&SupervisorConfig {
                    domain_budget: Some(budget),
                    ..base.clone()
                });
                assert!(matches!(killed, SupervisedOutcome::Suspended { .. }));
                let got = complete(&format!("{what}, resumed after {budget}"), &base);
                assert_eq!(snapshot_fingerprint(want), snapshot_fingerprint(&got));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_domain_is_abandoned_without_killing_the_run() {
        let study = study();
        let date = *study.eco.config.full_scan_dates().last().unwrap();
        let victim = study
            .eco
            .domains_at(date)
            .map(|d| d.name.clone())
            .next()
            .unwrap();
        let outcome = study.run_full_supervised(&SupervisorConfig {
            chaos_panic_domains: vec![victim.clone()],
            ..SupervisorConfig::default()
        });
        let SupervisedOutcome::Complete { snapshots, report } = outcome else {
            panic!("isolation must keep the run alive")
        };
        assert!(report.domains_abandoned >= 1);
        assert!(report.abandoned_domains.contains(&victim.to_string()));
        // The victim is missing from snapshots it would have appeared in.
        let last = snapshots.last().unwrap();
        assert!(last.scan_of(&victim).is_none());
        assert!(!last.is_empty());
    }
}
