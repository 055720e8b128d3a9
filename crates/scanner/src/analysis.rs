//! Figure- and table-shaped aggregations over study outputs.
//!
//! Each function reproduces one of the paper's results; the `bench`
//! crate's experiment binaries print them and EXPERIMENTS.md records
//! paper-vs-measured.

use crate::classify::EntityClass;
use crate::longitudinal::LongitudinalRun;
use crate::scan::Snapshot;
use crate::taxonomy::{MisconfigCategory, PolicyLayer};
use ecosystem::{tld, Ecosystem, TldId};
use mtasts::delegation::{classify_split, ProviderSplit};
use mtasts::{MismatchKind, Mode, MxPattern};
use netbase::{DomainName, SimDate};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Table 1: per-TLD MX-domain denominators and MTA-STS counts.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// The TLD.
    pub tld: TldId,
    /// Domains with MX records (analytic denominator).
    pub mx_domains: u64,
    /// Measured domains with an MTA-STS record.
    pub mtasts_domains: u64,
    /// The percentage.
    pub percent: f64,
}

/// Computes Table 1 from the latest weekly point.
pub fn table1(run: &LongitudinalRun, scale: f64) -> Vec<Table1Row> {
    let latest = run.weekly.last().expect("weekly series non-empty");
    tld::ALL_TLDS
        .iter()
        .map(|&t| {
            let mtasts = latest.mtasts_per_tld.get(&t).copied().unwrap_or(0);
            // The denominator scales with the population so percentages
            // stay comparable to the paper's.
            let mx_domains = (tld::mx_domain_count(t, latest.date) as f64 * scale) as u64;
            Table1Row {
                tld: t,
                mx_domains,
                mtasts_domains: mtasts,
                percent: 100.0 * mtasts as f64 / mx_domains.max(1) as f64,
            }
        })
        .collect()
}

/// Figure 2: % of MX domains with MTA-STS records over time, per TLD.
pub fn fig2_series(run: &LongitudinalRun, scale: f64) -> Vec<(SimDate, BTreeMap<TldId, f64>)> {
    run.weekly
        .iter()
        .map(|w| {
            let mut m = BTreeMap::new();
            for &t in &tld::ALL_TLDS {
                let num = w.mtasts_per_tld.get(&t).copied().unwrap_or(0) as f64;
                let den = tld::mx_domain_count(t, w.date) as f64 * scale;
                m.insert(t, 100.0 * num / den.max(1.0));
            }
            (w.date, m)
        })
        .collect()
}

/// Figure 3: adoption per Tranco-rank bin of 10,000.
pub fn fig3_bins(eco: &Ecosystem, date: SimDate) -> Vec<(u64, f64)> {
    let bin = ecosystem::calib::TRANCO_BIN;
    let bins = (ecosystem::calib::TRANCO_UNIVERSE / bin) as usize;
    let mut counts = vec![0u64; bins];
    for spec in eco.domains_at(date) {
        if let Some(rank) = spec.tranco_rank {
            let idx = ((u64::from(rank) - 1) / bin) as usize;
            if idx < bins {
                counts[idx] += 1;
            }
        }
    }
    // The per-bin denominator is the (scaled) bin population.
    let bin_den = bin as f64 * eco.config.scale;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64 * bin, 100.0 * c as f64 / bin_den.max(1.0)))
        .collect()
}

/// One Figure 4 point: misconfiguration percentages by category.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Point {
    /// Scan date.
    pub date: SimDate,
    /// Domains scanned.
    pub total: u64,
    /// Misconfigured domains (any category).
    pub misconfigured: u64,
    /// % per category (non-exclusive).
    pub category_pct: BTreeMap<MisconfigCategory, f64>,
}

/// Figure 4's series over the full scans.
pub fn fig4_series(run: &LongitudinalRun) -> Vec<Fig4Point> {
    run.full
        .iter()
        .map(|snap| {
            let total = snap.len() as u64;
            let mut per_cat: BTreeMap<MisconfigCategory, u64> = BTreeMap::new();
            let mut mis = 0u64;
            for scan in &snap.scans {
                let cats = scan.categories();
                if !cats.is_empty() {
                    mis += 1;
                }
                for c in cats {
                    *per_cat.entry(c).or_default() += 1;
                }
            }
            Fig4Point {
                date: snap.date,
                total,
                misconfigured: mis,
                category_pct: MisconfigCategory::ALL
                    .iter()
                    .map(|c| {
                        (
                            *c,
                            100.0 * per_cat.get(c).copied().unwrap_or(0) as f64
                                / total.max(1) as f64,
                        )
                    })
                    .collect(),
            }
        })
        .collect()
}

/// One Figure 5 point: policy-server error layers within an entity class.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Point {
    /// Scan date.
    pub date: SimDate,
    /// Domains in this entity class.
    pub class_total: u64,
    /// Faulty domains in the class.
    pub faulty: u64,
    /// % of the class failing at each layer.
    pub layer_pct: BTreeMap<PolicyLayer, f64>,
}

/// Figure 5: policy-server errors by layer, for one entity class.
pub fn fig5_series(run: &LongitudinalRun, class: EntityClass) -> Vec<Fig5Point> {
    run.full
        .iter()
        .map(|snap| {
            let mut class_total = 0u64;
            let mut faulty = 0u64;
            let mut per_layer: BTreeMap<PolicyLayer, u64> = BTreeMap::new();
            for (scan, classes) in snap.scans.iter().zip(&snap.classes) {
                if classes.policy != class {
                    continue;
                }
                class_total += 1;
                if let Err(e) = &scan.policy {
                    faulty += 1;
                    *per_layer.entry(e.layer).or_default() += 1;
                }
            }
            Fig5Point {
                date: snap.date,
                class_total,
                faulty,
                layer_pct: [
                    PolicyLayer::Dns,
                    PolicyLayer::Tcp,
                    PolicyLayer::Tls,
                    PolicyLayer::Http,
                    PolicyLayer::Syntax,
                ]
                .iter()
                .map(|l| {
                    (
                        *l,
                        100.0 * per_layer.get(l).copied().unwrap_or(0) as f64
                            / class_total.max(1) as f64,
                    )
                })
                .collect(),
            }
        })
        .collect()
}

/// One Figure 6 point: PKIX-invalid MX certificates within an entity class.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Point {
    /// Scan date.
    pub date: SimDate,
    /// Domains in the class (by MX classification).
    pub class_total: u64,
    /// Domains with ≥1 invalid MX certificate.
    pub invalid: u64,
    /// % by certificate error kind: (cn-mismatch, self-signed, expired).
    pub kind_pct: BTreeMap<&'static str, f64>,
}

/// Figure 6: invalid MX certificates by kind, for one entity class.
pub fn fig6_series(run: &LongitudinalRun, class: EntityClass) -> Vec<Fig6Point> {
    run.full
        .iter()
        .map(|snap| {
            let mut class_total = 0u64;
            let mut invalid = 0u64;
            let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
            for (scan, classes) in snap.scans.iter().zip(&snap.classes) {
                if classes.mail != class {
                    continue;
                }
                class_total += 1;
                let mut domain_kinds: Vec<&'static str> = Vec::new();
                for v in &scan.mx_verdicts {
                    if let Some(Err(e)) = &v.cert {
                        domain_kinds.push(match e {
                            pkix::CertError::NameMismatch { .. } => "CN mismatch",
                            pkix::CertError::SelfSigned => "Self-signed",
                            pkix::CertError::Expired => "Expired",
                            _ => "Other",
                        });
                    }
                }
                if !domain_kinds.is_empty() {
                    invalid += 1;
                    domain_kinds.sort_unstable();
                    domain_kinds.dedup();
                    for k in domain_kinds {
                        *kinds.entry(k).or_default() += 1;
                    }
                }
            }
            Fig6Point {
                date: snap.date,
                class_total,
                invalid,
                kind_pct: ["CN mismatch", "Self-signed", "Expired", "Other"]
                    .iter()
                    .map(|k| {
                        (
                            *k,
                            100.0 * kinds.get(k).copied().unwrap_or(0) as f64
                                / class_total.max(1) as f64,
                        )
                    })
                    .collect(),
            }
        })
        .collect()
}

/// One Figure 7 point: all-invalid / partially-invalid MX sets.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Point {
    /// Scan date.
    pub date: SimDate,
    /// Domains scanned.
    pub total: u64,
    /// Domains whose TLS-capable MXes are all invalid.
    pub all_invalid: u64,
    /// Domains with some (not all) invalid.
    pub partially_invalid: u64,
    /// Enforce-mode domains with ≥1 invalid MX (delivery-failure risk).
    pub enforce_at_risk: u64,
}

/// Figure 7's series.
pub fn fig7_series(run: &LongitudinalRun) -> Vec<Fig7Point> {
    run.full
        .iter()
        .map(|snap| {
            let mut all_invalid = 0;
            let mut partial = 0;
            let mut enforce = 0;
            for scan in &snap.scans {
                if scan.all_mx_invalid() {
                    all_invalid += 1;
                } else if scan.partially_mx_invalid() {
                    partial += 1;
                }
                let (_, invalid) = scan.mx_tls_counts();
                if invalid > 0 && scan.mode() == Some(Mode::Enforce) && scan.all_mx_invalid() {
                    enforce += 1;
                }
            }
            Fig7Point {
                date: snap.date,
                total: snap.len() as u64,
                all_invalid,
                partially_invalid: partial,
                enforce_at_risk: enforce,
            }
        })
        .collect()
}

/// One Figure 8 point: mismatch classes.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Point {
    /// Scan date.
    pub date: SimDate,
    /// Domains scanned.
    pub total: u64,
    /// Domains per mismatch class (a domain counts once per class).
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Enforce-mode domains with no matching pattern (delivery failures).
    pub enforce_failures: u64,
    /// 3LD+ mismatched domains whose pattern embeds `mta-sts` (§4.4).
    pub stray_mta_sts_label: u64,
}

/// Figure 8's series.
pub fn fig8_series(run: &LongitudinalRun) -> Vec<Fig8Point> {
    run.full
        .iter()
        .map(|snap| {
            let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut enforce = 0u64;
            let mut stray = 0u64;
            for scan in &snap.scans {
                if scan.mismatches.is_empty() {
                    continue;
                }
                let mut domain_kinds: Vec<MismatchKind> =
                    scan.mismatches.iter().map(|(_, k)| *k).collect();
                domain_kinds.sort_unstable_by_key(|k| k.label());
                domain_kinds.dedup();
                for k in &domain_kinds {
                    *kinds.entry(kind_label(*k)).or_default() += 1;
                }
                if scan.any_mx_matches() == Some(false) && scan.mode() == Some(Mode::Enforce) {
                    enforce += 1;
                }
                if domain_kinds.contains(&MismatchKind::PartialThirdLabel)
                    && scan.mismatches.iter().any(|(p, _)| {
                        MxPattern::parse(p)
                            .map(|p| mtasts::matching::has_stray_mta_sts_label(&p))
                            .unwrap_or(false)
                    })
                {
                    stray += 1;
                }
            }
            Fig8Point {
                date: snap.date,
                total: snap.len() as u64,
                kind_counts: kinds,
                enforce_failures: enforce,
                stray_mta_sts_label: stray,
            }
        })
        .collect()
}

fn kind_label(kind: MismatchKind) -> &'static str {
    match kind {
        MismatchKind::Tld => "TLD",
        MismatchKind::CompleteDomain => "Domain",
        MismatchKind::PartialThirdLabel => "3LD+",
        MismatchKind::Typo => "Typos",
    }
}

/// Figure 9: share of complete-domain mismatches explained by historical
/// MX records, per full-scan date.
pub fn fig9_series(run: &LongitudinalRun) -> Vec<(SimDate, f64)> {
    run.full
        .iter()
        .map(|snap| {
            let mut mismatched = 0u64;
            let mut explained = 0u64;
            for scan in &snap.scans {
                let complete: Vec<&String> = scan
                    .mismatches
                    .iter()
                    .filter(|(_, k)| *k == MismatchKind::CompleteDomain)
                    .map(|(p, _)| p)
                    .collect();
                if complete.is_empty() {
                    continue;
                }
                mismatched += 1;
                let history = run.historical_mx(&scan.domain, snap.date);
                let matches_history = complete.iter().any(|p| {
                    MxPattern::parse(p)
                        .map(|pat| history.iter().any(|h| pat.matches(h)))
                        .unwrap_or(false)
                });
                if matches_history {
                    explained += 1;
                }
            }
            (
                snap.date,
                100.0 * explained as f64 / mismatched.max(1) as f64,
            )
        })
        .collect()
}

/// One Figure 10 point: inconsistency among domains outsourcing both
/// services, split by same vs different provider.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Point {
    /// Scan date.
    pub date: SimDate,
    /// Both-outsourced domains with the same provider.
    pub same_total: u64,
    /// ... of which inconsistent.
    pub same_inconsistent: u64,
    /// Both-outsourced domains with different providers.
    pub diff_total: u64,
    /// ... of which inconsistent.
    pub diff_inconsistent: u64,
}

/// Figure 10's series.
pub fn fig10_series(run: &LongitudinalRun) -> Vec<Fig10Point> {
    run.full
        .iter()
        .map(|snap| {
            let mut point = Fig10Point {
                date: snap.date,
                same_total: 0,
                same_inconsistent: 0,
                diff_total: 0,
                diff_inconsistent: 0,
            };
            for (scan, classes) in snap.scans.iter().zip(&snap.classes) {
                if classes.policy != EntityClass::ThirdParty
                    || classes.mail != EntityClass::ThirdParty
                {
                    continue;
                }
                let (Some(cname), Some(mx)) = (scan.policy_cname.first(), scan.mx_records.first())
                else {
                    continue;
                };
                let inconsistent = !scan.mismatches.is_empty();
                match classify_split(cname, mx) {
                    ProviderSplit::SameProvider => {
                        point.same_total += 1;
                        if inconsistent {
                            point.same_inconsistent += 1;
                        }
                    }
                    ProviderSplit::DifferentProviders => {
                        point.diff_total += 1;
                        if inconsistent {
                            point.diff_inconsistent += 1;
                        }
                    }
                }
            }
            point
        })
        .collect()
}

/// Table 2: policy-hosting providers ranked by delegated-domain count.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Provider identity (CNAME-target eSLD).
    pub provider: DomainName,
    /// Delegating domains in the snapshot.
    pub domains: u64,
    /// An example CNAME target (the pattern column).
    pub example_target: DomainName,
}

/// Computes Table 2's provider ranking from a snapshot.
pub fn table2_rows(snap: &Snapshot, top: usize) -> Vec<Table2Row> {
    let mut by_provider: HashMap<DomainName, (u64, DomainName)> = HashMap::new();
    for scan in &snap.scans {
        let Some(target) = scan.policy_cname.first() else {
            continue;
        };
        let Some(esld) = target.effective_sld() else {
            continue;
        };
        if esld == scan.domain.effective_sld().unwrap_or_else(|| esld.clone()) {
            continue; // internal alias
        }
        let entry = by_provider
            .entry(esld)
            .or_insert_with(|| (0, target.clone()));
        entry.0 += 1;
    }
    let mut rows: Vec<Table2Row> = by_provider
        .into_iter()
        .map(|(provider, (domains, example_target))| Table2Row {
            provider,
            domains,
            example_target,
        })
        .collect();
    rows.sort_by(|a, b| b.domains.cmp(&a.domains).then(a.provider.cmp(&b.provider)));
    rows.truncate(top);
    rows
}

/// Figure 12 (bottom): % of MTA-STS domains with TLSRPT, over time.
pub fn fig12_mtasts_series(run: &LongitudinalRun) -> Vec<(SimDate, f64)> {
    run.weekly
        .iter()
        .map(|w| {
            let mtasts: u64 = w.mtasts_per_tld.values().sum();
            let both: u64 = w.tlsrpt_among_mtasts_per_tld.values().sum();
            (w.date, 100.0 * both as f64 / mtasts.max(1) as f64)
        })
        .collect()
}

/// Figure 12 (top): % of MX domains with TLSRPT per TLD (analytic).
pub fn fig12_tld_series(run: &LongitudinalRun) -> Vec<(SimDate, BTreeMap<TldId, f64>)> {
    run.weekly
        .iter()
        .map(|w| {
            let mut m = BTreeMap::new();
            for &t in &tld::ALL_TLDS {
                let num = tld::tlsrpt_count(t, w.date) as f64;
                let den = tld::mx_domain_count(t, w.date) as f64;
                m.insert(t, 100.0 * num / den.max(1.0));
            }
            (w.date, m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longitudinal::Study;
    use ecosystem::EcosystemConfig;

    use std::sync::OnceLock;

    /// The longitudinal run is expensive; tests in this module share one.
    fn run() -> &'static (Ecosystem, LongitudinalRun) {
        static SHARED: OnceLock<(Ecosystem, LongitudinalRun)> = OnceLock::new();
        SHARED.get_or_init(|| {
            let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.02));
            let study = Study::new(eco);
            let run = study.run();
            (study.eco, run)
        })
    }

    #[test]
    fn full_analysis_suite_produces_paper_shapes() {
        let (eco, run) = run();
        let scale = eco.config.scale;

        // Table 1: percentages land near the paper's (0.07-0.13%).
        let t1 = table1(run, scale);
        for row in &t1 {
            assert!(
                (0.03..0.30).contains(&row.percent),
                "{}: {}%",
                row.tld,
                row.percent
            );
        }

        // Figure 2: monotone growth per TLD.
        let f2 = fig2_series(run, scale);
        assert_eq!(f2.len(), 160);
        let first_com = f2.first().unwrap().1[&TldId::Com];
        let last_com = f2.last().unwrap().1[&TldId::Com];
        assert!(last_com > first_com * 2.5, "{first_com} -> {last_com}");

        // Figure 4: misconfiguration 22-38%, policy retrieval dominant.
        let f4 = fig4_series(run);
        let latest = f4.last().unwrap();
        let total_pct = 100.0 * latest.misconfigured as f64 / latest.total as f64;
        assert!((20.0..40.0).contains(&total_pct), "{total_pct}");
        let policy_pct = latest.category_pct[&MisconfigCategory::PolicyRetrieval];
        let record_pct = latest.category_pct[&MisconfigCategory::DnsRecord];
        assert!(
            policy_pct > record_pct * 5.0,
            "{policy_pct} vs {record_pct}"
        );

        // Figure 4's Porkbun effect: the last scans jump.
        let aug = f4
            .iter()
            .find(|p| p.date >= SimDate::ymd(2024, 8, 1))
            .unwrap();
        let spring = f4
            .iter()
            .find(|p| p.date >= SimDate::ymd(2024, 3, 1))
            .unwrap();
        let aug_pct = 100.0 * aug.misconfigured as f64 / aug.total as f64;
        let spring_pct = 100.0 * spring.misconfigured as f64 / spring.total as f64;
        assert!(aug_pct > spring_pct, "{spring_pct} -> {aug_pct}");

        // Figure 7: all-invalid ~1-3%.
        let f7 = fig7_series(run);
        let latest7 = f7.last().unwrap();
        let all_pct = 100.0 * latest7.all_invalid as f64 / latest7.total as f64;
        assert!((0.5..4.0).contains(&all_pct), "{all_pct}");
        assert!(latest7.all_invalid >= latest7.enforce_at_risk);

        // Figure 8: mismatch classes present; complete-domain largest.
        let f8 = fig8_series(run);
        let latest8 = f8.last().unwrap();
        let domain_count = latest8.kind_counts.get("Domain").copied().unwrap_or(0);
        assert!(domain_count > 0);

        // Figure 9: the stale share grows over the scan window.
        let f9 = fig9_series(run);
        let first9 = f9.first().unwrap().1;
        let last9 = f9.last().unwrap().1;
        assert!(
            last9 >= first9,
            "stale share should not shrink: {first9} -> {last9}"
        );

        // Figure 10: same-provider inconsistency rarer than different.
        let f10 = fig10_series(run);
        let latest10 = f10.last().unwrap();
        if latest10.same_total > 0 && latest10.diff_total > 0 {
            let same_rate = latest10.same_inconsistent as f64 / latest10.same_total as f64;
            let diff_rate = latest10.diff_inconsistent as f64 / latest10.diff_total as f64;
            assert!(
                diff_rate >= same_rate,
                "diff {diff_rate} should be >= same {same_rate}"
            );
        }

        // Table 2: dmarcinput and tutanota surface among top providers.
        let t2 = table2_rows(run.latest(), 8);
        assert!(!t2.is_empty());
        let names: Vec<String> = t2.iter().map(|r| r.provider.to_string()).collect();
        assert!(
            names
                .iter()
                .any(|n| n.contains("tutanota") || n.contains("dmarcinput")),
            "{names:?}"
        );

        // Figure 12: TLSRPT share among MTA-STS domains is substantial.
        let f12 = fig12_mtasts_series(run);
        let last12 = f12.last().unwrap().1;
        assert!((55.0..85.0).contains(&last12), "{last12}");
    }

    #[test]
    fn fig3_declines_with_rank() {
        let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.25));
        let bins = fig3_bins(&eco, SimDate::ymd(2024, 9, 29));
        assert_eq!(bins.len(), 100);
        let top10_avg: f64 = bins[..10].iter().map(|(_, p)| p).sum::<f64>() / 10.0;
        let bottom10_avg: f64 = bins[90..].iter().map(|(_, p)| p).sum::<f64>() / 10.0;
        // Paper: 1.2% vs 0.4%.
        assert!(
            top10_avg > bottom10_avg * 1.8,
            "{top10_avg} vs {bottom10_avg}"
        );
        assert!((0.5..2.5).contains(&top10_avg), "{top10_avg}");
    }

    #[test]
    fn fig5_self_managed_worse_than_third_party() {
        let (_, run) = &run();
        let self_series = fig5_series(run, EntityClass::SelfManaged);
        let third_series = fig5_series(run, EntityClass::ThirdParty);
        let s = self_series.last().unwrap();
        let t = third_series.last().unwrap();
        let self_rate = s.faulty as f64 / s.class_total.max(1) as f64;
        let third_rate = t.faulty as f64 / t.class_total.max(1) as f64;
        // Paper: 37.8% vs 4.9%. At small scale classification drifts, but
        // the ordering must hold decisively.
        assert!(
            self_rate > third_rate * 2.0,
            "self {self_rate} vs third {third_rate}"
        );
        // TLS dominates the self-managed failures.
        let tls = s.layer_pct[&PolicyLayer::Tls];
        let tcp = s.layer_pct[&PolicyLayer::Tcp];
        assert!(tls > tcp, "tls {tls} vs tcp {tcp}");
    }

    #[test]
    fn fig6_self_managed_mx_worse() {
        let (_, run) = &run();
        let s = fig6_series(run, EntityClass::SelfManaged);
        let t = fig6_series(run, EntityClass::ThirdParty);
        let s_last = s.last().unwrap();
        let t_last = t.last().unwrap();
        let s_rate = s_last.invalid as f64 / s_last.class_total.max(1) as f64;
        let t_rate = t_last.invalid as f64 / t_last.class_total.max(1) as f64;
        // Paper: 4.4% vs 1%.
        assert!(s_rate > t_rate, "self {s_rate} vs third {t_rate}");
    }

    #[test]
    fn lucidgrow_spike_in_fig8_and_fig10() {
        let (_, run) = &run();
        let f8 = fig8_series(run);
        // The 2024-01-23 scan has a 3LD+ spike relative to its neighbours.
        let jan = f8
            .iter()
            .find(|p| p.date == SimDate::ymd(2024, 1, 23))
            .expect("January 23 scan scheduled");
        let dec = f8
            .iter()
            .find(|p| p.date == SimDate::ymd(2023, 12, 7))
            .unwrap();
        let jan_3ld = jan.kind_counts.get("3LD+").copied().unwrap_or(0);
        let dec_3ld = dec.kind_counts.get("3LD+").copied().unwrap_or(0);
        assert!(jan_3ld > dec_3ld, "3LD+ {dec_3ld} -> {jan_3ld}");
        // And enforce-mode failures spike with it.
        let f8_mar = f8
            .iter()
            .find(|p| p.date == SimDate::ymd(2024, 3, 7))
            .unwrap();
        assert!(jan.enforce_failures > f8_mar.enforce_failures);
    }
}
