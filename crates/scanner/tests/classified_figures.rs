//! Pins the figures that split domains by managing entity (§4.3.1):
//! Figure 5 (policy-server errors), Figure 6 (invalid MX certificates),
//! each for the self-managed and the third-party class, and Figure 10
//! (same vs different provider).
//!
//! The digests fix every cell of those series at seed 42, scale 0.05, so
//! a change to how or when domains are classified must reproduce the
//! figures byte for byte. The scale is large enough that a popular MX
//! group passes the single-administrator test, which the test checks, so
//! that branch of Heuristic 1 is covered too.

use ecosystem::{Ecosystem, EcosystemConfig};
use mtasts_scanner::analysis::{fig10_series, fig5_series, fig6_series};
use mtasts_scanner::classify::{EntityClass, EntityClassifier, THIRD_PARTY_MIN_DOMAINS};
use mtasts_scanner::longitudinal::Study;
use obsv::health::fnv64;
use serde::Serialize;

/// `fnv64` of each series' JSON at seed 42, scale 0.05.
const PINNED: [(&str, u64); 5] = [
    ("fig5 self-managed", 0xcb35_a563_a6c1_5deb),
    ("fig5 third-party", 0x74a0_dc30_b0cb_c94c),
    ("fig6 self-managed", 0x2b53_dae0_337d_699b),
    ("fig6 third-party", 0xa90a_6039_3bcf_e7a3),
    ("fig10", 0xe998_a978_3640_9787),
];

fn digest<T: Serialize>(series: &T) -> u64 {
    fnv64(
        serde_json::to_string(series)
            .expect("series serializes")
            .as_bytes(),
    )
}

#[test]
fn classified_figures_match_pinned_digests() {
    let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.05)));
    let run = study.run();

    // Some snapshot holds a popular MX group that classifies self-managed:
    // an MX outside the domain's own eSLD can only do that through the
    // single-administrator exception.
    let single_admin = run.full.iter().any(|snap| {
        let classifier = EntityClassifier::from_scans(&snap.scans);
        snap.scans.iter().any(|scan| {
            let Some(mx) = scan.mx_records.first() else {
                return false;
            };
            !mx.same_esld(&scan.domain)
                && mx
                    .effective_sld()
                    .is_some_and(|esld| classifier.mx_group_size(&esld) >= THIRD_PARTY_MIN_DOMAINS)
                && classifier.classify_mx(&scan.domain, &scan.mx_records)
                    == EntityClass::SelfManaged
        })
    });
    assert!(single_admin, "no MX group was classified single-admin");

    let got = [
        (
            "fig5 self-managed",
            digest(&fig5_series(&run, EntityClass::SelfManaged)),
        ),
        (
            "fig5 third-party",
            digest(&fig5_series(&run, EntityClass::ThirdParty)),
        ),
        (
            "fig6 self-managed",
            digest(&fig6_series(&run, EntityClass::SelfManaged)),
        ),
        (
            "fig6 third-party",
            digest(&fig6_series(&run, EntityClass::ThirdParty)),
        ),
        ("fig10", digest(&fig10_series(&run))),
    ];
    for (name, value) in &got {
        eprintln!("{name}: {value:#018x}");
    }
    assert_eq!(got, PINNED);
}
