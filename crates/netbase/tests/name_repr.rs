//! `DomainName` is one shared string; these properties pin it to the
//! label-sequence model it replaces. Every operation is checked against a
//! reference written over `Vec<String>` labels, with label alphabets small
//! enough that labels are often prefixes of one another (`a`, `a-b`, `ab`)
//! and names often share suffixes.

use netbase::DomainName;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Labels over `[a-z0-9_-]` without edge hyphens: mostly from a
/// three-letter alphabet, so prefix relations are common.
fn label() -> impl Strategy<Value = String> {
    prop_oneof!["[ab-]{1,3}", "[a-z0-9_]{1,2}", "[a-z0-9_-]{1,8}"].prop_map(|s| {
        let trimmed = s.trim_matches('-');
        if trimmed.is_empty() {
            "a".to_string()
        } else {
            trimmed.to_string()
        }
    })
}

/// Label vectors, sometimes ending in a multi-label public suffix.
fn labels() -> impl Strategy<Value = Vec<String>> {
    (prop::collection::vec(label(), 0..=3), 0usize..6).prop_map(|(mut v, tail)| {
        match tail {
            0 => v.extend(["co".to_string(), "uk".to_string()]),
            1 => v.push("com".to_string()),
            2 => v.extend(["com".to_string(), "au".to_string()]),
            _ => {}
        }
        if v.is_empty() {
            v.push("a".to_string());
        }
        v
    })
}

fn name(labels: &[String]) -> DomainName {
    DomainName::parse(&labels.join(".")).expect("generated labels are valid")
}

/// A second label vector: `head` followed by the last `keep` labels of
/// `base`, so the two names often share a suffix.
fn sibling(base: &[String], head: Vec<String>, keep: usize) -> Vec<String> {
    let mut v = head;
    v.extend_from_slice(&base[base.len() - keep.min(base.len())..]);
    if v.is_empty() {
        v.push("a".to_string());
    }
    v
}

/// `v` with its first two labels fused by a hyphen (`a.b.com` →
/// `a-b.com`): where the two names first differ, one has `-` and the
/// other `.`, which plain string order ranks the wrong way round.
fn fused(v: &[String]) -> Vec<String> {
    if v.len() < 2 {
        return v.to_vec();
    }
    let mut out = vec![format!("{}-{}", v[0], v[1])];
    out.extend_from_slice(&v[2..]);
    out
}

// Reference model over label vectors.

fn ref_parent(v: &[String]) -> Option<Vec<String>> {
    (v.len() > 1).then(|| v[1..].to_vec())
}

fn ref_public_suffix_len(v: &[String]) -> usize {
    const TWO_LABEL: &[(&str, &str)] = &[
        ("co", "uk"),
        ("org", "uk"),
        ("ac", "uk"),
        ("com", "au"),
        ("co", "jp"),
        ("com", "br"),
    ];
    let n = v.len();
    if n >= 2 && TWO_LABEL.contains(&(v[n - 2].as_str(), v[n - 1].as_str())) {
        2
    } else {
        1
    }
}

fn ref_esld(v: &[String]) -> Option<Vec<String>> {
    let suffix = ref_public_suffix_len(v);
    (v.len() > suffix).then(|| v[v.len() - suffix - 1..].to_vec())
}

fn ref_is_subdomain(v: &[String], of: &[String]) -> bool {
    of.len() <= v.len() && v[v.len() - of.len()..] == *of
}

fn ref_matches(v: &[String], pattern: &[String]) -> bool {
    if pattern[0] == "*" {
        v.len() == pattern.len() && v[1..] == pattern[1..]
    } else {
        v == pattern
    }
}

fn hash_of(n: &DomainName) -> u64 {
    let mut h = DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

#[test]
fn order_is_label_wise_not_string_order() {
    let n = |s: &str| DomainName::parse(s).unwrap();
    // Plain `str` order would sort a-b.com < a.b.com < a.com.
    assert!(n("a.b.com") < n("a.com"));
    assert!(n("a.com") < n("a-b.com"));
    assert!(n("a.b.com") < n("a-b.com"));
    assert!(n("a.b") < n("ab"));
    assert!(n("b") < n("a.b.c").parent().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn order_matches_label_vectors(
        a in labels(),
        head in prop::collection::vec(label(), 0..=2),
        keep in 0usize..4,
    ) {
        let b = sibling(&a, head, keep);
        let vectors = [fused(&a), fused(&b), a, b];
        for x in &vectors {
            for y in &vectors {
                let (nx, ny) = (name(x), name(y));
                prop_assert_eq!(nx.cmp(&ny), x.cmp(y), "{:?} vs {:?}", x, y);
                prop_assert_eq!(nx.partial_cmp(&ny), Some(x.cmp(y)));
                prop_assert_eq!(nx == ny, x == y);
            }
        }
    }

    #[test]
    fn text_and_serde_round_trip(v in labels(), upper in any::<bool>()) {
        let n = name(&v);
        let text = n.to_string();
        prop_assert_eq!(&text, &v.join("."));
        prop_assert_eq!(n.as_str(), text.as_str());
        prop_assert_eq!(DomainName::parse(&text).unwrap(), n.clone());
        let spelled = if upper { format!("{}.", text.to_ascii_uppercase()) } else { text.clone() };
        prop_assert_eq!(DomainName::parse(&spelled).unwrap(), n.clone());
        let json = serde_json::to_string(&n).unwrap();
        prop_assert_eq!(&json, &format!("\"{text}\""));
        prop_assert_eq!(serde_json::from_str::<DomainName>(&json).unwrap(), n);
    }

    #[test]
    fn label_arithmetic_matches_label_vectors(
        a in labels(),
        head in prop::collection::vec(label(), 0..=2),
        keep in 0usize..4,
        wildcard in any::<bool>(),
    ) {
        let b = sibling(&a, head, keep);
        let (na, nb) = (name(&a), name(&b));

        prop_assert_eq!(na.labels().collect::<Vec<_>>(), a.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(na.label_count(), a.len());
        prop_assert_eq!(na.leftmost(), a[0].as_str());
        prop_assert_eq!(na.tld(), a[a.len() - 1].as_str());
        prop_assert_eq!(na.parent(), ref_parent(&a).map(|p| name(&p)));
        prop_assert_eq!(na.effective_sld(), ref_esld(&a).map(|e| name(&e)));
        let same = matches!((ref_esld(&a), ref_esld(&b)), (Some(x), Some(y)) if x == y);
        prop_assert_eq!(na.same_esld(&nb), same, "{:?} vs {:?}", a, b);
        prop_assert_eq!(na.is_subdomain_of(&nb), ref_is_subdomain(&a, &b), "{:?} in {:?}", a, b);
        prop_assert_eq!(
            na.is_strict_subdomain_of(&nb),
            a.len() > b.len() && ref_is_subdomain(&a, &b)
        );

        // Patterns: `b` itself, or `b` with its leftmost label a wildcard.
        let mut pattern = b.clone();
        if wildcard {
            pattern[0] = "*".to_string();
        }
        let np = name(&pattern);
        prop_assert_eq!(np.is_wildcard(), wildcard);
        prop_assert_eq!(na.matches_pattern(&np), ref_matches(&a, &pattern), "{:?} ~ {:?}", a, pattern);
        // A one-label wildcard sibling of `a` always matches.
        let mut one_up = a.clone();
        one_up[0] = "*".to_string();
        prop_assert!(na.matches_pattern(&name(&one_up)));

        let prefixed = na.prefixed(&b[0]).unwrap();
        let mut longer = vec![b[0].clone()];
        longer.extend(a.iter().cloned());
        prop_assert_eq!(prefixed, name(&longer));
    }

    #[test]
    fn equal_names_hash_equal(v in labels(), head in label()) {
        let n = name(&v);
        // The same name reached three ways: parsed in another case, cut
        // back from a longer name, and rebuilt by prefixing its parent.
        let shouted = DomainName::parse(&v.join(".").to_ascii_uppercase()).unwrap();
        let cut = n.prefixed(&head).unwrap().parent().unwrap();
        prop_assert_eq!(&shouted, &n);
        prop_assert_eq!(&cut, &n);
        prop_assert_eq!(hash_of(&shouted), hash_of(&n));
        prop_assert_eq!(hash_of(&cut), hash_of(&n));
        if let Some(parent) = n.parent() {
            let rebuilt = parent.prefixed(&v[0]).unwrap();
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&n));
        }
    }
}
