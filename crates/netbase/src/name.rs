//! DNS domain names.
//!
//! A [`DomainName`] is a sequence of lowercase LDH (letters, digits, hyphen)
//! labels, stored as one shared string in canonical presentation form
//! (`mail.example.com`: lowercase, no trailing dot). Names are always
//! handled in that fully-qualified, canonical form. No label contains `.`
//! (`parse` splits on it and the wire decoder refuses it), so the joined
//! string is unambiguous and every label is a `.`-delimited slice of it.
//!
//! Besides parsing and display, the type carries the label arithmetic the
//! measurement pipeline needs: parent/ancestor walks, subdomain tests,
//! prefixing (`_mta-sts.` and `mta-sts.` labels from RFC 8461), and
//! effective-SLD extraction used by the paper's managing-entity heuristics
//! (§4.3.1) and mismatch taxonomy (§4.4). These compare byte suffixes of
//! the string: subdomain, eSLD and pattern tests allocate nothing, and
//! `parent`/`effective_sld` allocate at most the one suffix they return.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a full domain name in presentation format.
pub const MAX_NAME_LEN: usize = 253;

/// Errors produced when parsing a domain name from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// The input was empty (or consisted solely of a root dot).
    Empty,
    /// A label was empty (consecutive dots).
    EmptyLabel,
    /// A label exceeded [`MAX_LABEL_LEN`] octets.
    LabelTooLong(String),
    /// The whole name exceeded [`MAX_NAME_LEN`] octets.
    NameTooLong,
    /// A label contained a character outside `[a-z0-9-_*]`.
    ///
    /// `_` is permitted because service labels such as `_mta-sts` and
    /// `_smtp._tls` are first-class citizens in this study; `*` is permitted
    /// only as a full leftmost label (wildcards in MX patterns and
    /// certificate names).
    BadChar { label: String, ch: char },
    /// A label began or ended with a hyphen.
    HyphenEdge(String),
    /// `*` appeared somewhere other than as the entire leftmost label.
    BadWildcard(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::Empty => write!(f, "empty domain name"),
            NameError::EmptyLabel => write!(f, "empty label in domain name"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::NameTooLong => write!(f, "domain name exceeds {MAX_NAME_LEN} octets"),
            NameError::BadChar { label, ch } => {
                write!(f, "invalid character {ch:?} in label {label:?}")
            }
            NameError::HyphenEdge(l) => write!(f, "label starts or ends with hyphen: {l:?}"),
            NameError::BadWildcard(l) => write!(f, "misplaced wildcard in label {l:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// Checks one label of presentation input in any letter case. Only the
/// `leftmost` label may be the `*` wildcard. Error payloads carry the
/// label lowercased (an over-long label as given).
fn check_label(raw: &str, leftmost: bool) -> Result<(), NameError> {
    if raw.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if raw.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong(raw.to_string()));
    }
    if raw.contains('*') {
        if raw != "*" || !leftmost {
            return Err(NameError::BadWildcard(raw.to_ascii_lowercase()));
        }
        return Ok(());
    }
    let bad = raw
        .bytes()
        .position(|b| !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
    if let Some(at) = bad {
        // Every byte before `at` is ASCII, so `at` starts a char.
        let ch = raw[at..].chars().next().expect("a char starts at `at`");
        return Err(NameError::BadChar {
            label: raw.to_ascii_lowercase(),
            ch,
        });
    }
    if raw.starts_with('-') || raw.ends_with('-') {
        return Err(NameError::HyphenEdge(raw.to_ascii_lowercase()));
    }
    Ok(())
}

/// A canonical, lowercase DNS domain name.
///
/// ```
/// use netbase::DomainName;
///
/// let mx: DomainName = "MX1.Example.COM".parse().unwrap();
/// assert_eq!(mx.to_string(), "mx1.example.com");
/// assert_eq!(mx.label_count(), 3);
/// assert!(mx.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
///
/// Names order label by label, leftmost label first, as their label
/// sequences would: `a.b.com < a.com < a-b.com`, where plain string order
/// puts `a-b.com` first. Zone maps, sorted snapshots and every pinned
/// digest depend on that order.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct DomainName {
    /// The canonical presentation form, labels joined by `.`.
    ///
    /// Shared, not owned: the longitudinal drivers clone every adopted
    /// domain's name once per snapshot date, so `clone()` must be a
    /// reference-count bump rather than a fresh allocation.
    name: Arc<str>,
}

impl DomainName {
    /// Parses a name from presentation format, canonicalizing to lowercase
    /// and stripping at most one trailing root dot.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(NameError::Empty);
        }
        if s.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        for (i, raw) in s.split('.').enumerate() {
            check_label(raw, i == 0)?;
        }
        let mut name: Arc<str> = Arc::from(s);
        Arc::get_mut(&mut name)
            .expect("a fresh Arc is unique")
            .make_ascii_lowercase();
        Ok(DomainName { name })
    }

    /// Builds a name from its canonical presentation form, whose labels the
    /// caller has already validated (the wire decoder, which also refuses
    /// `.` inside a label).
    ///
    /// The name must already be canonical; this is checked in debug builds.
    pub fn from_canonical(name: &str) -> Self {
        debug_assert_eq!(
            DomainName::parse(name).as_ref().map(DomainName::as_str),
            Ok(name)
        );
        DomainName {
            name: Arc::from(name),
        }
    }

    /// The canonical presentation form, e.g. `mail.example.com`.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// Labels in presentation order (leftmost first).
    pub fn labels(&self) -> std::str::Split<'_, char> {
        self.name.split('.')
    }

    /// Number of labels, e.g. 3 for `mail.example.com`.
    pub fn label_count(&self) -> usize {
        self.name.bytes().filter(|&b| b == b'.').count() + 1
    }

    /// The leftmost label.
    pub fn leftmost(&self) -> &str {
        self.name
            .split_once('.')
            .map_or(self.as_str(), |(first, _)| first)
    }

    /// The rightmost label, i.e. the TLD.
    pub fn tld(&self) -> &str {
        self.name
            .rsplit_once('.')
            .map_or(self.as_str(), |(_, last)| last)
    }

    /// Whether the leftmost label is `*` (a wildcard pattern, not a hostname).
    pub fn is_wildcard(&self) -> bool {
        // `*` can only appear as the whole leftmost label.
        self.name.starts_with('*')
    }

    /// Everything right of the leftmost label, or `None` for a single label.
    fn after_leftmost(&self) -> Option<&str> {
        self.name.split_once('.').map(|(_, rest)| rest)
    }

    /// The last `n` labels (`n ≥ 1`) as a suffix of the name, or `None` if
    /// the name has fewer.
    fn last_labels(&self, n: usize) -> Option<&str> {
        let mut start = self.name.len();
        for _ in 0..n {
            if start == 0 {
                return None;
            }
            start = self.name[..start - 1].rfind('.').map_or(0, |dot| dot + 1);
        }
        Some(&self.name[start..])
    }

    /// The name spelled by `suffix`, a label-aligned suffix of this name:
    /// a clone when it is the whole name, one allocation otherwise.
    fn suffix_name(&self, suffix: &str) -> DomainName {
        if suffix.len() == self.name.len() {
            self.clone()
        } else {
            DomainName {
                name: Arc::from(suffix),
            }
        }
    }

    /// The name and each of its ancestors, longest first, borrowed as
    /// label-aligned suffixes of its string: `mail.example.com`,
    /// `example.com`, `com`. A walk up the tree allocates nothing.
    pub fn suffixes(&self) -> impl Iterator<Item = &str> {
        std::iter::successors(Some(self.as_str()), |s| {
            s.split_once('.').map(|(_, rest)| rest)
        })
    }

    /// The name with its leftmost label removed, or `None` at the TLD.
    pub fn parent(&self) -> Option<DomainName> {
        self.after_leftmost().map(|rest| self.suffix_name(rest))
    }

    /// Returns a new name with `label` prepended, e.g.
    /// `example.com -> _mta-sts.example.com`.
    ///
    /// Accepts and rejects exactly what parsing `"{label}.{self}"` would.
    pub fn prefixed(&self, label: &str) -> Result<DomainName, NameError> {
        let len = label.len() + 1 + self.name.len();
        if len > MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        for (i, raw) in label.split('.').enumerate() {
            check_label(raw, i == 0)?;
        }
        if self.is_wildcard() {
            return Err(NameError::BadWildcard("*".to_string()));
        }
        // Assembled on the stack, so the shared string is the only
        // allocation.
        let mut buf = [0u8; MAX_NAME_LEN];
        buf[..label.len()].copy_from_slice(label.as_bytes());
        buf[..label.len()].make_ascii_lowercase();
        buf[label.len()] = b'.';
        buf[label.len() + 1..len].copy_from_slice(self.name.as_bytes());
        let name = std::str::from_utf8(&buf[..len]).expect("checked labels are ASCII");
        Ok(DomainName {
            name: Arc::from(name),
        })
    }

    /// True if `self` is equal to or a subdomain of `other`.
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        let (name, suffix) = (self.name.as_bytes(), other.name.as_bytes());
        name.ends_with(suffix)
            && (name.len() == suffix.len() || name[name.len() - suffix.len() - 1] == b'.')
    }

    /// True if `self` is a *strict* subdomain of `other`.
    pub fn is_strict_subdomain_of(&self, other: &DomainName) -> bool {
        self.name.len() > other.name.len() && self.is_subdomain_of(other)
    }

    /// The effective second-level domain: the registrable part of the name.
    ///
    /// This study covers `.com`, `.net`, `.org` and `.se`, all of which
    /// register directly at the second level, plus a short built-in list of
    /// multi-label public suffixes so provider names like `example.co.uk`
    /// appearing in synthetic data do not confuse the entity heuristics.
    ///
    /// Returns `None` for names that are themselves a public suffix.
    pub fn effective_sld(&self) -> Option<DomainName> {
        self.esld_str().map(|esld| self.suffix_name(esld))
    }

    /// The effective SLD borrowed as a suffix of the name, without the
    /// allocation [`DomainName::effective_sld`] makes: `mail.example.com`
    /// → `example.com`.
    pub fn esld_str(&self) -> Option<&str> {
        self.last_labels(self.public_suffix_len() + 1)
    }

    /// Number of labels occupied by the public suffix of this name.
    fn public_suffix_len(&self) -> usize {
        /// Multi-label public suffixes relevant to synthetic populations.
        const TWO_LABEL_SUFFIXES: &[&str] =
            &["co.uk", "org.uk", "ac.uk", "com.au", "co.jp", "com.br"];
        match self.last_labels(2) {
            Some(suffix) if TWO_LABEL_SUFFIXES.contains(&suffix) => 2,
            _ => 1,
        }
    }

    /// True if two names share the same effective SLD (the paper's test for
    /// "self-managed": an MX or NS under the queried domain's own SLD).
    pub fn same_esld(&self, other: &DomainName) -> bool {
        matches!((self.esld_str(), other.esld_str()), (Some(a), Some(b)) if a == b)
    }

    /// Matches this hostname against an MX pattern per RFC 8461 §4.1:
    /// a pattern `*.example.com` matches any single additional leftmost
    /// label; otherwise matching is exact (case-insensitive — both sides are
    /// already canonical lowercase).
    pub fn matches_pattern(&self, pattern: &DomainName) -> bool {
        if pattern.is_wildcard() {
            // `*` matches exactly one label: everything right of it agrees.
            self.after_leftmost() == pattern.after_leftmost()
        } else {
            self == pattern
        }
    }
}

impl Ord for DomainName {
    /// Label-wise order. At the first byte where two names differ, a `.`
    /// (its label ended) ranks below every label byte; a name that ends
    /// before any difference is the smaller. That is exactly how the
    /// label sequences compare.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(b: u8) -> u8 {
            if b == b'.' {
                0
            } else {
                b
            }
        }
        let (a, b) = (self.name.as_bytes(), other.name.as_bytes());
        match a.iter().zip(b).position(|(x, y)| x != y) {
            Some(i) => rank(a[i]).cmp(&rank(b[i])),
            None => a.len().cmp(&b.len()),
        }
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A [`DomainName`] as a hash key that a borrowed `&str` can probe.
///
/// Its `Hash` and `Eq` are its presentation string's, so a map keyed by
/// it answers `get(suffix)` for each suffix [`DomainName::suffixes`]
/// yields without building that suffix as a name. `DomainName` cannot
/// lend itself as `str`: its label-wise `Ord` disagrees with `str`'s,
/// which `Borrow`'s contract forbids. A `NameKey` has no order.
#[derive(Clone, Debug)]
pub struct NameKey(pub DomainName);

impl Hash for NameKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.as_str().hash(state);
    }
}

impl PartialEq for NameKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_str() == other.0.as_str()
    }
}

impl Eq for NameKey {}

impl Borrow<str> for NameKey {
    fn borrow(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl fmt::Debug for DomainName {
    /// Delegates to `Display`; domain names read better unquoted in test
    /// output and structured logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl TryFrom<String> for DomainName {
    type Error = NameError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        DomainName::parse(&s)
    }
}

impl From<DomainName> for String {
    fn from(d: DomainName) -> String {
        d.as_str().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn parses_and_canonicalizes() {
        assert_eq!(n("Example.COM").to_string(), "example.com");
        assert_eq!(n("example.com.").to_string(), "example.com");
        assert_eq!(n("a.b.c.d").label_count(), 4);
    }

    #[test]
    fn accepts_service_labels() {
        assert_eq!(n("_mta-sts.example.com").leftmost(), "_mta-sts");
        assert_eq!(n("_smtp._tls.example.com").labels().nth(1), Some("_tls"));
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DomainName::parse(""), Err(NameError::Empty));
        assert_eq!(DomainName::parse("."), Err(NameError::Empty));
        assert_eq!(DomainName::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(
            DomainName::parse("exa mple.com"),
            Err(NameError::BadChar { .. })
        ));
        assert!(matches!(
            DomainName::parse("-bad.com"),
            Err(NameError::HyphenEdge(_))
        ));
        assert!(matches!(
            DomainName::parse("bad-.com"),
            Err(NameError::HyphenEdge(_))
        ));
        let long_label = "a".repeat(64);
        assert!(matches!(
            DomainName::parse(&format!("{long_label}.com")),
            Err(NameError::LabelTooLong(_))
        ));
        let long_name = format!("{}.com", vec!["abcdefgh"; 40].join("."));
        assert_eq!(DomainName::parse(&long_name), Err(NameError::NameTooLong));
    }

    #[test]
    fn error_payloads_are_lowercased_labels() {
        assert_eq!(
            DomainName::parse("Exa Mple.com"),
            Err(NameError::BadChar {
                label: "exa mple".into(),
                ch: ' '
            })
        );
        assert_eq!(
            DomainName::parse("ok.B\u{e9}.com"),
            Err(NameError::BadChar {
                label: "b\u{e9}".into(),
                ch: '\u{e9}'
            })
        );
        assert_eq!(
            DomainName::parse("-Bad.com"),
            Err(NameError::HyphenEdge("-bad".into()))
        );
        assert_eq!(
            DomainName::parse("A.*X.com"),
            Err(NameError::BadWildcard("*x".into()))
        );
        let long_label = "A".repeat(64);
        assert_eq!(
            DomainName::parse(&format!("{long_label}.com")),
            Err(NameError::LabelTooLong(long_label))
        );
    }

    #[test]
    fn wildcard_placement() {
        assert!(n("*.example.com").is_wildcard());
        assert!(matches!(
            DomainName::parse("mail.*.com"),
            Err(NameError::BadWildcard(_))
        ));
        assert!(matches!(
            DomainName::parse("*x.example.com"),
            Err(NameError::BadWildcard(_))
        ));
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("mail.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_strict_subdomain_of(&n("example.com")));
        assert!(n("a.b.example.com").is_strict_subdomain_of(&n("example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_subdomain_of(&n("mail.example.com")));
    }

    #[test]
    fn parent_walk() {
        let d = n("a.b.c");
        let p = d.parent().unwrap();
        assert_eq!(p.to_string(), "b.c");
        assert_eq!(p.parent().unwrap().to_string(), "c");
        assert_eq!(p.parent().unwrap().parent(), None);
        // The borrowed walk visits the same names.
        let mut owned = vec![d.to_string()];
        let mut at = d.parent();
        while let Some(name) = at {
            owned.push(name.to_string());
            at = name.parent();
        }
        assert_eq!(d.suffixes().collect::<Vec<_>>(), owned);
    }

    #[test]
    fn name_keys_probe_by_str() {
        use std::collections::HashSet;
        let keys: HashSet<NameKey> = [n("example.com"), n("a-b.com")]
            .into_iter()
            .map(NameKey)
            .collect();
        // `a.com < a-b.com` label-wise but not as strings; a key has no
        // order, only the string's hash and equality.
        assert!(keys.contains("a-b.com"));
        assert!(n("mail.example.com").suffixes().any(|s| keys.contains(s)));
        assert!(!n("mail.example.org").suffixes().any(|s| keys.contains(s)));
    }

    #[test]
    fn prefixing() {
        assert_eq!(
            n("example.com").prefixed("_mta-sts").unwrap().to_string(),
            "_mta-sts.example.com"
        );
        assert_eq!(
            n("example.com").prefixed("_SMTP._TLS").unwrap(),
            n("_smtp._tls.example.com")
        );
        assert_eq!(n("example.com").prefixed("*").unwrap(), n("*.example.com"));
        assert!(n("example.com").prefixed("bad label").is_err());
        assert_eq!(
            n("example.com").prefixed(""),
            DomainName::parse(".example.com")
        );
        assert_eq!(
            n("*.example.com").prefixed("mx"),
            DomainName::parse("mx.*.example.com")
        );
        let long = "a".repeat(MAX_LABEL_LEN);
        let deep = n(&[long.as_str(); 3].join("."));
        assert_eq!(
            deep.prefixed(&long),
            DomainName::parse(&format!("{long}.{deep}"))
        );
    }

    #[test]
    fn effective_sld() {
        assert_eq!(
            n("mail.example.com").effective_sld().unwrap(),
            n("example.com")
        );
        assert_eq!(n("example.com").effective_sld().unwrap(), n("example.com"));
        assert_eq!(n("com").effective_sld(), None);
        assert_eq!(
            n("x.y.example.co.uk").effective_sld().unwrap(),
            n("example.co.uk")
        );
        assert_eq!(n("co.uk").effective_sld(), None);
        assert_eq!(n("x.y.example.co.uk").esld_str(), Some("example.co.uk"));
        assert_eq!(n("co.uk").esld_str(), None);
        assert!(n("mx.foo.se").same_esld(&n("www.foo.se")));
        assert!(!n("mx.foo.se").same_esld(&n("mx.bar.se")));
    }

    #[test]
    fn pattern_matching_rfc8461() {
        // Exact match.
        assert!(n("mx1.example.com").matches_pattern(&n("mx1.example.com")));
        // Wildcard matches exactly one extra label.
        assert!(n("mx1.example.com").matches_pattern(&n("*.example.com")));
        assert!(!n("a.mx1.example.com").matches_pattern(&n("*.example.com")));
        // Wildcard does not match the apex itself.
        assert!(!n("example.com").matches_pattern(&n("*.example.com")));
        // Non-wildcard pattern requires exact equality.
        assert!(!n("mx2.example.com").matches_pattern(&n("mx1.example.com")));
    }

    #[test]
    fn serde_roundtrip() {
        let d = n("mx.example.org");
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, "\"mx.example.org\"");
        assert_eq!(serde_json::from_str::<DomainName>(&json).unwrap(), d);
        assert!(serde_json::from_str::<DomainName>("\"a..b\"").is_err());
    }
}
