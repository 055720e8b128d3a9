//! The MTA-STS policy document, RFC 8461 §3.2.
//!
//! ```text
//! version: STSv1
//! mode: enforce
//! mx: mx1.example.com
//! mx: *.example.net
//! max_age: 604800
//! ```
//!
//! Lines are `key: value` pairs separated by CRLF (LF tolerated on input, as
//! real fetchers do), in any order. `version`, `mode` and `max_age` appear
//! exactly once: §3.2's grammar marks each "required once" and sets no
//! order (the version-first rule is the TXT record's, §3.1). `mx` appears
//! once per pattern and is required unless `mode` is `none`. `max_age` is
//! 1 to 10 ASCII digits (`sts-policy-max-age-value = 1*10(DIGIT)`), at
//! most [`MAX_MAX_AGE`].
//!
//! Keys and values are trimmed, so whitespace before the colon is
//! accepted (`mode : enforce`) although the grammar's delimiter
//! (`":" *WSP`) has none. The leniency is deliberate: it rejects no
//! document the grammar accepts.
//!
//! §4.3.3 of the paper counts syntax errors from the wild: invalid mx
//! patterns (email addresses, trailing dots, empty patterns) and entirely
//! empty policy files (DMARCReport's opt-out artefact, §5) — all are
//! distinct [`PolicyError`] values here.

use netbase::DomainName;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum plausible `max_age` (about one year, RFC 8461 §3.2).
pub const MAX_MAX_AGE: u64 = 31_557_600;

/// Sending-MTA behaviour on validation failure (§2.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Must not deliver on validation failure.
    Enforce,
    /// Validate and report, but deliver anyway.
    Testing,
    /// Do not validate at all.
    None,
}

impl Mode {
    /// The policy-file token.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Enforce => "enforce",
            Mode::Testing => "testing",
            Mode::None => "none",
        }
    }

    /// Parses a policy-file token (case-sensitive per the RFC).
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "enforce" => Some(Mode::Enforce),
            "testing" => Some(Mode::Testing),
            "none" => Some(Mode::None),
            _ => None,
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// An `mx` pattern: an exact host name or a single-level wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct MxPattern {
    /// The pattern as a (possibly wildcard) domain name.
    name: DomainName,
}

impl MxPattern {
    /// Parses and validates a pattern. The paper's observed invalid forms —
    /// email addresses (`user@mx.example.com`), trailing dots
    /// (`mx.example.com.` is *not* valid in a policy file), empty strings —
    /// are rejected.
    pub fn parse(s: &str) -> Result<MxPattern, PolicyError> {
        let invalid = |why: &str| PolicyError::InvalidMxPattern {
            pattern: s.to_string(),
            why: why.to_string(),
        };
        if s.is_empty() {
            return Err(invalid("empty pattern"));
        }
        if s.contains('@') {
            return Err(invalid("looks like an email address"));
        }
        if s.ends_with('.') {
            return Err(invalid("trailing dot"));
        }
        let name: DomainName = s.parse().map_err(|e| invalid(&format!("{e}")))?;
        if name.label_count() < 2 {
            return Err(invalid("single-label pattern"));
        }
        Ok(MxPattern { name })
    }

    /// The underlying (possibly wildcard) name.
    pub fn name(&self) -> &DomainName {
        &self.name
    }

    /// Whether this pattern is a wildcard.
    pub fn is_wildcard(&self) -> bool {
        self.name.is_wildcard()
    }

    /// RFC 8461 §4.1 matching: wildcards match exactly one leftmost label.
    pub fn matches(&self, host: &DomainName) -> bool {
        host.matches_pattern(&self.name)
    }
}

impl fmt::Display for MxPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl TryFrom<String> for MxPattern {
    type Error = PolicyError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        MxPattern::parse(&s)
    }
}

impl From<MxPattern> for String {
    fn from(p: MxPattern) -> String {
        p.name.to_string()
    }
}

/// A parsed, valid policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Failure-handling mode.
    pub mode: Mode,
    /// Cache lifetime in seconds.
    pub max_age: u64,
    /// Allowed MX patterns (may be empty only in `none` mode).
    pub mx: Vec<MxPattern>,
    /// Unrecognized `key: value` pairs, preserved in order.
    pub extensions: Vec<(String, String)>,
}

impl Policy {
    /// Serializes to the canonical CRLF policy-file form.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        out.push_str("version: STSv1\r\n");
        out.push_str(&format!("mode: {}\r\n", self.mode));
        for pattern in &self.mx {
            out.push_str(&format!("mx: {pattern}\r\n"));
        }
        out.push_str(&format!("max_age: {}\r\n", self.max_age));
        for (k, v) in &self.extensions {
            out.push_str(&format!("{k}: {v}\r\n"));
        }
        out
    }

    /// Convenience constructor for well-formed policies.
    pub fn new(mode: Mode, max_age: u64, mx: Vec<MxPattern>) -> Policy {
        Policy {
            mode,
            max_age,
            mx,
            extensions: Vec::new(),
        }
    }
}

/// Policy parse/validation failures (the paper's "Policy Syntax" class).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyError {
    /// The document was completely empty (DMARCReport's opt-out artefact;
    /// senders treat this as equivalent to `none`, §5 of the paper).
    EmptyDocument,
    /// A line was not a `key: value` pair.
    MalformedLine(String),
    /// `version` missing.
    MissingVersion,
    /// `version` present but not `STSv1`.
    WrongVersion(String),
    /// `mode` missing.
    MissingMode,
    /// Unrecognized `mode` value.
    InvalidMode(String),
    /// `max_age` missing.
    MissingMaxAge,
    /// `max_age` not a number or out of range.
    InvalidMaxAge(String),
    /// No `mx` lines although the mode requires them.
    MissingMx,
    /// An `mx` value failed validation.
    InvalidMxPattern {
        /// The offending pattern text.
        pattern: String,
        /// Why it is invalid.
        why: String,
    },
    /// A singleton key (`version`, `mode`, `max_age`) appeared twice.
    DuplicateKey(String),
}

impl PolicyError {
    /// Short machine-readable label used in scan reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyError::EmptyDocument => "empty-document",
            PolicyError::MalformedLine(_) => "malformed-line",
            PolicyError::MissingVersion => "missing-version",
            PolicyError::WrongVersion(_) => "wrong-version",
            PolicyError::MissingMode => "missing-mode",
            PolicyError::InvalidMode(_) => "invalid-mode",
            PolicyError::MissingMaxAge => "missing-max-age",
            PolicyError::InvalidMaxAge(_) => "invalid-max-age",
            PolicyError::MissingMx => "missing-mx",
            PolicyError::InvalidMxPattern { .. } => "invalid-mx-pattern",
            PolicyError::DuplicateKey(_) => "duplicate-key",
        }
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::EmptyDocument => write!(f, "policy document is empty"),
            PolicyError::MalformedLine(l) => write!(f, "malformed policy line {l:?}"),
            PolicyError::MissingVersion => write!(f, "version field missing"),
            PolicyError::WrongVersion(v) => write!(f, "unsupported version {v:?}"),
            PolicyError::MissingMode => write!(f, "mode field missing"),
            PolicyError::InvalidMode(m) => write!(f, "invalid mode {m:?}"),
            PolicyError::MissingMaxAge => write!(f, "max_age field missing"),
            PolicyError::InvalidMaxAge(v) => write!(f, "invalid max_age {v:?}"),
            PolicyError::MissingMx => write!(f, "no mx patterns in a validating mode"),
            PolicyError::InvalidMxPattern { pattern, why } => {
                write!(f, "invalid mx pattern {pattern:?}: {why}")
            }
            PolicyError::DuplicateKey(k) => write!(f, "duplicate key {k:?}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Parses a policy document.
pub fn parse_policy(text: &str) -> Result<Policy, PolicyError> {
    if text.trim().is_empty() {
        return Err(PolicyError::EmptyDocument);
    }
    let mut version: Option<String> = None;
    let mut mode: Option<Mode> = None;
    let mut max_age: Option<u64> = None;
    let mut mx: Vec<MxPattern> = Vec::new();
    let mut extensions: Vec<(String, String)> = Vec::new();
    for raw in text.split("\r\n").flat_map(|chunk| chunk.split('\n')) {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            return Err(PolicyError::MalformedLine(line.to_string()));
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "version" => {
                if version.is_some() {
                    return Err(PolicyError::DuplicateKey("version".into()));
                }
                if value != "STSv1" {
                    return Err(PolicyError::WrongVersion(value.to_string()));
                }
                version = Some(value.to_string());
            }
            "mode" => {
                if mode.is_some() {
                    return Err(PolicyError::DuplicateKey("mode".into()));
                }
                mode = Some(
                    Mode::parse(value)
                        .ok_or_else(|| PolicyError::InvalidMode(value.to_string()))?,
                );
            }
            "max_age" => {
                if max_age.is_some() {
                    return Err(PolicyError::DuplicateKey("max_age".into()));
                }
                // §3.2: `sts-policy-max-age-value = 1*10(DIGIT)`. Parsing
                // alone would also take a leading `+` and any length.
                let digits =
                    (1..=10).contains(&value.len()) && value.bytes().all(|b| b.is_ascii_digit());
                match value.parse() {
                    Ok(age) if digits && age <= MAX_MAX_AGE => max_age = Some(age),
                    _ => return Err(PolicyError::InvalidMaxAge(value.to_string())),
                }
            }
            "mx" => {
                mx.push(MxPattern::parse(value)?);
            }
            other => {
                extensions.push((other.to_string(), value.to_string()));
            }
        }
    }
    if version.is_none() {
        return Err(PolicyError::MissingVersion);
    }
    let mode = mode.ok_or(PolicyError::MissingMode)?;
    let max_age = max_age.ok_or(PolicyError::MissingMaxAge)?;
    if mx.is_empty() && mode != Mode::None {
        return Err(PolicyError::MissingMx);
    }
    Ok(Policy {
        mode,
        max_age,
        mx,
        extensions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    const CANONICAL: &str =
        "version: STSv1\r\nmode: enforce\r\nmx: mx1.example.com\r\nmx: *.example.net\r\nmax_age: 604800\r\n";

    #[test]
    fn parses_canonical_policy() {
        let p = parse_policy(CANONICAL).unwrap();
        assert_eq!(p.mode, Mode::Enforce);
        assert_eq!(p.max_age, 604_800);
        assert_eq!(p.mx.len(), 2);
        assert!(p.mx[1].is_wildcard());
    }

    #[test]
    fn tolerates_bare_lf() {
        let p =
            parse_policy("version: STSv1\nmode: testing\nmx: mx.a.se\nmax_age: 86400\n").unwrap();
        assert_eq!(p.mode, Mode::Testing);
    }

    #[test]
    fn document_roundtrip() {
        let p = parse_policy(CANONICAL).unwrap();
        let text = p.to_document();
        let back = parse_policy(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn empty_document_is_distinct_error() {
        assert_eq!(parse_policy(""), Err(PolicyError::EmptyDocument));
        assert_eq!(parse_policy("   \r\n \n"), Err(PolicyError::EmptyDocument));
    }

    #[test]
    fn fields_parse_in_any_order() {
        let policy = parse_policy("mode: enforce\r\nversion: STSv1\r\nmx: a.b\r\nmax_age: 1\r\n");
        assert_eq!(policy.map(|p| p.mode), Ok(Mode::Enforce));
        assert_eq!(
            parse_policy("mode: enforce\r\nmx: a.b\r\nmax_age: 1\r\n"),
            Err(PolicyError::MissingVersion)
        );
    }

    #[test]
    fn wrong_version_rejected() {
        assert_eq!(
            parse_policy("version: STSv2\r\nmode: none\r\nmax_age: 1\r\n"),
            Err(PolicyError::WrongVersion("STSv2".into()))
        );
    }

    #[test]
    fn mode_validation() {
        assert_eq!(
            parse_policy("version: STSv1\r\nmode: Enforce\r\nmx: a.b\r\nmax_age: 1\r\n"),
            Err(PolicyError::InvalidMode("Enforce".into()))
        );
        assert_eq!(
            parse_policy("version: STSv1\r\nmx: a.b\r\nmax_age: 1\r\n"),
            Err(PolicyError::MissingMode)
        );
    }

    #[test]
    fn max_age_validation() {
        assert_eq!(
            parse_policy("version: STSv1\r\nmode: none\r\nmax_age: never\r\n"),
            Err(PolicyError::InvalidMaxAge("never".into()))
        );
        assert_eq!(
            parse_policy("version: STSv1\r\nmode: none\r\nmax_age: 99999999999\r\n"),
            Err(PolicyError::InvalidMaxAge("99999999999".into()))
        );
        assert_eq!(
            parse_policy("version: STSv1\r\nmode: none\r\n"),
            Err(PolicyError::MissingMaxAge)
        );
    }

    #[test]
    fn max_age_is_one_to_ten_digits() {
        let doc = |age: &str| {
            parse_policy(&format!(
                "version: STSv1\r\nmode: none\r\nmax_age: {age}\r\n"
            ))
        };
        // A sign, a non-ASCII digit or an eleventh digit is outside the
        // grammar even when the number is in range.
        for bad in ["+604800", "000000000000604800", "00000604800", "٦٠٤٨٠٠"] {
            assert_eq!(
                doc(bad),
                Err(PolicyError::InvalidMaxAge(bad.into())),
                "{bad}"
            );
        }
        // Ten digits are in the grammar; leading zeros count toward them.
        assert_eq!(doc("0000604800").map(|p| p.max_age), Ok(604_800));
        assert_eq!(doc("0").map(|p| p.max_age), Ok(0));
        // In the grammar but over the cap.
        assert_eq!(
            doc("31557601"),
            Err(PolicyError::InvalidMaxAge("31557601".into()))
        );
    }

    #[test]
    fn mx_required_unless_none() {
        assert_eq!(
            parse_policy("version: STSv1\r\nmode: enforce\r\nmax_age: 1\r\n"),
            Err(PolicyError::MissingMx)
        );
        // `none` mode without mx is fine.
        let p = parse_policy("version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n").unwrap();
        assert!(p.mx.is_empty());
    }

    #[test]
    fn invalid_mx_patterns_from_the_wild() {
        // §4.3.3: email addresses, trailing dots, empty patterns.
        for bad in ["user@mx.example.com", "mx.example.com.", "", "com"] {
            let text = format!("version: STSv1\r\nmode: enforce\r\nmx: {bad}\r\nmax_age: 1\r\n");
            assert!(
                matches!(
                    parse_policy(&text),
                    Err(PolicyError::InvalidMxPattern { .. })
                ),
                "pattern {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn duplicate_singletons_rejected() {
        let text = "version: STSv1\r\nmode: enforce\r\nmode: testing\r\nmx: a.b\r\nmax_age: 1\r\n";
        assert_eq!(
            parse_policy(text),
            Err(PolicyError::DuplicateKey("mode".into()))
        );
    }

    #[test]
    fn unknown_keys_are_extensions() {
        let text = "version: STSv1\r\nmode: none\r\nmax_age: 60\r\nfuture_field: hello\r\n";
        let p = parse_policy(text).unwrap();
        assert_eq!(
            p.extensions,
            vec![("future_field".to_string(), "hello".to_string())]
        );
    }

    #[test]
    fn pattern_matching_semantics() {
        let exact = MxPattern::parse("mx1.example.com").unwrap();
        assert!(exact.matches(&n("mx1.example.com")));
        assert!(!exact.matches(&n("mx2.example.com")));
        let wild = MxPattern::parse("*.example.com").unwrap();
        assert!(wild.matches(&n("anything.example.com")));
        assert!(!wild.matches(&n("example.com")));
        assert!(!wild.matches(&n("a.b.example.com")));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(matches!(
            parse_policy("version: STSv1\r\njusttext\r\n"),
            Err(PolicyError::MalformedLine(_))
        ));
    }

    #[test]
    fn error_labels_stable() {
        assert_eq!(PolicyError::EmptyDocument.label(), "empty-document");
        assert_eq!(
            PolicyError::InvalidMxPattern {
                pattern: "x".into(),
                why: "y".into()
            }
            .label(),
            "invalid-mx-pattern"
        );
    }
}
