//! SMTP protocol types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// SMTP reply codes used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReplyCode(pub u16);

impl ReplyCode {
    /// 220: service ready (greeting, STARTTLS go-ahead).
    pub const READY: ReplyCode = ReplyCode(220);
    /// 221: closing.
    pub const CLOSING: ReplyCode = ReplyCode(221);
    /// 250: OK.
    pub const OK: ReplyCode = ReplyCode(250);
    /// 354: start mail input.
    pub const START_INPUT: ReplyCode = ReplyCode(354);
    /// 421: service not available (greylisting tempfail).
    pub const UNAVAILABLE: ReplyCode = ReplyCode(421);
    /// 450: mailbox unavailable, try again (greylisting).
    pub const TEMPFAIL: ReplyCode = ReplyCode(450);
    /// 454: TLS not available due to temporary reason (RFC 3207 §4).
    pub const TLS_NOT_AVAILABLE: ReplyCode = ReplyCode(454);
    /// 500: syntax error.
    pub const SYNTAX: ReplyCode = ReplyCode(500);
    /// 502: command not implemented.
    pub const NOT_IMPLEMENTED: ReplyCode = ReplyCode(502);
    /// 503: bad sequence of commands.
    pub const BAD_SEQUENCE: ReplyCode = ReplyCode(503);
    /// 530: must issue STARTTLS first.
    pub const MUST_STARTTLS: ReplyCode = ReplyCode(530);
    /// 550: mailbox unavailable / recipient rejected.
    pub const REJECTED: ReplyCode = ReplyCode(550);
    /// 554: transaction failed.
    pub const FAILED: ReplyCode = ReplyCode(554);

    /// 2xx/3xx are positive.
    pub fn is_positive(self) -> bool {
        self.0 < 400
    }

    /// 4xx are transient failures.
    pub fn is_transient(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// 5xx are permanent failures.
    pub fn is_permanent(self) -> bool {
        self.0 >= 500
    }
}

impl fmt::Display for ReplyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// ESMTP capabilities advertised in the EHLO response.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capability {
    /// RFC 3207 STARTTLS.
    StartTls,
    /// RFC 2920 command pipelining.
    Pipelining,
    /// RFC 1870 SIZE with a limit.
    Size(u64),
    /// RFC 6152 8BITMIME.
    EightBitMime,
    /// Anything else, verbatim.
    Other(String),
}

impl Capability {
    /// The EHLO keyword line for this capability.
    pub fn keyword(&self) -> String {
        match self {
            Capability::StartTls => "STARTTLS".to_string(),
            Capability::Pipelining => "PIPELINING".to_string(),
            Capability::Size(n) => format!("SIZE {n}"),
            Capability::EightBitMime => "8BITMIME".to_string(),
            Capability::Other(s) => s.clone(),
        }
    }

    /// Parses an EHLO keyword line.
    pub fn parse(line: &str) -> Capability {
        let upper = line.trim().to_ascii_uppercase();
        if upper == "STARTTLS" {
            Capability::StartTls
        } else if upper == "PIPELINING" {
            Capability::Pipelining
        } else if upper == "8BITMIME" {
            Capability::EightBitMime
        } else if let Some(size) = upper.strip_prefix("SIZE") {
            size.trim()
                .parse()
                .map(Capability::Size)
                .unwrap_or_else(|_| Capability::Other(line.trim().to_string()))
        } else {
            Capability::Other(line.trim().to_string())
        }
    }
}

/// A mail envelope plus message body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Envelope sender (MAIL FROM), e.g. `notify@scanner.example`.
    pub mail_from: String,
    /// Envelope recipients (RCPT TO).
    pub rcpt_to: Vec<String>,
    /// Message body (headers + text, DATA section).
    pub body: String,
}

/// Client-side SMTP failures, layered for the error taxonomy.
#[derive(Debug)]
pub enum SmtpError {
    /// Transport failure (connect/read/write).
    Io(std::io::Error),
    /// The server replied with an unexpected code.
    UnexpectedReply {
        /// Command or phase during which the reply arrived.
        phase: &'static str,
        /// Code received.
        code: ReplyCode,
        /// First reply line text.
        text: String,
    },
    /// The server's reply could not be parsed.
    Malformed(String),
    /// A reply line exceeded the client's length cap before a terminator
    /// arrived (hostile or broken peer; RFC 5321 §4.5.3.1.5 caps reply
    /// lines at 512 octets).
    ReplyLineTooLong {
        /// The enforced cap, in octets.
        limit: usize,
    },
    /// A multiline reply kept continuing past the client's line-count cap
    /// (a `250-`-forever peer would otherwise pin the client reading).
    TooManyReplyLines {
        /// The enforced cap.
        limit: usize,
    },
}

impl fmt::Display for SmtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtpError::Io(e) => write!(f, "smtp i/o error: {e}"),
            SmtpError::UnexpectedReply { phase, code, text } => {
                write!(f, "unexpected {code} during {phase}: {text}")
            }
            SmtpError::Malformed(l) => write!(f, "malformed reply: {l:?}"),
            SmtpError::ReplyLineTooLong { limit } => {
                write!(f, "reply line exceeded {limit} octets")
            }
            SmtpError::TooManyReplyLines { limit } => {
                write!(f, "multiline reply exceeded {limit} lines")
            }
        }
    }
}

impl std::error::Error for SmtpError {}

impl From<std::io::Error> for SmtpError {
    fn from(e: std::io::Error) -> SmtpError {
        SmtpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_code_classes() {
        assert!(ReplyCode::OK.is_positive());
        assert!(ReplyCode::START_INPUT.is_positive());
        assert!(ReplyCode::TEMPFAIL.is_transient());
        assert!(ReplyCode::REJECTED.is_permanent());
        assert!(!ReplyCode::OK.is_permanent());
    }

    #[test]
    fn capability_roundtrip() {
        for cap in [
            Capability::StartTls,
            Capability::Pipelining,
            Capability::Size(35_882_577),
            Capability::EightBitMime,
            Capability::Other("DSN".to_string()),
        ] {
            assert_eq!(Capability::parse(&cap.keyword()), cap);
        }
    }

    #[test]
    fn capability_parse_is_case_insensitive() {
        assert_eq!(Capability::parse("starttls"), Capability::StartTls);
        assert_eq!(Capability::parse("Size 100"), Capability::Size(100));
    }
}
