//! The MX server: greeting, EHLO/HELO, STARTTLS upgrade, mail transaction.
//!
//! Fault injection mirrors the behaviours the paper encounters in the wild:
//! servers that hide STARTTLS behind greylisting (§4.2 footnote), servers
//! without EHLO support (the client falls back to HELO, §4.1), providers
//! rejecting recipients of unsubscribed customers (Tutanota, §5), and MX
//! hosts presenting arbitrary certificate chains (Figure 6's taxonomy).

use crate::types::{Capability, Envelope, ReplyCode};
use netbase::DomainName;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use tlssim::{server_handshake, ServerConfig};
use tokio::io::{AsyncRead, AsyncWrite, AsyncWriteExt, BufReader};
use tokio::net::TcpListener;
use tokio::sync::watch;

/// Server-side fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxBehavior {
    /// Normal ESMTP with STARTTLS (if a TLS config is present).
    #[default]
    Normal,
    /// Supports TLS but does not advertise STARTTLS (greylisting-style
    /// hiding; the paper excludes such MXes from TLS analysis).
    HideStartTls,
    /// What an on-path STARTTLS-stripping attacker leaves the client
    /// facing: the capability is gone from EHLO and an explicit STARTTLS
    /// attempt gets 454 (RFC 3207's temporary failure), so only a cached
    /// MTA-STS policy tells the sender anything is wrong.
    StartTlsStripped,
    /// Replies 500 to EHLO, forcing the HELO fallback.
    HeloOnly,
    /// Tempfails everything after the greeting (421).
    TempfailAll,
}

/// Who the server accepts mail for.
#[derive(Debug, Clone, Default)]
pub enum RecipientPolicy {
    /// Accept every recipient.
    #[default]
    AcceptAll,
    /// Reject every recipient with 550 (e.g. a provider that terminated
    /// the customer but still receives the connections).
    RejectAll,
    /// Reject recipients in these domains with 550, accept the rest.
    RejectDomains(Vec<DomainName>),
}

impl RecipientPolicy {
    /// Whether a recipient whose address has domain `domain` (`None`
    /// when it has no parseable one) is accepted.
    fn accepts(&self, domain: Option<&DomainName>) -> bool {
        match self {
            RecipientPolicy::AcceptAll => true,
            RecipientPolicy::RejectAll => false,
            RecipientPolicy::RejectDomains(domains) => {
                domain.is_some_and(|domain| !domains.contains(domain))
            }
        }
    }
}

/// Messages accepted by a server, observable by tests.
#[derive(Clone, Default)]
pub struct MailSink {
    inner: Arc<Mutex<Vec<Envelope>>>,
}

impl MailSink {
    /// Creates an empty sink.
    pub fn new() -> MailSink {
        MailSink::default()
    }

    /// Records a delivered message.
    pub fn push(&self, envelope: Envelope) {
        self.inner.lock().push(envelope);
    }

    /// Snapshot of everything delivered so far.
    pub fn messages(&self) -> Vec<Envelope> {
        self.inner.lock().clone()
    }

    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// MX server configuration.
#[derive(Clone)]
pub struct MxConfig {
    /// The hostname announced in the greeting and EHLO reply.
    pub hostname: DomainName,
    /// STARTTLS support: `None` disables the capability entirely.
    pub tls: Option<ServerConfig>,
    /// Fault injection.
    pub behavior: MxBehavior,
    /// FCrDNS enforcement: when set, EHLO/HELO names not matching this
    /// expected reverse name are tempfailed (450), modelling greylisting of
    /// hosts without forward-confirmed reverse DNS (§4.1).
    pub expected_client_name: Option<DomainName>,
    /// Which recipients are accepted.
    pub recipient_policy: RecipientPolicy,
    /// Where accepted mail goes.
    pub sink: MailSink,
}

impl MxConfig {
    /// A plain, accepting server for `hostname` with optional TLS.
    pub fn new(hostname: DomainName, tls: Option<ServerConfig>) -> MxConfig {
        MxConfig {
            hostname,
            tls,
            behavior: MxBehavior::Normal,
            expected_client_name: None,
            recipient_policy: RecipientPolicy::AcceptAll,
            sink: MailSink::new(),
        }
    }
}

/// What a session loop ended with.
enum SessionExit {
    /// Client quit or the connection ended.
    Done,
    /// Client issued STARTTLS and the server agreed; the caller upgrades.
    UpgradeRequested,
}

/// Writes a single-line reply.
async fn reply<S: AsyncWrite + Unpin>(
    w: &mut S,
    code: ReplyCode,
    text: &str,
) -> std::io::Result<()> {
    w.write_all(format!("{code} {text}\r\n").as_bytes()).await?;
    w.flush().await
}

/// Writes a multi-line reply (EHLO capability list).
async fn reply_multi<S: AsyncWrite + Unpin>(
    w: &mut S,
    code: ReplyCode,
    lines: &[String],
) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let sep = if i + 1 == lines.len() { ' ' } else { '-' };
        out.push_str(&format!("{code}{sep}{line}\r\n"));
    }
    w.write_all(out.as_bytes()).await?;
    w.flush().await
}

/// Reads one CRLF-terminated command line.
async fn read_line<S: AsyncRead + Unpin>(
    reader: &mut BufReader<S>,
) -> std::io::Result<Option<String>> {
    use tokio::io::AsyncBufReadExt;
    let mut line = String::new();
    let n = reader.read_line(&mut line).await?;
    if n == 0 {
        return Ok(None);
    }
    Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()))
}

/// The command loop; runs once in plaintext and (after upgrade) once over
/// TLS. `tls_active` gates STARTTLS availability.
async fn session_loop<S: AsyncRead + AsyncWrite + Unpin>(
    stream: &mut S,
    config: &MxConfig,
    tls_active: bool,
) -> std::io::Result<SessionExit> {
    let mut reader = BufReader::new(stream);
    let mut greeted = false;
    let mut mail_from: Option<String> = None;
    let mut rcpt_to: Vec<String> = Vec::new();
    loop {
        let Some(line) = read_line(&mut reader).await? else {
            return Ok(SessionExit::Done);
        };
        let upper = line.to_ascii_uppercase();
        let stream = reader.get_mut();
        if config.behavior == MxBehavior::TempfailAll && upper != "QUIT" {
            reply(
                stream,
                ReplyCode::UNAVAILABLE,
                "service temporarily unavailable",
            )
            .await?;
            continue;
        }
        if let Some(name) = upper.strip_prefix("EHLO") {
            if config.behavior == MxBehavior::HeloOnly {
                reply(stream, ReplyCode::SYNTAX, "command not recognized").await?;
                continue;
            }
            if !check_client_name(config, name) {
                reply(
                    stream,
                    ReplyCode::TEMPFAIL,
                    "resolve your reverse DNS first",
                )
                .await?;
                continue;
            }
            let mut lines = vec![format!("{} greets you", config.hostname)];
            lines.push(Capability::Pipelining.keyword());
            lines.push(Capability::Size(35_882_577).keyword());
            lines.push(Capability::EightBitMime.keyword());
            let advertise_tls = config.tls.is_some()
                && !tls_active
                && !matches!(
                    config.behavior,
                    MxBehavior::HideStartTls | MxBehavior::StartTlsStripped
                );
            if advertise_tls {
                lines.push(Capability::StartTls.keyword());
            }
            reply_multi(stream, ReplyCode::OK, &lines).await?;
            greeted = true;
        } else if let Some(name) = upper.strip_prefix("HELO") {
            if !check_client_name(config, name) {
                reply(
                    stream,
                    ReplyCode::TEMPFAIL,
                    "resolve your reverse DNS first",
                )
                .await?;
                continue;
            }
            reply(stream, ReplyCode::OK, &config.hostname.to_string()).await?;
            greeted = true;
        } else if upper == "STARTTLS" {
            if tls_active {
                reply(stream, ReplyCode::BAD_SEQUENCE, "TLS already active").await?;
            } else if config.behavior == MxBehavior::StartTlsStripped {
                reply(
                    stream,
                    ReplyCode::TLS_NOT_AVAILABLE,
                    "TLS not available due to temporary reason",
                )
                .await?;
            } else if config.tls.is_none() {
                reply(stream, ReplyCode::NOT_IMPLEMENTED, "TLS unavailable").await?;
            } else {
                reply(stream, ReplyCode::READY, "ready to start TLS").await?;
                return Ok(SessionExit::UpgradeRequested);
            }
        } else if upper.starts_with("MAIL FROM:") {
            if !greeted {
                reply(stream, ReplyCode::BAD_SEQUENCE, "send EHLO first").await?;
                continue;
            }
            mail_from = Some(extract_address(&line));
            rcpt_to.clear();
            reply(stream, ReplyCode::OK, "sender ok").await?;
        } else if upper.starts_with("RCPT TO:") {
            if mail_from.is_none() {
                reply(stream, ReplyCode::BAD_SEQUENCE, "MAIL first").await?;
                continue;
            }
            let rcpt = extract_address(&line);
            let domain = rcpt
                .rsplit_once('@')
                .and_then(|(_, domain)| domain.parse::<DomainName>().ok());
            if config.recipient_policy.accepts(domain.as_ref()) {
                rcpt_to.push(rcpt);
                reply(stream, ReplyCode::OK, "recipient ok").await?;
            } else {
                // The fast path's refusal (`simnet::World::probe_mx`), so a
                // bounce reads the same on either leg.
                let refused = domain.map_or(rcpt, |domain| domain.to_string());
                let text = format!("5.7.1 relaying denied for {refused}");
                reply(stream, ReplyCode::REJECTED, &text).await?;
            }
        } else if upper == "DATA" {
            if mail_from.is_none() || rcpt_to.is_empty() {
                reply(stream, ReplyCode::BAD_SEQUENCE, "need MAIL and RCPT").await?;
                continue;
            }
            reply(stream, ReplyCode::START_INPUT, "end with <CRLF>.<CRLF>").await?;
            let mut body = String::new();
            loop {
                let Some(data_line) = read_line(&mut reader).await? else {
                    return Ok(SessionExit::Done);
                };
                if data_line == "." {
                    break;
                }
                // Dot-unstuffing per RFC 5321 §4.5.2.
                let unstuffed = data_line
                    .strip_prefix('.')
                    .map_or(data_line.as_str(), |s| s);
                body.push_str(unstuffed);
                body.push('\n');
            }
            config.sink.push(Envelope {
                mail_from: mail_from.take().expect("checked above"),
                rcpt_to: std::mem::take(&mut rcpt_to),
                body,
            });
            reply(reader.get_mut(), ReplyCode::OK, "message accepted").await?;
        } else if upper == "RSET" {
            mail_from = None;
            rcpt_to.clear();
            reply(stream, ReplyCode::OK, "reset").await?;
        } else if upper == "NOOP" {
            reply(stream, ReplyCode::OK, "ok").await?;
        } else if upper == "QUIT" {
            reply(stream, ReplyCode::CLOSING, "bye").await?;
            return Ok(SessionExit::Done);
        } else {
            reply(stream, ReplyCode::SYNTAX, "command not recognized").await?;
        }
    }
}

/// FCrDNS-style check of the client's EHLO/HELO parameter.
fn check_client_name(config: &MxConfig, raw: &str) -> bool {
    let Some(expected) = &config.expected_client_name else {
        return true;
    };
    raw.trim()
        .parse::<DomainName>()
        .map(|name| name == *expected)
        .unwrap_or(false)
}

/// Extracts the address from `MAIL FROM:<a@b>` / `RCPT TO:<a@b>`.
fn extract_address(line: &str) -> String {
    let after_colon = line.split_once(':').map_or("", |(_, rest)| rest);
    after_colon
        .trim()
        .trim_start_matches('<')
        .trim_end_matches('>')
        .to_string()
}

/// Serves one SMTP connection to completion (including an optional single
/// STARTTLS upgrade).
pub async fn serve_connection<S: AsyncRead + AsyncWrite + Unpin>(mut io: S, config: &MxConfig) {
    if reply(
        &mut io,
        ReplyCode::READY,
        &format!("{} ESMTP mta-sts-lab", config.hostname),
    )
    .await
    .is_err()
    {
        return;
    }
    if let Ok(SessionExit::UpgradeRequested) = session_loop(&mut io, config, false).await {
        let tls = config.tls.as_ref().expect("upgrade only offered with TLS");
        let Ok(session) = server_handshake(io, tls).await else {
            return;
        };
        let mut tls_stream = session.stream;
        // Fresh state post-upgrade per RFC 3207 §4.2.
        let _ = session_loop(&mut tls_stream, config, true).await;
    }
}

/// An MX server on a real TCP listener.
pub struct MxServer {
    addr: SocketAddr,
    shutdown: watch::Sender<bool>,
    handle: tokio::task::JoinHandle<()>,
}

impl MxServer {
    /// Binds and serves `config` until shutdown. The config is shared via
    /// `Arc<Mutex<..>>` so tests can rotate certificates or flip behaviour
    /// between connections.
    pub async fn spawn(
        bind: SocketAddr,
        config: Arc<Mutex<MxConfig>>,
    ) -> std::io::Result<MxServer> {
        let listener = TcpListener::bind(bind).await?;
        let addr = listener.local_addr()?;
        let (shutdown, mut shutdown_rx) = watch::channel(false);
        let handle = tokio::spawn(async move {
            loop {
                tokio::select! {
                    _ = shutdown_rx.changed() => break,
                    accepted = listener.accept() => {
                        let Ok((socket, _)) = accepted else { break };
                        let config = config.lock().clone();
                        tokio::spawn(async move {
                            serve_connection(socket, &config).await;
                        });
                    }
                }
            }
        });
        Ok(MxServer {
            addr,
            shutdown,
            handle,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections.
    pub async fn shutdown(self) {
        let _ = self.shutdown.send(true);
        let _ = self.handle.await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::io::{AsyncBufReadExt, AsyncWriteExt};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    /// Drives a scripted plaintext session and returns all server lines.
    async fn run_script(config: MxConfig, script: &[&str]) -> Vec<String> {
        let (client, server) = tokio::io::duplex(8192);
        let server_task = tokio::spawn(async move {
            serve_connection(server, &config).await;
        });
        let mut lines = Vec::new();
        let (read_half, mut write_half) = tokio::io::split(client);
        let mut reader = BufReader::new(read_half);
        // Greeting.
        let mut greeting = String::new();
        reader.read_line(&mut greeting).await.unwrap();
        lines.push(greeting.trim_end().to_string());
        for cmd in script {
            write_half
                .write_all(format!("{cmd}\r\n").as_bytes())
                .await
                .unwrap();
            // Read one reply (possibly multi-line).
            loop {
                let mut reply_line = String::new();
                if reader.read_line(&mut reply_line).await.unwrap() == 0 {
                    break;
                }
                let trimmed = reply_line.trim_end().to_string();
                let done = trimmed.len() < 4 || trimmed.as_bytes()[3] == b' ';
                lines.push(trimmed);
                if done {
                    break;
                }
            }
        }
        drop(write_half);
        drop(reader);
        server_task.abort();
        lines
    }

    #[tokio::test]
    async fn greeting_ehlo_and_quit() {
        let config = MxConfig::new(n("mx.example.com"), None);
        let lines = run_script(config, &["EHLO scanner.example", "QUIT"]).await;
        assert!(lines[0].starts_with("220 mx.example.com"));
        assert!(lines.iter().any(|l| l.contains("PIPELINING")));
        // No TLS config: STARTTLS must not be advertised.
        assert!(!lines.iter().any(|l| l.contains("STARTTLS")));
        assert!(lines.last().unwrap().starts_with("221"));
    }

    #[tokio::test]
    async fn helo_fallback_when_ehlo_unsupported() {
        let mut config = MxConfig::new(n("mx.example.com"), None);
        config.behavior = MxBehavior::HeloOnly;
        let lines = run_script(config, &["EHLO scanner.example", "HELO scanner.example"]).await;
        assert!(lines[1].starts_with("500"));
        assert!(lines[2].starts_with("250"));
    }

    #[tokio::test]
    async fn starttls_advertised_and_hidden() {
        let tls = ServerConfig::default();
        let mut config = MxConfig::new(n("mx.example.com"), Some(tls.clone()));
        let lines = run_script(config.clone(), &["EHLO x.test"]).await;
        assert!(lines.iter().any(|l| l.contains("STARTTLS")));
        config.behavior = MxBehavior::HideStartTls;
        let lines = run_script(config, &["EHLO x.test"]).await;
        assert!(!lines.iter().any(|l| l.contains("STARTTLS")));
    }

    #[tokio::test]
    async fn stripped_starttls_disappears_and_tempfails() {
        // The stripped server is TLS-capable, but a victim of on-path
        // stripping sees no STARTTLS capability and gets 454 (not the
        // 502 of a genuinely TLS-less host) when it insists anyway.
        let mut config = MxConfig::new(n("mx.example.com"), Some(ServerConfig::default()));
        config.behavior = MxBehavior::StartTlsStripped;
        let lines = run_script(config, &["EHLO x.test", "STARTTLS", "QUIT"]).await;
        assert!(!lines.iter().any(|l| l.contains("STARTTLS")));
        assert!(lines.iter().any(|l| l.starts_with("454")));
        assert!(lines.last().unwrap().starts_with("221"));
    }

    #[tokio::test]
    async fn starttls_rejected_without_tls_config() {
        let config = MxConfig::new(n("mx.example.com"), None);
        let lines = run_script(config, &["EHLO x.test", "STARTTLS"]).await;
        assert!(lines.last().unwrap().starts_with("502"));
    }

    #[tokio::test]
    async fn mail_transaction_reaches_sink() {
        let config = MxConfig::new(n("mx.example.com"), None);
        let sink = config.sink.clone();
        let lines = run_script(
            config,
            &[
                "EHLO notify.scanner.example",
                "MAIL FROM:<notify@scanner.example>",
                "RCPT TO:<postmaster@example.com>",
                "DATA",
                "Subject: MTA-STS misconfiguration\n\nYour policy host fails TLS.\n.",
                "QUIT",
            ],
        )
        .await;
        assert!(lines.iter().any(|l| l.starts_with("354")));
        assert_eq!(sink.len(), 1);
        let msg = &sink.messages()[0];
        assert_eq!(msg.mail_from, "notify@scanner.example");
        assert_eq!(msg.rcpt_to, vec!["postmaster@example.com".to_string()]);
        assert!(msg.body.contains("policy host fails TLS"));
    }

    #[tokio::test]
    async fn recipient_rejection() {
        let mut config = MxConfig::new(n("mail.tutanota.de"), None);
        config.recipient_policy = RecipientPolicy::RejectDomains(vec![n("cancelled.com")]);
        let sink = config.sink.clone();
        let lines = run_script(
            config,
            &[
                "EHLO x.test",
                "MAIL FROM:<a@b.test>",
                "RCPT TO:<user@cancelled.com>",
                "RCPT TO:<user@active.com>",
            ],
        )
        .await;
        assert!(lines[lines.len() - 2].starts_with("550"));
        assert!(lines[lines.len() - 1].starts_with("250"));
        assert!(sink.is_empty());
    }

    #[tokio::test]
    async fn fcrdns_mismatch_tempfails() {
        let mut config = MxConfig::new(n("mx.example.com"), None);
        config.expected_client_name = Some(n("scanner.example.org"));
        let lines = run_script(
            config,
            &["EHLO wrong.name.test", "EHLO scanner.example.org"],
        )
        .await;
        assert!(lines[1].starts_with("450"));
        assert!(lines[2].starts_with("250"));
    }

    #[tokio::test]
    async fn bad_sequences_rejected() {
        let config = MxConfig::new(n("mx.example.com"), None);
        let lines = run_script(
            config,
            &[
                "MAIL FROM:<a@b.test>", // before EHLO
                "EHLO x.test",
                "RCPT TO:<c@d.test>", // before MAIL
                "DATA",               // before MAIL+RCPT
                "BOGUS",              // unknown
            ],
        )
        .await;
        assert!(lines[1].starts_with("503"));
        assert!(lines[lines.len() - 3].starts_with("503"));
        assert!(lines[lines.len() - 2].starts_with("503"));
        assert!(lines[lines.len() - 1].starts_with("500"));
    }

    #[tokio::test]
    async fn tempfail_all_behavior() {
        let mut config = MxConfig::new(n("mx.example.com"), None);
        config.behavior = MxBehavior::TempfailAll;
        let lines = run_script(config, &["EHLO x.test", "NOOP"]).await;
        assert!(lines[1].starts_with("421"));
        assert!(lines[2].starts_with("421"));
    }

    #[test]
    fn address_extraction() {
        assert_eq!(extract_address("MAIL FROM:<a@b.c>"), "a@b.c");
        assert_eq!(extract_address("RCPT TO: <x@y.z> "), "x@y.z");
        assert_eq!(extract_address("MAIL FROM:plain@addr"), "plain@addr");
    }
}
