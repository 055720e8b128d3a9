//! The SMTP client side: the instrumented session with an MX.
//!
//! [`probe_mx`] is the paper's measurement client (§4.1): it connects from a
//! host with forward-confirmed reverse DNS, EHLOs (falling back to HELO),
//! checks the STARTTLS capability, upgrades, captures the presented
//! certificate chain, and quits without sending mail. A sender's session
//! names its recipient first, so the same client carries the wire leg of
//! the delivery queue; the chain is judged offline by the caller.

use crate::types::{Capability, ReplyCode, SmtpError};
use netbase::DomainName;
use pkix::SimCert;
use tlssim::{client_handshake, ClientConfig};
use tokio::io::{AsyncRead, AsyncWrite, AsyncWriteExt, BufReader};

/// Probe configuration (§4.1's instrumented client).
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// EHLO/HELO parameter — the scanner's FCrDNS-confirmed name.
    pub helo_name: DomainName,
    /// The MX hostname, used as TLS SNI.
    pub mx_hostname: DomainName,
    /// Handshake nonce (deterministic in simulations).
    pub nonce: u64,
    /// DH secret.
    pub dh_secret: u64,
}

/// What the probe observed.
#[derive(Debug)]
pub struct ProbeResult {
    /// The server's greeting line.
    pub greeting: String,
    /// Whether EHLO failed and HELO was used instead.
    pub used_helo_fallback: bool,
    /// Capabilities advertised in the EHLO reply (empty after HELO).
    pub capabilities: Vec<Capability>,
    /// Whether STARTTLS was advertised.
    pub starttls_offered: bool,
    /// The non-positive reply (code and first line) that ended a session
    /// naming a recipient before any upgrade.
    pub reply: Option<(ReplyCode, String)>,
    /// When STARTTLS was offered: the result of the upgrade — the presented
    /// chain on success (validated offline by the caller), or the error.
    pub tls: Option<Result<Vec<SimCert>, String>>,
}

impl ProbeResult {
    /// Convenience: the chain if TLS succeeded.
    pub fn peer_chain(&self) -> Option<&[SimCert]> {
        match &self.tls {
            Some(Ok(chain)) => Some(chain),
            _ => None,
        }
    }
}

/// Longest reply line the client accepts, in octets before the
/// terminator (RFC 5321 §4.5.3.1.5 specifies 512 including CRLF; hostile
/// peers get no slack beyond that).
pub const MAX_REPLY_LINE_LEN: usize = 512;

/// Most continuation lines one reply may carry. Real EHLO responses top
/// out at a couple dozen capability lines; a `250-`-forever peer is an
/// attack on the client's memory and patience, not a mail server.
pub const MAX_REPLY_LINES: usize = 64;

/// Reads one line without the unbounded buffering of `read_line`: bytes
/// accumulate through the `BufReader` until `\n`, and the read aborts
/// with [`SmtpError::ReplyLineTooLong`] the moment the cap is crossed —
/// a peer streaming an endless line cannot grow the buffer past it.
async fn read_bounded_line<S: AsyncRead + Unpin>(
    reader: &mut BufReader<S>,
) -> Result<String, SmtpError> {
    use std::pin::Pin;
    use tokio::io::AsyncBufRead;
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (consumed, finished) = {
            let available = std::future::poll_fn(|cx| {
                Pin::new(&mut *reader)
                    .poll_fill_buf(cx)
                    .map(|r| r.map(Vec::from))
            })
            .await?;
            if available.is_empty() {
                return Err(SmtpError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                )));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(&available[..i]);
                    (i + 1, true)
                }
                None => {
                    line.extend_from_slice(&available);
                    (available.len(), false)
                }
            }
        };
        Pin::new(&mut *reader).consume(consumed);
        if line.len() > MAX_REPLY_LINE_LEN {
            return Err(SmtpError::ReplyLineTooLong {
                limit: MAX_REPLY_LINE_LEN,
            });
        }
        if finished {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|e| SmtpError::Malformed(format!("non-UTF-8 reply: {e}")));
        }
    }
}

/// Reads one (possibly multi-line) SMTP reply.
///
/// Hostility bounds: each line is capped at [`MAX_REPLY_LINE_LEN`] octets
/// and a multiline reply at [`MAX_REPLY_LINES`] lines; crossing either
/// cap yields a typed [`SmtpError`] instead of an unbounded read. Public
/// so the hostile-bytes test suite can drive it directly.
pub async fn read_reply<S: AsyncRead + Unpin>(
    reader: &mut BufReader<S>,
) -> Result<(ReplyCode, Vec<String>), SmtpError> {
    let mut lines = Vec::new();
    loop {
        let line = read_bounded_line(reader).await?;
        if line.len() < 3 {
            return Err(SmtpError::Malformed(line));
        }
        // `get` (not a direct slice): a multibyte char straddling byte 3
        // must surface as Malformed, not a char-boundary panic.
        let code: u16 = line
            .get(..3)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SmtpError::Malformed(line.clone()))?;
        let more = line.as_bytes().get(3) == Some(&b'-');
        let text = line.get(4..).unwrap_or("").to_string();
        lines.push(text);
        if !more {
            return Ok((ReplyCode(code), lines));
        }
        if lines.len() >= MAX_REPLY_LINES {
            return Err(SmtpError::TooManyReplyLines {
                limit: MAX_REPLY_LINES,
            });
        }
    }
}

/// Sends one command and reads the reply.
async fn command<S: AsyncRead + AsyncWrite + Unpin>(
    reader: &mut BufReader<S>,
    line: &str,
) -> Result<(ReplyCode, Vec<String>), SmtpError> {
    reader
        .get_mut()
        .write_all(format!("{line}\r\n").as_bytes())
        .await?;
    reader.get_mut().flush().await?;
    read_reply(reader).await
}

/// Expects a specific reply class, otherwise returns `UnexpectedReply`.
fn expect_positive(
    phase: &'static str,
    reply: (ReplyCode, Vec<String>),
) -> Result<(ReplyCode, Vec<String>), SmtpError> {
    if reply.0.is_positive() {
        Ok(reply)
    } else {
        Err(SmtpError::UnexpectedReply {
            phase,
            code: reply.0,
            text: reply.1.first().cloned().unwrap_or_default(),
        })
    }
}

/// Runs the instrumented probe over an established transport stream.
///
/// With `rcpt_to`, the session first names that recipient, as a sender
/// would (`MAIL FROM:<>`, `RCPT TO`, then `RSET`), in the order the fast
/// path's `simnet::World::probe_mx` draws: recipient before STARTTLS. A
/// non-positive reply ends the session in [`ProbeResult::reply`]. With
/// `None` the session names nobody.
pub async fn probe_mx<S: AsyncRead + AsyncWrite + Unpin>(
    io: S,
    config: &ProbeConfig,
    rcpt_to: Option<&str>,
) -> Result<ProbeResult, SmtpError> {
    let mut reader = BufReader::new(io);
    let (_, greeting_lines) = expect_positive("greeting", read_reply(&mut reader).await?)?;
    let greeting = greeting_lines.into_iter().next().unwrap_or_default();

    // EHLO, falling back to HELO on 500-class refusals (§4.1 footnote 3).
    let mut used_helo_fallback = false;
    let mut capabilities = Vec::new();
    let ehlo = command(&mut reader, &format!("EHLO {}", config.helo_name)).await?;
    if ehlo.0.is_positive() {
        capabilities = ehlo
            .1
            .iter()
            .skip(1)
            .map(|l| Capability::parse(l))
            .collect();
    } else {
        used_helo_fallback = true;
        expect_positive(
            "HELO",
            command(&mut reader, &format!("HELO {}", config.helo_name)).await?,
        )?;
    }
    let starttls_offered = capabilities.contains(&Capability::StartTls);
    let mut result = ProbeResult {
        greeting,
        used_helo_fallback,
        capabilities,
        starttls_offered,
        reply: None,
        tls: None,
    };

    if let Some(rcpt) = rcpt_to {
        for line in [
            "MAIL FROM:<>".to_string(),
            format!("RCPT TO:<{rcpt}>"),
            "RSET".to_string(),
        ] {
            let (code, text) = command(&mut reader, &line).await?;
            if !code.is_positive() {
                let _ = command(&mut reader, "QUIT").await;
                result.reply = Some((code, text.into_iter().next().unwrap_or_default()));
                return Ok(result);
            }
        }
    }

    // STARTTLS + certificate retrieval (opportunistic: we validate offline).
    if !starttls_offered {
        let _ = command(&mut reader, "QUIT").await;
        return Ok(result);
    }
    let go_ahead = command(&mut reader, "STARTTLS").await?;
    if go_ahead.0 != ReplyCode::READY {
        let _ = command(&mut reader, "QUIT").await;
        result.tls = Some(Err(format!("STARTTLS refused with {}", go_ahead.0)));
        return Ok(result);
    }
    let tls =
        ClientConfig::opportunistic(config.mx_hostname.clone(), config.nonce, config.dh_secret);
    result.tls = Some(match client_handshake(reader.into_inner(), tls).await {
        Ok(session) => {
            // End the session politely over TLS, ignoring failures — the
            // evidence is already in hand.
            let chain = session.peer_chain;
            let mut tls_reader = BufReader::new(session.stream);
            let _ = command(&mut tls_reader, "QUIT").await;
            Ok(chain)
        }
        Err(e) => Err(e.to_string()),
    });
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve_connection, MxBehavior, MxConfig, RecipientPolicy};
    use netbase::{SimDate, SimInstant};
    use pkix::{validate_chain, CertAuthority, CertError, TrustStore};
    use tlssim::{ServerConfig, ServerIdentity};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn now() -> SimInstant {
        SimDate::ymd(2024, 9, 29).at_midnight()
    }

    struct Pki {
        root: CertAuthority,
        store: TrustStore,
    }

    fn pki() -> Pki {
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let root = CertAuthority::new_root("Root", nb, na);
        let mut store = TrustStore::empty();
        store.add_root(&root);
        Pki { root, store }
    }

    fn mx_with_cert(pki: &mut Pki, host: &str) -> MxConfig {
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let dn = n(host);
        let mut identity = ServerIdentity::empty();
        identity.install(
            dn.clone(),
            vec![pki.root.issue_leaf(std::slice::from_ref(&dn), nb, na)],
        );
        MxConfig::new(
            dn,
            Some(ServerConfig {
                identity,
                behavior: Default::default(),
                nonce: 77,
                dh_secret: 777,
            }),
        )
    }

    fn probe_config(mx: &str) -> ProbeConfig {
        ProbeConfig {
            helo_name: n("scanner.example.org"),
            mx_hostname: n(mx),
            nonce: 5,
            dh_secret: 55,
        }
    }

    #[tokio::test]
    async fn probe_retrieves_certificate() {
        let mut pki = pki();
        let config = mx_with_cert(&mut pki, "mx.example.com");
        let (client_io, server_io) = tokio::io::duplex(8192);
        tokio::spawn(async move { serve_connection(server_io, &config).await });
        let result = probe_mx(client_io, &probe_config("mx.example.com"), None)
            .await
            .unwrap();
        assert!(result.greeting.contains("mx.example.com"));
        assert!(!result.used_helo_fallback);
        assert!(result.starttls_offered);
        let chain = result.peer_chain().expect("chain retrieved");
        assert!(validate_chain(chain, &n("mx.example.com"), now(), &pki.store).is_ok());
    }

    #[tokio::test]
    async fn probe_detects_missing_starttls() {
        let config = MxConfig::new(n("mx.plain.com"), None);
        let (client_io, server_io) = tokio::io::duplex(8192);
        tokio::spawn(async move { serve_connection(server_io, &config).await });
        let result = probe_mx(client_io, &probe_config("mx.plain.com"), None)
            .await
            .unwrap();
        assert!(!result.starttls_offered);
        assert!(result.tls.is_none());
    }

    #[tokio::test]
    async fn probe_helo_fallback() {
        let mut config = MxConfig::new(n("mx.old.com"), None);
        config.behavior = MxBehavior::HeloOnly;
        let (client_io, server_io) = tokio::io::duplex(8192);
        tokio::spawn(async move { serve_connection(server_io, &config).await });
        let result = probe_mx(client_io, &probe_config("mx.old.com"), None)
            .await
            .unwrap();
        assert!(result.used_helo_fallback);
        assert!(result.capabilities.is_empty());
    }

    #[tokio::test]
    async fn probe_sees_invalid_certificates_too() {
        // Self-signed MX: the probe still retrieves the chain; offline
        // classification reports SelfSigned (§4.3.4's taxonomy).
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let dn = n("mx.selfsigned.com");
        let mut identity = ServerIdentity::empty();
        identity.install(
            dn.clone(),
            vec![pkix::authority::self_signed_leaf(
                std::slice::from_ref(&dn),
                nb,
                na,
            )],
        );
        let config = MxConfig::new(
            dn.clone(),
            Some(ServerConfig {
                identity,
                behavior: Default::default(),
                nonce: 1,
                dh_secret: 2,
            }),
        );
        let (client_io, server_io) = tokio::io::duplex(8192);
        tokio::spawn(async move { serve_connection(server_io, &config).await });
        let result = probe_mx(client_io, &probe_config("mx.selfsigned.com"), None)
            .await
            .unwrap();
        let chain = result.peer_chain().unwrap();
        let verdict = validate_chain(chain, &dn, now(), &pki().store);
        assert_eq!(verdict, Err(CertError::SelfSigned));
    }

    #[tokio::test]
    async fn probe_names_an_accepted_recipient_then_upgrades() {
        let mut pki = pki();
        let config = mx_with_cert(&mut pki, "mx.example.com");
        let sink = config.sink.clone();
        let (client_io, server_io) = tokio::io::duplex(8192);
        tokio::spawn(async move { serve_connection(server_io, &config).await });
        let result = probe_mx(
            client_io,
            &probe_config("mx.example.com"),
            Some("user@example.com"),
        )
        .await
        .unwrap();
        assert_eq!(result.reply, None);
        let chain = result.peer_chain().expect("chain retrieved");
        assert!(validate_chain(chain, &n("mx.example.com"), now(), &pki.store).is_ok());
        assert!(sink.is_empty(), "a probe sends no message");
    }

    #[tokio::test]
    async fn probe_ends_at_a_refused_recipient_before_upgrading() {
        let mut pki = pki();
        let mut config = mx_with_cert(&mut pki, "mail.tutanota.de");
        config.recipient_policy = RecipientPolicy::RejectDomains(vec![n("cancelled.com")]);
        let (client_io, server_io) = tokio::io::duplex(8192);
        tokio::spawn(async move { serve_connection(server_io, &config).await });
        let result = probe_mx(
            client_io,
            &probe_config("mail.tutanota.de"),
            Some("user@Cancelled.com"),
        )
        .await
        .unwrap();
        assert!(result.starttls_offered);
        assert_eq!(
            result.reply,
            Some((
                ReplyCode::REJECTED,
                "5.7.1 relaying denied for cancelled.com".to_string()
            ))
        );
        assert!(result.tls.is_none(), "a refused session never upgrades");
    }
}
