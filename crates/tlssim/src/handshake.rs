//! The toy-TLS handshake.
//!
//! Sequence (mirroring TLS 1.2 with server-only authentication):
//!
//! ```text
//! Client                                   Server
//!   ClientHello {nonce, dh_pub, sni}  ──▶
//!                                     ◀──  ServerHello {nonce, dh_pub, chain}
//!                                          (or Alert: unrecognized_name /
//!                                           handshake_failure)
//!   Finished {}                       ──▶
//!   ... XOR-enciphered application bytes in both directions ...
//! ```
//!
//! The server selects its certificate chain by SNI, which is how the paper's
//! third-party policy hosts serve thousands of customer domains from shared
//! infrastructure (§5), and how "no certificate installed for this name"
//! failures arise (§4.3.3).
//!
//! Certificate checking is the *caller's* decision: [`client_handshake`]
//! always completes the transport handshake and returns the presented
//! chain. Opportunistic senders (the 93.2% in §6.2) proceed regardless;
//! validating senders and the scanner inspect the chain and abort or record
//! errors. Pass [`ClientConfig::strict`] to abort in-handshake instead.

use crate::frame::{read_frame, write_frame, FrameError, FrameType};
use crate::keys::{derive_keys, DhKeyPair};
use crate::stream::TlsStream;
use netbase::{DomainName, SimInstant};
use pkix::{validate_chain, CertError, SimCert, TrustStore};
use std::collections::HashMap;
use std::fmt;
use tokio::io::{AsyncRead, AsyncWrite};

/// TLS-style alert codes used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alert {
    /// Handshake refused (e.g. TLS disabled for this endpoint).
    HandshakeFailure,
    /// Client rejected the server certificate.
    BadCertificate,
    /// No certificate available for the requested SNI.
    UnrecognizedName,
    /// Unknown/other alert code.
    Other(u8),
}

impl Alert {
    /// Wire code (mirrors TLS alert descriptions).
    pub fn code(self) -> u8 {
        match self {
            Alert::HandshakeFailure => 40,
            Alert::BadCertificate => 42,
            Alert::UnrecognizedName => 112,
            Alert::Other(c) => c,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Alert {
        match code {
            40 => Alert::HandshakeFailure,
            42 => Alert::BadCertificate,
            112 => Alert::UnrecognizedName,
            other => Alert::Other(other),
        }
    }
}

/// Handshake failures.
#[derive(Debug)]
pub enum HandshakeError {
    /// Framing or transport failure.
    Frame(FrameError),
    /// The peer sent an alert.
    PeerAlert(Alert),
    /// Strict-mode certificate validation failed (the alert was sent to the
    /// peer before returning).
    Cert(CertError),
    /// The peer violated the handshake sequence.
    Protocol(String),
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::Frame(e) => write!(f, "handshake transport error: {e}"),
            HandshakeError::PeerAlert(a) => write!(f, "peer alert: {a:?}"),
            HandshakeError::Cert(e) => write!(f, "certificate validation failed: {e}"),
            HandshakeError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<FrameError> for HandshakeError {
    fn from(e: FrameError) -> HandshakeError {
        HandshakeError::Frame(e)
    }
}

/// Server certificate inventory: chains selected by SNI.
///
/// Selection for an SNI: the chain installed under that exact name; else
/// the first-installed chain whose leaf carries a wildcard covering it;
/// else the default chain; else none. A leaf without a wildcard answers
/// only for the name it was installed under, so a shared host with
/// thousands of customer chains walks only its wildcard leaves.
#[derive(Debug, Clone, Default)]
pub struct ServerIdentity {
    /// Chains keyed by the exact name they were installed for.
    chains: HashMap<DomainName, Vec<SimCert>>,
    /// The installed names whose leaf carries a wildcard, in install
    /// order: the only chains an SNI without its own can fall back to.
    /// Each is a key of `chains`, whose chain has a leaf.
    wildcards: Vec<DomainName>,
    /// Chain served when no installed name matches (common on shared
    /// hosting: the provider's own certificate — a mismatch the client then
    /// detects).
    default_chain: Option<Vec<SimCert>>,
}

impl ServerIdentity {
    /// An identity with no certificates (every SNI gets
    /// `unrecognized_name`).
    pub fn empty() -> ServerIdentity {
        ServerIdentity::default()
    }

    /// Installs `chain` for `name`, replacing any chain installed for it.
    /// A wildcard leaf also covers the other names it matches, after
    /// every wildcard leaf installed before it.
    pub fn install(&mut self, name: DomainName, chain: Vec<SimCert>) {
        self.wildcards.retain(|w| *w != name);
        let leaf_names = chain.first().map(SimCert::dns_names);
        if leaf_names.is_some_and(|names| names.iter().any(DomainName::is_wildcard)) {
            self.wildcards.push(name.clone());
        }
        self.chains.insert(name, chain);
    }

    /// Removes the chain installed for `name`; returns whether one was.
    pub fn remove(&mut self, name: &DomainName) -> bool {
        self.wildcards.retain(|w| w != name);
        self.chains.remove(name).is_some()
    }

    /// Sets the fallback chain served for unknown SNI.
    pub fn set_default(&mut self, chain: Vec<SimCert>) {
        self.default_chain = Some(chain);
    }

    /// The names chains are installed under, in no particular order.
    pub fn names(&self) -> impl Iterator<Item = &DomainName> {
        self.chains.keys()
    }

    /// Selects the chain presented for `sni` (see [`ServerIdentity`]).
    pub fn select(&self, sni: &DomainName) -> Option<&[SimCert]> {
        if let Some(chain) = self.chains.get(sni) {
            return Some(chain);
        }
        self.wildcards
            .iter()
            .map(|name| &self.chains[name])
            .find(|chain| pkix::validate::cert_covers_host(&chain[0], sni))
            .or(self.default_chain.as_ref())
            .map(Vec::as_slice)
    }
}

/// Server-side fault injection, driving the paper's policy-server error
/// classes (§4.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerBehavior {
    /// Normal operation.
    #[default]
    Normal,
    /// Refuse every handshake with `handshake_failure` (TLS disabled).
    RefuseHandshake,
    /// Drop the connection after reading ClientHello (abrupt close).
    AbruptClose,
}

/// Server handshake configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Certificate inventory.
    pub identity: ServerIdentity,
    /// Fault injection.
    pub behavior: ServerBehavior,
    /// Server nonce; deterministic tests set this, live servers may use any
    /// value.
    pub nonce: u64,
    /// DH secret; as with the nonce, fixed for determinism.
    pub dh_secret: u64,
}

/// Client handshake configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server name to request (certificate selection key).
    pub sni: DomainName,
    /// Client nonce.
    pub nonce: u64,
    /// DH secret.
    pub dh_secret: u64,
    /// When set, validate the presented chain against this store at this
    /// time *during* the handshake and abort with an alert on failure.
    pub strict: Option<(TrustStore, SimInstant)>,
}

impl ClientConfig {
    /// An opportunistic (non-validating) client for `sni`.
    pub fn opportunistic(sni: DomainName, nonce: u64, dh_secret: u64) -> ClientConfig {
        ClientConfig {
            sni,
            nonce,
            dh_secret,
            strict: None,
        }
    }
}

/// Outcome of a successful client handshake.
pub struct ClientSession<S> {
    /// The encrypted stream, ready for application data.
    pub stream: TlsStream<S>,
    /// The certificate chain the server presented (leaf first; may be
    /// empty if the server presented none).
    pub peer_chain: Vec<SimCert>,
}

/// Runs the client side of the handshake over `inner`.
pub async fn client_handshake<S: AsyncRead + AsyncWrite + Unpin>(
    mut inner: S,
    config: ClientConfig,
) -> Result<ClientSession<S>, HandshakeError> {
    let dh = DhKeyPair::from_secret(config.dh_secret);
    // ClientHello.
    let mut hello = Vec::new();
    hello.extend_from_slice(&config.nonce.to_be_bytes());
    hello.extend_from_slice(&dh.public.to_be_bytes());
    let sni = config.sni.to_string();
    hello.extend_from_slice(&(sni.len() as u32).to_be_bytes());
    hello.extend_from_slice(sni.as_bytes());
    write_frame(&mut inner, FrameType::ClientHello, &hello).await?;

    // ServerHello or Alert.
    let frame = read_frame(&mut inner).await?;
    match frame.ftype {
        FrameType::Alert => {
            let code = frame.payload.first().copied().unwrap_or(0);
            return Err(HandshakeError::PeerAlert(Alert::from_code(code)));
        }
        FrameType::ServerHello => {}
        other => {
            return Err(HandshakeError::Protocol(format!(
                "expected ServerHello, got {other:?}"
            )))
        }
    }
    let (server_nonce, server_pub, peer_chain) = parse_server_hello(&frame.payload)?;

    // Optional in-handshake validation.
    if let Some((roots, now)) = &config.strict {
        if let Err(e) = validate_chain(&peer_chain, &config.sni, *now, roots) {
            let _ = write_frame(
                &mut inner,
                FrameType::Alert,
                &[Alert::BadCertificate.code()],
            )
            .await;
            return Err(HandshakeError::Cert(e));
        }
    }

    // Finished + key derivation.
    write_frame(&mut inner, FrameType::Finished, &[]).await?;
    let keys = derive_keys(dh.shared_secret(server_pub), config.nonce, server_nonce);
    Ok(ClientSession {
        stream: TlsStream::client(inner, keys),
        peer_chain,
    })
}

/// Outcome of a successful server handshake.
pub struct ServerSession<S> {
    /// The encrypted stream, ready for application data.
    pub stream: TlsStream<S>,
    /// The SNI the client requested.
    pub sni: DomainName,
}

/// Runs the server side of the handshake over `inner`.
pub async fn server_handshake<S: AsyncRead + AsyncWrite + Unpin>(
    mut inner: S,
    config: &ServerConfig,
) -> Result<ServerSession<S>, HandshakeError> {
    let frame = read_frame(&mut inner).await?;
    if frame.ftype != FrameType::ClientHello {
        return Err(HandshakeError::Protocol(format!(
            "expected ClientHello, got {:?}",
            frame.ftype
        )));
    }
    let (client_nonce, client_pub, sni) = parse_client_hello(&frame.payload)?;

    match config.behavior {
        ServerBehavior::Normal => {}
        ServerBehavior::RefuseHandshake => {
            write_frame(
                &mut inner,
                FrameType::Alert,
                &[Alert::HandshakeFailure.code()],
            )
            .await?;
            return Err(HandshakeError::PeerAlert(Alert::HandshakeFailure));
        }
        ServerBehavior::AbruptClose => {
            // Simulate a crash/reset: just stop talking.
            return Err(HandshakeError::Protocol("configured abrupt close".into()));
        }
    }

    let Some(chain) = config.identity.select(&sni) else {
        write_frame(
            &mut inner,
            FrameType::Alert,
            &[Alert::UnrecognizedName.code()],
        )
        .await?;
        return Err(HandshakeError::PeerAlert(Alert::UnrecognizedName));
    };

    let dh = DhKeyPair::from_secret(config.dh_secret);
    let mut hello = Vec::new();
    hello.extend_from_slice(&config.nonce.to_be_bytes());
    hello.extend_from_slice(&dh.public.to_be_bytes());
    hello.extend_from_slice(&(chain.len() as u32).to_be_bytes());
    for cert in chain {
        let bytes = cert.to_bytes();
        hello.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        hello.extend_from_slice(&bytes);
    }
    write_frame(&mut inner, FrameType::ServerHello, &hello).await?;

    // Finished or Alert (strict client rejecting the certificate).
    let fin = read_frame(&mut inner).await?;
    match fin.ftype {
        FrameType::Finished => {}
        FrameType::Alert => {
            let code = fin.payload.first().copied().unwrap_or(0);
            return Err(HandshakeError::PeerAlert(Alert::from_code(code)));
        }
        other => {
            return Err(HandshakeError::Protocol(format!(
                "expected Finished, got {other:?}"
            )))
        }
    }
    let keys = derive_keys(dh.shared_secret(client_pub), client_nonce, config.nonce);
    Ok(ServerSession {
        stream: TlsStream::server(inner, keys),
        sni,
    })
}

fn parse_client_hello(payload: &[u8]) -> Result<(u64, u64, DomainName), HandshakeError> {
    let err = |m: &str| HandshakeError::Protocol(m.to_string());
    if payload.len() < 20 {
        return Err(err("short ClientHello"));
    }
    let nonce = u64::from_be_bytes(payload[0..8].try_into().expect("sized"));
    let dh_pub = u64::from_be_bytes(payload[8..16].try_into().expect("sized"));
    let sni_len = u32::from_be_bytes(payload[16..20].try_into().expect("sized")) as usize;
    if payload.len() != 20 + sni_len {
        return Err(err("bad SNI length"));
    }
    let sni_str = std::str::from_utf8(&payload[20..]).map_err(|_| err("SNI is not UTF-8"))?;
    let sni = DomainName::parse(sni_str).map_err(|_| err("SNI is not a valid name"))?;
    Ok((nonce, dh_pub, sni))
}

fn parse_server_hello(payload: &[u8]) -> Result<(u64, u64, Vec<SimCert>), HandshakeError> {
    let err = |m: &str| HandshakeError::Protocol(m.to_string());
    if payload.len() < 20 {
        return Err(err("short ServerHello"));
    }
    let nonce = u64::from_be_bytes(payload[0..8].try_into().expect("sized"));
    let dh_pub = u64::from_be_bytes(payload[8..16].try_into().expect("sized"));
    let count = u32::from_be_bytes(payload[16..20].try_into().expect("sized")) as usize;
    if count > 16 {
        return Err(err("unreasonable chain length"));
    }
    let mut pos = 20;
    let mut chain = Vec::with_capacity(count);
    for _ in 0..count {
        if payload.len() < pos + 4 {
            return Err(err("truncated chain"));
        }
        let len = u32::from_be_bytes(payload[pos..pos + 4].try_into().expect("sized")) as usize;
        pos += 4;
        if payload.len() < pos + len {
            return Err(err("truncated certificate"));
        }
        let cert = SimCert::from_bytes(&payload[pos..pos + len])
            .map_err(|e| err(&format!("bad certificate: {e}")))?;
        chain.push(cert);
        pos += len;
    }
    if pos != payload.len() {
        return Err(err("trailing bytes in ServerHello"));
    }
    Ok((nonce, dh_pub, chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::SimDate;
    use pkix::CertAuthority;
    use tokio::io::{AsyncReadExt, AsyncWriteExt};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn pki() -> (CertAuthority, TrustStore) {
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let root = CertAuthority::new_root("Sim Root", nb, na);
        let mut store = TrustStore::empty();
        store.add_root(&root);
        (root, store)
    }

    fn now() -> SimInstant {
        SimDate::ymd(2024, 9, 29).at_midnight()
    }

    fn server_config(root: &mut CertAuthority, names: &[&str]) -> ServerConfig {
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let mut identity = ServerIdentity::empty();
        for name in names {
            let dn = n(name);
            let chain = vec![root.issue_leaf(std::slice::from_ref(&dn), nb, na)];
            identity.install(dn, chain);
        }
        ServerConfig {
            identity,
            behavior: ServerBehavior::Normal,
            nonce: 7,
            dh_secret: 1111,
        }
    }

    /// A one-certificate chain whose leaf carries `names`.
    fn chain(root: &mut CertAuthority, names: &[&str]) -> Vec<SimCert> {
        let names: Vec<DomainName> = names.iter().map(|name| n(name)).collect();
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        vec![root.issue_leaf(&names, nb, na)]
    }

    // The selection table: one test per rule of `ServerIdentity::select`.

    #[test]
    fn select_exact_name_beats_a_covering_wildcard() {
        let (mut root, _) = pki();
        let mut identity = ServerIdentity::empty();
        let wild = chain(&mut root, &["*.provider.net"]);
        let exact = chain(&mut root, &["a.provider.net"]);
        identity.install(n("*.provider.net"), wild.clone());
        identity.install(n("a.provider.net"), exact.clone());
        assert_eq!(identity.select(&n("a.provider.net")), Some(&exact[..]));
        assert_eq!(identity.select(&n("b.provider.net")), Some(&wild[..]));
    }

    #[test]
    fn select_first_installed_wildcard_then_the_next_after_removal() {
        let (mut root, _) = pki();
        let mut identity = ServerIdentity::empty();
        // Enough wildcard names that a hash-ordered walk would rarely
        // visit them in install order.
        let chains: Vec<Vec<SimCert>> = (0..8)
            .map(|i| {
                chain(
                    &mut root,
                    &["*.provider.net", &format!("w{i}.provider.net")],
                )
            })
            .collect();
        for (i, c) in chains.iter().enumerate() {
            identity.install(n(&format!("w{i}.provider.net")), c.clone());
        }
        let sni = n("customer.provider.net");
        assert_eq!(identity.select(&sni), Some(&chains[0][..]));
        assert!(identity.remove(&n("w0.provider.net")));
        assert_eq!(identity.select(&sni), Some(&chains[1][..]));
        assert!(!identity.remove(&n("w0.provider.net")));
    }

    #[test]
    fn select_reinstall_without_wildcard_leaves_the_fallback() {
        let (mut root, _) = pki();
        let mut identity = ServerIdentity::empty();
        identity.install(n("w.provider.net"), chain(&mut root, &["*.provider.net"]));
        let sni = n("customer.provider.net");
        assert!(identity.select(&sni).is_some());
        // The new leaf names the SNI too, but carries no wildcard.
        let plain = chain(&mut root, &["w.provider.net", "customer.provider.net"]);
        identity.install(n("w.provider.net"), plain.clone());
        assert_eq!(identity.select(&sni), None);
        assert_eq!(identity.select(&n("w.provider.net")), Some(&plain[..]));
    }

    #[test]
    fn select_plain_leaf_answers_only_for_its_installed_name() {
        let (mut root, _) = pki();
        let mut identity = ServerIdentity::empty();
        // The leaf also names b.com, but it was installed for a.com only.
        let both = chain(&mut root, &["mta-sts.a.com", "mta-sts.b.com"]);
        identity.install(n("mta-sts.a.com"), both.clone());
        assert_eq!(identity.select(&n("mta-sts.a.com")), Some(&both[..]));
        assert_eq!(identity.select(&n("mta-sts.b.com")), None);
    }

    #[test]
    fn select_overbroad_wildcard_covers_nothing() {
        let (mut root, _) = pki();
        let mut identity = ServerIdentity::empty();
        identity.install(n("*.com"), chain(&mut root, &["*.com"]));
        assert_eq!(identity.select(&n("example.com")), None);
    }

    #[test]
    fn select_default_without_a_match_else_none() {
        let (mut root, _) = pki();
        let mut identity = ServerIdentity::empty();
        identity.install(n("mta-sts.a.com"), chain(&mut root, &["mta-sts.a.com"]));
        assert_eq!(identity.select(&n("mta-sts.b.com")), None);
        let default = chain(&mut root, &["shared.hosting.net"]);
        identity.set_default(default.clone());
        assert_eq!(identity.select(&n("mta-sts.b.com")), Some(&default[..]));
    }

    /// Runs a full handshake over a duplex pipe, then echoes one message
    /// through the encrypted stream.
    #[tokio::test]
    async fn full_handshake_and_echo() {
        let (mut root, store) = pki();
        let sc = server_config(&mut root, &["mta-sts.example.com"]);
        let (client_io, server_io) = tokio::io::duplex(4096);

        let server = tokio::spawn(async move {
            let mut session = server_handshake(server_io, &sc).await.unwrap();
            assert_eq!(session.sni, n("mta-sts.example.com"));
            let mut buf = [0u8; 5];
            session.stream.read_exact(&mut buf).await.unwrap();
            assert_eq!(&buf, b"HELLO");
            session.stream.write_all(b"WORLD").await.unwrap();
            session.stream.flush().await.unwrap();
        });

        let config = ClientConfig {
            sni: n("mta-sts.example.com"),
            nonce: 3,
            dh_secret: 2222,
            strict: Some((store, now())),
        };
        let mut session = client_handshake(client_io, config).await.unwrap();
        assert_eq!(session.peer_chain.len(), 1);
        session.stream.write_all(b"HELLO").await.unwrap();
        session.stream.flush().await.unwrap();
        let mut buf = [0u8; 5];
        session.stream.read_exact(&mut buf).await.unwrap();
        assert_eq!(&buf, b"WORLD");
        server.await.unwrap();
    }

    #[tokio::test]
    async fn strict_client_rejects_bad_certificate() {
        let (mut root, _) = pki();
        // Trust store that does NOT contain the issuing root.
        let empty_store = TrustStore::empty();
        let sc = server_config(&mut root, &["mta-sts.example.com"]);
        let (client_io, server_io) = tokio::io::duplex(4096);
        let server = tokio::spawn(async move { server_handshake(server_io, &sc).await });
        let config = ClientConfig {
            sni: n("mta-sts.example.com"),
            nonce: 3,
            dh_secret: 2222,
            strict: Some((empty_store, now())),
        };
        let err = client_handshake(client_io, config)
            .await
            .err()
            .expect("expected handshake failure");
        assert!(matches!(
            err,
            HandshakeError::Cert(CertError::UnknownIssuer)
        ));
        // Server sees the alert.
        let server_err = server
            .await
            .unwrap()
            .err()
            .expect("expected handshake failure");
        assert!(matches!(
            server_err,
            HandshakeError::PeerAlert(Alert::BadCertificate)
        ));
    }

    #[tokio::test]
    async fn opportunistic_client_accepts_anything() {
        let (mut root, _) = pki();
        let sc = server_config(&mut root, &["mta-sts.example.com"]);
        let (client_io, server_io) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            let _ = server_handshake(server_io, &sc).await;
        });
        let config = ClientConfig::opportunistic(n("mta-sts.example.com"), 3, 2222);
        let session = client_handshake(client_io, config).await.unwrap();
        // The caller can still validate the returned chain afterwards.
        assert_eq!(session.peer_chain.len(), 1);
    }

    #[tokio::test]
    async fn unknown_sni_gets_unrecognized_name() {
        let (mut root, _) = pki();
        let sc = server_config(&mut root, &["mta-sts.other.com"]);
        let (client_io, server_io) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            let _ = server_handshake(server_io, &sc).await;
        });
        let config = ClientConfig::opportunistic(n("mta-sts.example.com"), 3, 2222);
        let err = client_handshake(client_io, config)
            .await
            .err()
            .expect("expected handshake failure");
        assert!(matches!(
            err,
            HandshakeError::PeerAlert(Alert::UnrecognizedName)
        ));
    }

    #[tokio::test]
    async fn wildcard_chain_serves_covered_sni() {
        let (mut root, store) = pki();
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let mut identity = ServerIdentity::empty();
        identity.install(
            n("*.provider.net"),
            vec![root.issue_leaf(&[n("*.provider.net")], nb, na)],
        );
        let sc = ServerConfig {
            identity,
            behavior: ServerBehavior::Normal,
            nonce: 1,
            dh_secret: 10,
        };
        let (client_io, server_io) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            let _ = server_handshake(server_io, &sc).await;
        });
        let config = ClientConfig {
            sni: n("mta-sts.provider.net"),
            nonce: 2,
            dh_secret: 20,
            strict: Some((store, now())),
        };
        assert!(client_handshake(client_io, config).await.is_ok());
    }

    #[tokio::test]
    async fn default_chain_mismatch_detected_by_strict_client() {
        let (mut root, store) = pki();
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let mut identity = ServerIdentity::empty();
        // Shared host serving its own certificate for unknown SNI.
        identity.set_default(vec![root.issue_leaf(&[n("shared.hosting.net")], nb, na)]);
        let sc = ServerConfig {
            identity,
            behavior: ServerBehavior::Normal,
            nonce: 1,
            dh_secret: 10,
        };
        let (client_io, server_io) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            let _ = server_handshake(server_io, &sc).await;
        });
        let config = ClientConfig {
            sni: n("mta-sts.example.com"),
            nonce: 2,
            dh_secret: 20,
            strict: Some((store, now())),
        };
        let err = client_handshake(client_io, config)
            .await
            .err()
            .expect("expected handshake failure");
        assert!(matches!(
            err,
            HandshakeError::Cert(CertError::NameMismatch { .. })
        ));
    }

    #[tokio::test]
    async fn refuse_handshake_behavior() {
        let sc = ServerConfig {
            identity: ServerIdentity::empty(),
            behavior: ServerBehavior::RefuseHandshake,
            nonce: 1,
            dh_secret: 10,
        };
        let (client_io, server_io) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            let _ = server_handshake(server_io, &sc).await;
        });
        let config = ClientConfig::opportunistic(n("mta-sts.example.com"), 2, 20);
        let err = client_handshake(client_io, config)
            .await
            .err()
            .expect("expected handshake failure");
        assert!(matches!(
            err,
            HandshakeError::PeerAlert(Alert::HandshakeFailure)
        ));
    }

    #[tokio::test]
    async fn abrupt_close_surfaces_as_transport_error() {
        let sc = ServerConfig {
            identity: ServerIdentity::empty(),
            behavior: ServerBehavior::AbruptClose,
            nonce: 1,
            dh_secret: 10,
        };
        let (client_io, server_io) = tokio::io::duplex(4096);
        tokio::spawn(async move {
            let result = server_handshake(server_io, &sc).await;
            assert!(result.is_err());
            // server_io dropped here => EOF at the client
        });
        let config = ClientConfig::opportunistic(n("mta-sts.example.com"), 2, 20);
        let err = client_handshake(client_io, config)
            .await
            .err()
            .expect("expected handshake failure");
        assert!(matches!(err, HandshakeError::Frame(_)));
    }
}
