//! Panic-freedom under hostile input: byte soup, truncations, bit flips
//! and hand-crafted name-compression abuse against the DNS wire decoder,
//! plus full-unicode totality for the MTA-STS text parsers.
//!
//! The downgrade-attack simulator feeds attacker-controlled bytes into
//! these decoders; none of them may panic, hang, or produce a value that
//! violates the crate invariants (every decoded name must re-parse as a
//! canonical [`DomainName`]).

use dns::types::{Message, Question, Rcode, Record, RecordData, RecordType};
use dns::wire::{decode, encode_with};
use netbase::DomainName;
use proptest::prelude::*;

fn n(s: &str) -> DomainName {
    s.parse().unwrap()
}

/// A small but representative message to mutate and truncate.
fn sample() -> Message {
    let q = Message::query(0x5151, Question::new(n("example.com"), RecordType::Mx));
    let mut r = Message::response_to(&q, Rcode::NoError);
    r.answers.push(Record::new(
        n("example.com"),
        3600,
        RecordData::Mx {
            preference: 10,
            exchange: n("mx1.example.com"),
        },
    ));
    r.answers.push(Record::new(
        n("_mta-sts.example.com"),
        300,
        RecordData::Txt(vec!["v=STSv1; id=20240601;".into()]),
    ));
    r.additionals.push(Record::new(
        n("mx1.example.com"),
        3600,
        RecordData::A([192, 0, 2, 1].into()),
    ));
    r
}

/// Asserts every name a decoded message carries is canonical.
fn assert_canonical(msg: &Message) {
    let check = |name: &DomainName| {
        assert!(
            DomainName::parse(&name.to_string()).is_ok(),
            "decoder produced a non-canonical name: {name}"
        );
    };
    for q in &msg.questions {
        check(&q.name);
    }
    for rec in msg
        .answers
        .iter()
        .chain(&msg.authorities)
        .chain(&msg.additionals)
    {
        check(&rec.name);
        match &rec.data {
            RecordData::Ns(x) | RecordData::Cname(x) | RecordData::Ptr(x) => check(x),
            RecordData::Mx { exchange, .. } => check(exchange),
            RecordData::Soa(soa) => {
                check(&soa.mname);
                check(&soa.rname);
            }
            _ => {}
        }
    }
}

/// A minimal header with the given section counts.
fn header(qd: u16, an: u16, ns: u16, ar: u16) -> Vec<u8> {
    let mut out = vec![0x12, 0x34, 0x80, 0x00];
    for count in [qd, an, ns, ar] {
        out.extend_from_slice(&count.to_be_bytes());
    }
    out
}

#[test]
fn self_and_forward_pointers_are_rejected() {
    // Question name that points at itself.
    let mut bytes = header(1, 0, 0, 0);
    bytes.extend_from_slice(&[0xC0, 12]); // pointer -> offset 12 (itself)
    bytes.extend_from_slice(&[0x00, 0x0F, 0x00, 0x01]); // MX, IN
    assert!(decode(&bytes).is_err());

    // Question name that points forward past itself.
    let mut bytes = header(1, 0, 0, 0);
    bytes.extend_from_slice(&[0xC0, 40]);
    bytes.extend_from_slice(&[0x00, 0x0F, 0x00, 0x01]);
    bytes.resize(64, 0);
    assert!(decode(&bytes).is_err());
}

#[test]
fn pointer_chains_are_depth_limited() {
    // A descending pointer chain hidden inside an opaque record's RDATA,
    // then a second-section name that enters it at the top: every hop is
    // a legal backward pointer, so only the depth limit stops the walk.
    let mut bytes = header(0, 1, 1, 0);
    // answer: "a" TYPE999 IN, ttl 0, rdlen = chain bytes.
    bytes.extend_from_slice(&[1, b'a', 0]); // name "a"
    bytes.extend_from_slice(&999u16.to_be_bytes());
    bytes.extend_from_slice(&[0x00, 0x01]); // IN
    bytes.extend_from_slice(&[0, 0, 0, 0]); // ttl
    let rdata_start = bytes.len() + 2; // after the rdlength field itself
    let hops = 40usize;
    let mut rdata = Vec::new();
    // Entry i at rdata_start + 2i points at the entry below it; the
    // bottom entry is a root byte (padded to keep entries 2 bytes apart).
    rdata.extend_from_slice(&[0x00, 0x00]);
    for i in 1..=hops {
        let target = (rdata_start + 2 * (i - 1)) as u16;
        rdata.push(0xC0 | (target >> 8) as u8);
        rdata.push((target & 0xFF) as u8);
    }
    bytes.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    let chain_top = (rdata_start + 2 * hops) as u16;
    bytes.extend_from_slice(&rdata);
    // authority record whose name enters the chain at the top.
    bytes.push(0xC0 | (chain_top >> 8) as u8);
    bytes.push((chain_top & 0xFF) as u8);
    bytes.extend_from_slice(&999u16.to_be_bytes());
    bytes.extend_from_slice(&[0x00, 0x01]);
    bytes.extend_from_slice(&[0, 0, 0, 0]);
    bytes.extend_from_slice(&[0, 0]); // rdlen 0

    // Must terminate with an error (depth limit), not hang or panic.
    assert!(decode(&bytes).is_err());
}

#[test]
fn oversized_labels_and_names_are_rejected() {
    // Label length 64 (the maximum is 63).
    let mut bytes = header(1, 0, 0, 0);
    bytes.push(64);
    bytes.extend_from_slice(&[b'a'; 64]);
    bytes.push(0);
    bytes.extend_from_slice(&[0x00, 0x0F, 0x00, 0x01]);
    assert!(decode(&bytes).is_err());

    // Four 63-byte labels: 256 wire octets, over the 254-octet cap.
    let mut bytes = header(1, 0, 0, 0);
    for _ in 0..4 {
        bytes.push(63);
        bytes.extend_from_slice(&[b'a'; 63]);
    }
    bytes.push(0);
    bytes.extend_from_slice(&[0x00, 0x0F, 0x00, 0x01]);
    assert!(decode(&bytes).is_err());
}

#[test]
fn non_canonical_labels_are_rejected() {
    // Labels DomainName::parse would refuse must not come off the wire:
    // embedded '*', non-leading wildcard, hyphen edges, and an embedded
    // '.' (a name is stored as its labels joined by '.', so a dotted
    // label would alias a deeper name).
    for label in [&b"a*b"[..], b"*", b"-ab", b"ab-", b"a.b"] {
        let mut bytes = header(1, 0, 0, 0);
        // "ok.<label>.com" puts the hostile label in a non-leading slot,
        // which even a lone "*" is not allowed to occupy.
        bytes.push(2);
        bytes.extend_from_slice(b"ok");
        bytes.push(label.len() as u8);
        bytes.extend_from_slice(label);
        bytes.push(3);
        bytes.extend_from_slice(b"com");
        bytes.push(0);
        bytes.extend_from_slice(&[0x00, 0x0F, 0x00, 0x01]);
        assert!(decode(&bytes).is_err(), "label {label:?} must be rejected");
    }
    // A leading lone "*" is legal (wildcard owner names exist in zones).
    let mut bytes = header(1, 0, 0, 0);
    bytes.push(1);
    bytes.push(b'*');
    bytes.push(3);
    bytes.extend_from_slice(b"com");
    bytes.push(0);
    bytes.extend_from_slice(&[0x00, 0x0F, 0x00, 0x01]);
    let msg = decode(&bytes).expect("leading wildcard label is canonical");
    assert_canonical(&msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: the decoder never panics, and anything it
    /// does accept carries only canonical names.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(msg) = decode(&bytes) {
            assert_canonical(&msg);
        }
    }

    /// Every strict prefix of a valid message fails cleanly.
    #[test]
    fn truncations_fail_cleanly(cut in 0usize..1000, compress in any::<bool>()) {
        let encoded = encode_with(&sample(), compress);
        let cut = cut % encoded.len();
        prop_assert!(decode(&encoded[..cut]).is_err());
    }

    /// Single-byte corruption of a valid message never panics, and any
    /// still-decodable result keeps the name invariant.
    #[test]
    fn bit_flips_never_panic(
        pos in 0usize..1000,
        value in any::<u8>(),
        compress in any::<bool>(),
    ) {
        let mut encoded = encode_with(&sample(), compress);
        let pos = pos % encoded.len();
        encoded[pos] = value;
        if let Ok(msg) = decode(&encoded) {
            assert_canonical(&msg);
        }
    }

    /// The MTA-STS text parsers are total over arbitrary unicode, not
    /// just printable ASCII (multi-byte boundaries, NULs, RTL marks...).
    #[test]
    fn text_parsers_total_over_unicode(input in any::<String>()) {
        let _ = mtasts::parse_record(&input);
        let _ = mtasts::policy::parse_policy(&input);
        let _ = mtasts::parse_tlsrpt(&input);
        let _ = DomainName::parse(&input);
    }

    /// Record-set evaluation is total over arbitrary TXT sets.
    #[test]
    fn record_set_evaluation_total(
        set in prop::collection::vec(any::<String>(), 0..4),
    ) {
        let _ = mtasts::evaluate_record_set(&set);
    }
}

// ---- SMTP reply parsing under hostile peers --------------------------
//
// The outbound delivery pipeline points `smtp::read_reply` at arbitrary
// remote MTAs; a hostile peer must not be able to pin the client in an
// unbounded read (an endless reply line, a `250-`-forever multiline) or
// panic it with non-ASCII garbage. Every bound violation surfaces as a
// *typed* `SmtpError`.

use smtp::{read_reply, SmtpError, MAX_REPLY_LINES, MAX_REPLY_LINE_LEN};
use std::pin::Pin;
use std::task::{Context, Poll};
use tokio::io::{AsyncRead, BufReader, ReadBuf};

/// A peer producing a fixed byte stream, then EOF.
struct Feed {
    data: Vec<u8>,
    pos: usize,
}

impl Feed {
    fn new(data: impl Into<Vec<u8>>) -> Feed {
        Feed {
            data: data.into(),
            pos: 0,
        }
    }
}

impl AsyncRead for Feed {
    fn poll_read(
        self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let this = self.get_mut();
        let n = buf.remaining().min(this.data.len() - this.pos);
        buf.put_slice(&this.data[this.pos..this.pos + n]);
        this.pos += n;
        Poll::Ready(Ok(()))
    }
}

/// A peer that streams one line forever — no newline, no EOF.
struct EndlessLine;

impl AsyncRead for EndlessLine {
    fn poll_read(
        self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let n = buf.remaining();
        buf.put_slice(&vec![b'A'; n]);
        Poll::Ready(Ok(()))
    }
}

/// A peer that answers `250-more` forever.
struct EndlessMultiline {
    line: Vec<u8>,
    pos: usize,
}

impl EndlessMultiline {
    fn new() -> EndlessMultiline {
        EndlessMultiline {
            line: b"250-and another thing\r\n".to_vec(),
            pos: 0,
        }
    }
}

impl AsyncRead for EndlessMultiline {
    fn poll_read(
        self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let this = self.get_mut();
        while buf.remaining() > 0 {
            let n = buf.remaining().min(this.line.len() - this.pos);
            buf.put_slice(&this.line[this.pos..this.pos + n]);
            this.pos = (this.pos + n) % this.line.len();
        }
        Poll::Ready(Ok(()))
    }
}

fn read_from<R: AsyncRead + Unpin>(peer: R) -> Result<(smtp::ReplyCode, Vec<String>), SmtpError> {
    tokio::runtime::block_on(async move {
        let mut reader = BufReader::new(peer);
        read_reply(&mut reader).await
    })
}

#[test]
fn endless_reply_line_is_cut_at_the_cap() {
    match read_from(EndlessLine) {
        Err(SmtpError::ReplyLineTooLong { limit }) => assert_eq!(limit, MAX_REPLY_LINE_LEN),
        other => panic!("endless line must hit the length cap, got {other:?}"),
    }
}

#[test]
fn endless_multiline_reply_is_cut_at_the_line_cap() {
    match read_from(EndlessMultiline::new()) {
        Err(SmtpError::TooManyReplyLines { limit }) => assert_eq!(limit, MAX_REPLY_LINES),
        other => panic!("250- forever must hit the line cap, got {other:?}"),
    }
}

#[test]
fn reply_line_at_exactly_the_cap_still_parses() {
    // RFC 5321's 512-octet limit includes the CRLF.
    let mut line = b"250 ".to_vec();
    line.resize(MAX_REPLY_LINE_LEN - 2, b'x');
    line.extend_from_slice(b"\r\n");
    let (code, lines) = read_from(Feed::new(line)).expect("cap-length line is legal");
    assert_eq!(code, smtp::ReplyCode::OK);
    assert_eq!(lines.len(), 1);
}

#[test]
fn truncated_reply_surfaces_eof_not_hang() {
    for bytes in [&b"250"[..], b"250-only half a multi\r\n", b"2"] {
        match read_from(Feed::new(bytes)) {
            Err(SmtpError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("{bytes:?}: truncation must be UnexpectedEof, got {other:?}"),
        }
    }
}

#[test]
fn multibyte_reply_code_is_malformed_not_a_panic() {
    // 'ä' is two octets; byte 3 falls inside it. The old `line[..3]`
    // slice panicked on the char boundary.
    for hostile in ["ä50 hello\r\n", "2ä0 hi\r\n", "αβγ nope\r\n"] {
        match read_from(Feed::new(hostile.as_bytes())) {
            Err(SmtpError::Malformed(_)) => {}
            other => panic!("{hostile:?} must be Malformed, got {other:?}"),
        }
    }
}

proptest! {
    /// `read_reply` is total over arbitrary byte soup: some typed error
    /// or a well-formed reply, never a panic or hang.
    #[test]
    fn smtp_reply_reader_total_over_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok((_code, lines)) = read_from(Feed::new(bytes)) {
            prop_assert!(lines.len() <= MAX_REPLY_LINES);
            for line in &lines {
                prop_assert!(line.len() <= MAX_REPLY_LINE_LEN + 4);
            }
        }
    }
}
