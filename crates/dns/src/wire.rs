//! RFC 1035 wire codec.
//!
//! Encodes and decodes [`Message`]s to/from the DNS wire format, including
//! name compression on encode (owner names and names embedded in NS, CNAME,
//! PTR, MX, SOA RDATA — the types RFC 1035 allows compression for) and
//! pointer chasing with loop protection on decode.
//!
//! The codec is exercised over real UDP sockets by [`crate::server`] and the
//! live-wire examples, and benchmarked (encode/decode throughput, with and
//! without compression) by the `wire` bench.

use crate::types::{
    Flags, Message, Question, Rcode, Record, RecordData, RecordType, SoaRecord, TlsaRecord,
    CLASS_IN,
};
use bytes::{BufMut, BytesMut};
use netbase::DomainName;
use std::collections::HashMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Maximum UDP payload the codec will emit without setting TC.
pub const MAX_UDP_PAYLOAD: usize = 4096;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of input while a field was expected.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label exceeded 63 octets or a name exceeded 255 octets.
    BadName,
    /// A label contained bytes we do not accept (the study's namespace is
    /// LDH + underscore).
    BadLabel,
    /// RDATA length did not match its content.
    BadRdata(RecordType),
    /// Unsupported class (only IN is handled).
    BadClass(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadPointer => write!(f, "invalid compression pointer"),
            WireError::BadName => write!(f, "malformed domain name"),
            WireError::BadLabel => write!(f, "label contains unsupported bytes"),
            WireError::BadRdata(t) => write!(f, "malformed RDATA for {t}"),
            WireError::BadClass(c) => write!(f, "unsupported class {c}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encoder state: output buffer plus the compression offset table.
struct Encoder {
    buf: BytesMut,
    /// Maps a name suffix (as its canonical string) to the offset of its
    /// first occurrence, for compression pointers.
    offsets: HashMap<String, u16>,
    /// Whether compression pointers are emitted (ablation knob; always on
    /// in production use).
    compress: bool,
}

impl Encoder {
    fn new(compress: bool) -> Encoder {
        Encoder {
            buf: BytesMut::with_capacity(512),
            offsets: HashMap::new(),
            compress,
        }
    }

    /// Writes `name` in wire format, emitting a compression pointer for the
    /// longest previously-seen suffix.
    fn put_name(&mut self, name: &DomainName) {
        let mut suffix = Some(name.as_str());
        while let Some(rest) = suffix {
            if self.compress {
                if let Some(&off) = self.offsets.get(rest) {
                    self.buf.put_u16(0xC000 | off);
                    return;
                }
                if self.buf.len() <= 0x3FFF {
                    self.offsets.insert(rest.to_string(), self.buf.len() as u16);
                }
            }
            let (label, tail) = match rest.split_once('.') {
                Some((label, tail)) => (label, Some(tail)),
                None => (rest, None),
            };
            debug_assert!(label.len() <= 63);
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label.as_bytes());
            suffix = tail;
        }
        self.buf.put_u8(0); // root
    }

    fn put_question(&mut self, q: &Question) {
        self.put_name(&q.name);
        self.buf.put_u16(q.rtype.code());
        self.buf.put_u16(CLASS_IN);
    }

    fn put_record(&mut self, r: &Record) {
        self.put_name(&r.name);
        self.buf.put_u16(r.rtype().code());
        self.buf.put_u16(CLASS_IN);
        self.buf.put_u32(r.ttl);
        // Reserve RDLENGTH, fill after writing RDATA.
        let len_pos = self.buf.len();
        self.buf.put_u16(0);
        let start = self.buf.len();
        match &r.data {
            RecordData::A(a) => self.buf.put_slice(&a.octets()),
            RecordData::Aaaa(a) => self.buf.put_slice(&a.octets()),
            RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => self.put_name(n),
            RecordData::Mx {
                preference,
                exchange,
            } => {
                self.buf.put_u16(*preference);
                self.put_name(exchange);
            }
            RecordData::Txt(strings) => {
                for s in strings {
                    // Character-strings are at most 255 octets; the zone
                    // layer splits longer text before it reaches the codec.
                    debug_assert!(s.len() <= 255);
                    self.buf.put_u8(s.len() as u8);
                    self.buf.put_slice(s.as_bytes());
                }
            }
            RecordData::Soa(soa) => {
                self.put_name(&soa.mname);
                self.put_name(&soa.rname);
                self.buf.put_u32(soa.serial);
                self.buf.put_u32(soa.refresh);
                self.buf.put_u32(soa.retry);
                self.buf.put_u32(soa.expire);
                self.buf.put_u32(soa.minimum);
            }
            RecordData::Tlsa(t) => {
                self.buf.put_u8(t.usage);
                self.buf.put_u8(t.selector);
                self.buf.put_u8(t.matching_type);
                self.buf.put_slice(&t.data);
            }
            RecordData::Opaque { data, .. } => self.buf.put_slice(data),
        }
        let rdlen = (self.buf.len() - start) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }
}

/// Encodes a message to wire format with name compression.
pub fn encode(msg: &Message) -> Vec<u8> {
    encode_with(msg, true)
}

/// Encodes with compression on or off (the `wire` bench ablates this).
pub fn encode_with(msg: &Message, compress: bool) -> Vec<u8> {
    let mut e = Encoder::new(compress);
    e.buf.put_u16(msg.id);
    let mut hi = 0u8;
    if msg.flags.qr {
        hi |= 0x80;
    }
    // Opcode 0 (QUERY) always.
    if msg.flags.aa {
        hi |= 0x04;
    }
    if msg.flags.tc {
        hi |= 0x02;
    }
    if msg.flags.rd {
        hi |= 0x01;
    }
    let mut lo = msg.rcode.code() & 0x0F;
    if msg.flags.ra {
        lo |= 0x80;
    }
    e.buf.put_u8(hi);
    e.buf.put_u8(lo);
    e.buf.put_u16(msg.questions.len() as u16);
    e.buf.put_u16(msg.answers.len() as u16);
    e.buf.put_u16(msg.authorities.len() as u16);
    e.buf.put_u16(msg.additionals.len() as u16);
    for q in &msg.questions {
        e.put_question(q);
    }
    for r in &msg.answers {
        e.put_record(r);
    }
    for r in &msg.authorities {
        e.put_record(r);
    }
    for r in &msg.additionals {
        e.put_record(r);
    }
    e.buf.to_vec()
}

/// Decoder over the full message bytes (pointers may reference any earlier
/// offset, so decoding needs random access to the whole datagram).
struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn get_u8(&mut self) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let v = self.data[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn get_u16(&mut self) -> Result<u16, WireError> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated);
        }
        let v = u16::from_be_bytes([self.data[self.pos], self.data[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    fn get_u32(&mut self) -> Result<u32, WireError> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_be_bytes(b))
    }

    fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a (possibly compressed) name starting at the current position.
    fn get_name(&mut self) -> Result<DomainName, WireError> {
        // The labels joined by `.` (the presentation form), lowercased at
        // the end.
        let mut name = String::new();
        let mut pos = self.pos;
        let mut jumped = false;
        let mut jumps = 0usize;
        let mut total_len = 0usize;
        loop {
            let len = *self.data.get(pos).ok_or(WireError::Truncated)? as usize;
            if len & 0xC0 == 0xC0 {
                // Compression pointer.
                let b2 = *self.data.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                let target = ((len & 0x3F) << 8) | b2;
                // Pointers must reference earlier data; reject forward
                // pointers and loops.
                if target >= pos {
                    return Err(WireError::BadPointer);
                }
                jumps += 1;
                if jumps > 32 {
                    return Err(WireError::BadPointer);
                }
                if !jumped {
                    self.pos = pos + 2;
                    jumped = true;
                }
                pos = target;
                continue;
            }
            if len & 0xC0 != 0 {
                return Err(WireError::BadName); // 0b01/0b10 prefixes unused
            }
            pos += 1;
            if len == 0 {
                break;
            }
            if len > 63 {
                return Err(WireError::BadName);
            }
            total_len += len + 1;
            // 255 wire octets including the root byte = 254 here, which
            // keeps decoded names within `netbase::MAX_NAME_LEN` in
            // presentation form.
            if total_len > 254 {
                return Err(WireError::BadName);
            }
            let raw = self.data.get(pos..pos + len).ok_or(WireError::Truncated)?;
            let label = std::str::from_utf8(raw).map_err(|_| WireError::BadLabel)?;
            // Enforce the same canonical form `DomainName::parse` does, so
            // hostile wire input can never smuggle in a name the rest of
            // the pipeline (serde round-trips included) would reject. A
            // `.` is no label byte: the joined form stays unambiguous.
            if label.contains('*') {
                if label != "*" || !name.is_empty() {
                    return Err(WireError::BadLabel);
                }
            } else {
                if !label
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
                {
                    return Err(WireError::BadLabel);
                }
                if label.starts_with('-') || label.ends_with('-') {
                    return Err(WireError::BadLabel);
                }
            }
            if !name.is_empty() {
                name.push('.');
            }
            name.push_str(label);
            pos += len;
        }
        if !jumped {
            self.pos = pos;
        }
        if name.is_empty() {
            return Err(WireError::BadName); // the root name never appears in this study
        }
        name.make_ascii_lowercase();
        Ok(DomainName::from_canonical(&name))
    }

    fn get_question(&mut self) -> Result<Question, WireError> {
        let name = self.get_name()?;
        let rtype = RecordType::from_code(self.get_u16()?);
        let class = self.get_u16()?;
        if class != CLASS_IN {
            return Err(WireError::BadClass(class));
        }
        Ok(Question { name, rtype })
    }

    fn get_record(&mut self) -> Result<Record, WireError> {
        let name = self.get_name()?;
        let rtype = RecordType::from_code(self.get_u16()?);
        let class = self.get_u16()?;
        if class != CLASS_IN {
            return Err(WireError::BadClass(class));
        }
        let ttl = self.get_u32()?;
        let rdlen = self.get_u16()? as usize;
        let rdata_end = self.pos + rdlen;
        if rdata_end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let data = match rtype {
            RecordType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdata(rtype));
                }
                let o = self.get_slice(4)?;
                RecordData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdata(rtype));
                }
                let o = self.get_slice(16)?;
                let mut b = [0u8; 16];
                b.copy_from_slice(o);
                RecordData::Aaaa(Ipv6Addr::from(b))
            }
            RecordType::Ns => RecordData::Ns(self.get_name()?),
            RecordType::Cname => RecordData::Cname(self.get_name()?),
            RecordType::Ptr => RecordData::Ptr(self.get_name()?),
            RecordType::Mx => {
                let preference = self.get_u16()?;
                let exchange = self.get_name()?;
                RecordData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                while self.pos < rdata_end {
                    let len = self.get_u8()? as usize;
                    if self.pos + len > rdata_end {
                        return Err(WireError::BadRdata(rtype));
                    }
                    let raw = self.get_slice(len)?;
                    let s = std::str::from_utf8(raw).map_err(|_| WireError::BadRdata(rtype))?;
                    strings.push(s.to_string());
                }
                RecordData::Txt(strings)
            }
            RecordType::Soa => {
                let mname = self.get_name()?;
                let rname = self.get_name()?;
                RecordData::Soa(SoaRecord {
                    mname,
                    rname,
                    serial: self.get_u32()?,
                    refresh: self.get_u32()?,
                    retry: self.get_u32()?,
                    expire: self.get_u32()?,
                    minimum: self.get_u32()?,
                })
            }
            RecordType::Tlsa => {
                if rdlen < 3 {
                    return Err(WireError::BadRdata(rtype));
                }
                let usage = self.get_u8()?;
                let selector = self.get_u8()?;
                let matching_type = self.get_u8()?;
                let data = self.get_slice(rdlen - 3)?.to_vec();
                RecordData::Tlsa(TlsaRecord {
                    usage,
                    selector,
                    matching_type,
                    data,
                })
            }
            RecordType::Other(code) => RecordData::Opaque {
                rtype: code,
                data: self.get_slice(rdlen)?.to_vec(),
            },
        };
        if self.pos != rdata_end {
            return Err(WireError::BadRdata(rtype));
        }
        Ok(Record { name, ttl, data })
    }
}

/// Decodes a message from wire format.
pub fn decode(data: &[u8]) -> Result<Message, WireError> {
    let mut d = Decoder { data, pos: 0 };
    let id = d.get_u16()?;
    let hi = d.get_u8()?;
    let lo = d.get_u8()?;
    let flags = Flags {
        qr: hi & 0x80 != 0,
        aa: hi & 0x04 != 0,
        tc: hi & 0x02 != 0,
        rd: hi & 0x01 != 0,
        ra: lo & 0x80 != 0,
    };
    let rcode = Rcode::from_code(lo & 0x0F);
    let qd = d.get_u16()? as usize;
    let an = d.get_u16()? as usize;
    let ns = d.get_u16()? as usize;
    let ar = d.get_u16()? as usize;
    let mut questions = Vec::with_capacity(qd);
    for _ in 0..qd {
        questions.push(d.get_question()?);
    }
    let mut answers = Vec::with_capacity(an);
    for _ in 0..an {
        answers.push(d.get_record()?);
    }
    let mut authorities = Vec::with_capacity(ns);
    for _ in 0..ns {
        authorities.push(d.get_record()?);
    }
    let mut additionals = Vec::with_capacity(ar);
    for _ in 0..ar {
        additionals.push(d.get_record()?);
    }
    Ok(Message {
        id,
        flags,
        rcode,
        questions,
        answers,
        authorities,
        additionals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let q = Message::query(0x1234, Question::new(n("example.com"), RecordType::Mx));
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
            n("example.com"),
            3600,
            RecordData::Mx {
                preference: 20,
                exchange: n("mx2.example.com"),
            },
        ));
        r.additionals.push(Record::new(
            n("mx1.example.com"),
            3600,
            RecordData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        r
    }

    #[test]
    fn roundtrip_mx_response() {
        let msg = sample_response();
        let bytes = encode(&msg);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn roundtrip_all_record_types() {
        let q = Message::query(1, Question::new(n("d.example.org"), RecordType::Txt));
        let mut m = Message::response_to(&q, Rcode::NoError);
        m.answers = vec![
            Record::new(
                n("d.example.org"),
                60,
                RecordData::A("192.0.2.7".parse().unwrap()),
            ),
            Record::new(
                n("d.example.org"),
                60,
                RecordData::Aaaa("2001:db8::7".parse().unwrap()),
            ),
            Record::new(n("d.example.org"), 60, RecordData::Ns(n("ns1.example.org"))),
            Record::new(
                n("mta-sts.d.example.org"),
                60,
                RecordData::Cname(n("policy.host.example")),
            ),
            Record::new(
                n("7.2.0.192.in-addr.arpa"),
                60,
                RecordData::Ptr(n("d.example.org")),
            ),
            Record::new(
                n("_mta-sts.d.example.org"),
                60,
                RecordData::Txt(vec!["v=STSv1; id=20240101;".into()]),
            ),
            Record::new(
                n("example.org"),
                60,
                RecordData::Soa(SoaRecord {
                    mname: n("ns1.example.org"),
                    rname: n("hostmaster.example.org"),
                    serial: 2024010101,
                    refresh: 7200,
                    retry: 3600,
                    expire: 1209600,
                    minimum: 300,
                }),
            ),
            Record::new(
                n("_25._tcp.mx.d.example.org"),
                60,
                RecordData::Tlsa(TlsaRecord {
                    usage: 3,
                    selector: 1,
                    matching_type: 1,
                    data: vec![0xAB; 32],
                }),
            ),
            Record::new(
                n("d.example.org"),
                60,
                RecordData::Opaque {
                    rtype: 99,
                    data: vec![1, 2, 3],
                },
            ),
        ];
        let bytes = encode(&m);
        assert_eq!(decode(&bytes).unwrap(), m);
    }

    #[test]
    fn compression_shrinks_and_roundtrips() {
        let msg = sample_response();
        let compressed = encode_with(&msg, true);
        let plain = encode_with(&msg, false);
        assert!(
            compressed.len() < plain.len(),
            "{} vs {}",
            compressed.len(),
            plain.len()
        );
        assert_eq!(decode(&compressed).unwrap(), decode(&plain).unwrap());
    }

    #[test]
    fn multi_string_txt_roundtrips() {
        let long = "x".repeat(255);
        let q = Message::query(2, Question::new(n("t.example.com"), RecordType::Txt));
        let mut m = Message::response_to(&q, Rcode::NoError);
        m.answers.push(Record::new(
            n("t.example.com"),
            60,
            RecordData::Txt(vec![long.clone(), "tail".into()]),
        ));
        let back = decode(&encode(&m)).unwrap();
        assert_eq!(
            back.answers[0].data.txt_joined().unwrap(),
            format!("{long}tail")
        );
    }

    #[test]
    fn rejects_truncated_input() {
        let bytes = encode(&sample_response());
        for cut in [0, 1, 5, 11, 13, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn rejects_pointer_loops() {
        // Header + a question whose name is a pointer to itself.
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[0xC0, 12]); // pointer to offset 12 (itself)
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn rejects_forward_pointers() {
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[0xC0, 40]); // points past itself
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn rejects_wrong_class() {
        let q = Message::query(9, Question::new(n("example.se"), RecordType::A));
        let mut bytes = encode(&q);
        // Patch QCLASS to CH (3). The question is the last 4 bytes: type, class.
        let len = bytes.len();
        bytes[len - 1] = 3;
        assert_eq!(decode(&bytes), Err(WireError::BadClass(3)));
    }

    #[test]
    fn id_and_flags_roundtrip() {
        let mut m = sample_response();
        m.flags.ra = true;
        m.flags.tc = true;
        m.rcode = Rcode::ServFail;
        let back = decode(&encode(&m)).unwrap();
        assert_eq!(back.flags, m.flags);
        assert_eq!(back.rcode, Rcode::ServFail);
    }
}
