//! Client codecs for the two fronts under test: the binary length-prefixed
//! frames of `serve_tcp` / `serve_live_tcp`, and RESP2 for
//! `serve_tenant_tcp`. Written from the documented wire formats, so the
//! benchmark speaks to the fronts exactly as an outside client would.

use crate::openloop::{Answer, Wire};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;

const OPCODE_QUERY: u8 = 1;
const OPCODE_MUTATE: u8 = 4;
const STATUS_OK: u8 = 0;
const STATUS_OVERLOADED: u8 = 1;
const STATUS_DEADLINE: u8 = 2;
/// The RESP front's only refusal: an admission quota.
const RESP_REFUSAL: &str = "ERR quota exceeded";
const MAX_REPLY: usize = 16 << 20;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Append a binary QUERY frame (default mode, budget 0 → tier 0).
pub fn encode_query(terms: &[u64], deadline_ms: u32, out: &mut Vec<u8>) {
    let len = 20 + terms.len() * 8;
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[OPCODE_QUERY, 0, 0, 0]);
    out.extend_from_slice(&0f64.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for t in terms {
        out.extend_from_slice(&t.to_le_bytes());
    }
}

/// Append a binary MUTATE frame (insert one named document).
pub fn encode_mutate(name: &str, terms: &[u64], out: &mut Vec<u8>) {
    let len = 4 + 4 + name.len() + 4 + terms.len() * 8;
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[OPCODE_MUTATE, 0, 0, 0]);
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for t in terms {
        out.extend_from_slice(&t.to_le_bytes());
    }
}

/// A binary non-OK status: overload and deadline refusals are failures;
/// any other status (bad request, rejected mutation) is a wrong answer.
fn refused<R>(status: u8, why: String) -> Answer<R> {
    if matches!(status, STATUS_OVERLOADED | STATUS_DEADLINE) {
        Answer::Failed(why)
    } else {
        Answer::Error(why)
    }
}

/// Split one length-prefixed frame off the head of `buf`.
fn frame(buf: &[u8]) -> io::Result<Option<(usize, &[u8])>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len == 0 || len > MAX_REPLY {
        return Err(bad("reply frame length out of range"));
    }
    Ok((buf.len() >= 4 + len).then(|| (4 + len, &buf[4..4 + len])))
}

/// Binary QUERY client: request `i` sends `reads[i]`.
pub struct BinaryQueries<'a> {
    /// Terms of each request.
    pub reads: &'a [Vec<u64>],
    /// Deadline carried in every frame.
    pub deadline_ms: u32,
}

impl Wire for BinaryQueries<'_> {
    type Reply = Vec<u32>;

    fn encode(&mut self, i: usize, out: &mut Vec<u8>) {
        encode_query(&self.reads[i], self.deadline_ms, out);
    }

    fn decode(&mut self, buf: &[u8]) -> io::Result<Option<(usize, Answer<Vec<u32>>)>> {
        let Some((used, p)) = frame(buf)? else {
            return Ok(None);
        };
        if p.len() < 9 {
            return Err(bad("short query reply"));
        }
        if p[0] != STATUS_OK {
            return Ok(Some((used, refused(p[0], format!("status {}", p[0])))));
        }
        let n = u32::from_le_bytes(p[5..9].try_into().expect("4 bytes")) as usize;
        if p.len() != 9 + 4 * n {
            return Err(bad("query reply length disagrees with its count"));
        }
        let docs = p[9..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(Some((used, Answer::Ok(docs))))
    }
}

/// Decode a binary MUTATE reply: the issued document id.
///
/// # Errors
/// Malformed replies.
pub fn decode_mutate(buf: &[u8]) -> io::Result<Option<(usize, Answer<u32>)>> {
    let Some((used, p)) = frame(buf)? else {
        return Ok(None);
    };
    if p[0] != STATUS_OK {
        let why = format!("status {}: {}", p[0], String::from_utf8_lossy(&p[1..]));
        return Ok(Some((used, refused(p[0], why))));
    }
    if p.len() != 13 {
        return Err(bad("mutate reply length"));
    }
    let id = u32::from_le_bytes(p[1..5].try_into().expect("4 bytes"));
    Ok(Some((used, Answer::Ok(id))))
}

/// A RESP2 reply value (a quota refusal decodes to [`Answer::Failed`],
/// every other `-ERR` to [`Answer::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resp {
    /// `+text`
    Simple(String),
    /// `:n`
    Int(i64),
    /// `$len` payload (`None` for the nil bulk).
    Bulk(Option<Vec<u8>>),
    /// `*n` of bulk strings (integer elements as their decimal text).
    Array(Names),
}

/// A RESP array of strings kept as its length and a digest of its elements
/// in order: enough to compare with an expected list, and a few bytes
/// however long the reply, so stored replies do not swell the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Names {
    /// Elements.
    pub count: usize,
    /// Digest of the elements, in order.
    pub digest: u64,
}

impl Names {
    /// The `Names` of `items`, in order.
    pub fn of<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut h = DefaultHasher::new();
        let mut count = 0;
        for item in items {
            item.hash(&mut h);
            count += 1;
        }
        Self {
            count,
            digest: h.finish(),
        }
    }
}

/// Append a command as a RESP array of bulk strings.
pub fn encode_resp<A: AsRef<[u8]>>(args: &[A], out: &mut Vec<u8>) {
    out.extend_from_slice(format!("*{}\r\n", args.len()).as_bytes());
    for a in args {
        let a = a.as_ref();
        out.extend_from_slice(format!("${}\r\n", a.len()).as_bytes());
        out.extend_from_slice(a);
        out.extend_from_slice(b"\r\n");
    }
}

/// One CRLF-terminated line at `buf[at..]`: (line, index after CRLF).
fn line(buf: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let rest = buf.get(at..)?;
    let end = rest.windows(2).position(|w| w == b"\r\n")?;
    Some((&rest[..end], at + end + 2))
}

fn number(raw: &[u8]) -> io::Result<i64> {
    std::str::from_utf8(raw)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad RESP number"))
}

/// A bulk string at `buf[at..]` (an integer or simple-string element
/// yields its text): (payload, index after it).
fn bulk(buf: &[u8], at: usize) -> io::Result<Option<(Option<Vec<u8>>, usize)>> {
    let Some((head, body)) = line(buf, at) else {
        return Ok(None);
    };
    match head.first() {
        Some(b'$') => {}
        Some(b':' | b'+') => return Ok(Some((Some(head[1..].to_vec()), body))),
        _ => return Err(bad("expected a bulk string")),
    }
    let len = number(&head[1..])?;
    if len < 0 {
        return Ok(Some((None, body)));
    }
    let len = usize::try_from(len).map_err(|_| bad("bulk length"))?;
    if len > MAX_REPLY {
        return Err(bad("bulk length out of range"));
    }
    if buf.len() < body + len + 2 {
        return Ok(None);
    }
    Ok(Some((Some(buf[body..body + len].to_vec()), body + len + 2)))
}

/// Decode one RESP2 reply from the head of `buf`.
///
/// # Errors
/// Malformed replies.
pub fn decode_resp(buf: &[u8]) -> io::Result<Option<(usize, Answer<Resp>)>> {
    let Some((head, next)) = line(buf, 0) else {
        return Ok(None);
    };
    let Some((&kind, rest)) = head.split_first() else {
        return Err(bad("empty RESP line"));
    };
    let value = match kind {
        b'+' => Resp::Simple(String::from_utf8_lossy(rest).into_owned()),
        b'-' => {
            let why = String::from_utf8_lossy(rest).into_owned();
            let answer = if why.starts_with(RESP_REFUSAL) {
                Answer::Failed(why)
            } else {
                Answer::Error(why)
            };
            return Ok(Some((next, answer)));
        }
        b':' => Resp::Int(number(rest)?),
        b'$' => {
            return Ok(bulk(buf, 0)?.map(|(v, used)| (used, Answer::Ok(Resp::Bulk(v)))));
        }
        b'*' => {
            let n = usize::try_from(number(rest)?).map_err(|_| bad("array length"))?;
            let mut at = next;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let Some((v, after)) = bulk(buf, at)? else {
                    return Ok(None);
                };
                items.push(v.unwrap_or_default());
                at = after;
            }
            let names = Names::of(items.iter().map(Vec::as_slice));
            return Ok(Some((at, Answer::Ok(Resp::Array(names)))));
        }
        _ => return Err(bad("unknown RESP type byte")),
    };
    Ok(Some((next, Answer::Ok(value))))
}

/// RESP client: request `i` sends the pre-encoded command `commands[i]`.
pub struct RespCommands<'a> {
    /// Encoded commands.
    pub commands: &'a [Vec<u8>],
}

impl Wire for RespCommands<'_> {
    type Reply = Resp;

    fn encode(&mut self, i: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.commands[i]);
    }

    fn decode(&mut self, buf: &[u8]) -> io::Result<Option<(usize, Answer<Resp>)>> {
        decode_resp(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resp_replies_decode_incrementally() {
        let full = b"*2\r\n$3\r\nabc\r\n$0\r\n\r\n:7\r\n-ERR no\r\n+OK\r\n";
        for cut in 0..13 {
            assert!(decode_resp(&full[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (used, a) = decode_resp(full).unwrap().unwrap();
        let want = Names::of([b"abc".as_slice(), b""]);
        assert!(matches!(a, Answer::Ok(Resp::Array(n)) if n == want));
        assert_ne!(want, Names::of([b"ab".as_slice(), b"c"]));
        let (used2, b) = decode_resp(&full[used..]).unwrap().unwrap();
        assert!(matches!(b, Answer::Ok(Resp::Int(7))));
        let (used3, c) = decode_resp(&full[used + used2..]).unwrap().unwrap();
        assert!(matches!(c, Answer::Error(ref s) if s == "ERR no"));
        let (_, d) = decode_resp(&full[used + used2 + used3..]).unwrap().unwrap();
        assert!(matches!(d, Answer::Ok(Resp::Simple(ref s)) if s == "OK"));
    }

    #[test]
    fn binary_query_reply_round_trip() {
        let mut reply = Vec::new();
        reply.extend_from_slice(&(9u32 + 8).to_le_bytes());
        reply.push(STATUS_OK);
        reply.extend_from_slice(&0u32.to_le_bytes());
        reply.extend_from_slice(&2u32.to_le_bytes());
        reply.extend_from_slice(&5u32.to_le_bytes());
        reply.extend_from_slice(&9u32.to_le_bytes());
        let mut w = BinaryQueries {
            reads: &[],
            deadline_ms: 1,
        };
        assert!(w.decode(&reply[..10]).unwrap().is_none());
        let (used, a) = w.decode(&reply).unwrap().unwrap();
        assert_eq!(used, reply.len());
        assert!(matches!(a, Answer::Ok(ref d) if d == &[5, 9]));
    }

    fn status_reply(status: u8) -> Vec<u8> {
        let mut reply = (9u32).to_le_bytes().to_vec();
        reply.push(status);
        reply.extend_from_slice(&[0; 8]);
        reply
    }

    #[test]
    fn only_refusals_are_failures_other_errors_are_wrong_answers() {
        let mut w = BinaryQueries {
            reads: &[],
            deadline_ms: 1,
        };
        for (status, refusal) in [(1, true), (2, true), (3, false), (5, false)] {
            let (_, a) = w.decode(&status_reply(status)).unwrap().unwrap();
            assert_eq!(matches!(a, Answer::Failed(_)), refusal, "status {status}");
            assert_eq!(matches!(a, Answer::Error(_)), !refusal, "status {status}");
        }
        let (_, a) = decode_mutate(&status_reply(5)).unwrap().unwrap();
        assert!(matches!(a, Answer::Error(_)));
        let (_, a) = decode_resp(b"-ERR quota exceeded: tenant at its document cap (4)\r\n")
            .unwrap()
            .unwrap();
        assert!(matches!(a, Answer::Failed(_)));
        let (_, a) = decode_resp(b"-ERR unknown command 'R.QUERYSEQQ'\r\n")
            .unwrap()
            .unwrap();
        assert!(matches!(a, Answer::Error(_)));
    }
}
