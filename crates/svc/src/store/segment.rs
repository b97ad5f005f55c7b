//! Segment-file framing for the persistent schedule store, and the
//! frame codec both durable logs share.
//!
//! A segment is a flat append-only sequence of checksummed,
//! length-prefixed frames. The job journal ([`crate::journal`]) writes
//! and scans the same frames ([`encode_frame`], [`scan_frames`]) with a
//! JSON payload; a segment's payload is binary, so multi-kilobyte
//! response bodies round-trip without escaping:
//!
//! ```text
//! frame   := [u32 LE payload length][u64 LE FNV-1a(payload)][payload]
//! payload := [u32 LE key length][key (canonical request, UTF-8)]
//!            [u8 flags]                       // bit0 degraded, bit1 has stats
//!            [u32 LE body length][body (response bytes, UTF-8)]
//!            [u32 LE stats length][stats (trace summary JSON, UTF-8)]
//! ```
//!
//! Every append is one `write(2)` of one whole frame, so a crash can
//! only truncate the file mid-frame, never interleave frames. A scan
//! accepts the **longest valid prefix**: it stops at the first frame
//! whose header is short, whose declared length overruns the file,
//! whose checksum fails, or whose payload does not decode. Everything
//! after that point is either a torn tail (active segment — truncated
//! on open) or quarantined bytes (sealed segment — counted, never
//! served).

use std::sync::Arc;

use crate::cache::JobOutput;
use crate::hash::{fnv1a64, ContentHash};

/// Bytes of frame header: u32 payload length + u64 checksum.
pub(crate) const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on a single payload. A corrupt length prefix must not
/// drive a multi-gigabyte allocation; real response bodies are a few
/// hundred KiB at the extreme.
const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

const FLAG_DEGRADED: u8 = 1 << 0;
const FLAG_HAS_STATS: u8 = 1 << 1;

fn push_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u32::try_from(bytes.len()).expect("chunk fits u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Wraps `payload` in one complete frame, ready for a single append:
/// length prefix, FNV-1a checksum, payload.
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Encodes one `(key, output)` record as a complete frame ready for a
/// single append.
pub(crate) fn encode_record(key: &str, output: &JobOutput) -> Vec<u8> {
    let stats = output.stats.as_deref().map_or("", |s| s.as_str());
    let mut payload = Vec::with_capacity(key.len() + output.body.len() + stats.len() + 3 * 4 + 1);
    push_chunk(&mut payload, key.as_bytes());
    let mut flags = 0u8;
    if output.degraded {
        flags |= FLAG_DEGRADED;
    }
    if output.stats.is_some() {
        flags |= FLAG_HAS_STATS;
    }
    payload.push(flags);
    push_chunk(&mut payload, output.body.as_bytes());
    push_chunk(&mut payload, stats.as_bytes());
    encode_frame(&payload)
}

/// A cursor over a payload's chunks.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn chunk(&mut self) -> Option<&'a str> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
}

fn decode_payload(payload: &[u8]) -> Option<(String, JobOutput)> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let key = cur.chunk()?.to_owned();
    let flags = cur.byte()?;
    let body = cur.chunk()?.to_owned();
    let stats = cur.chunk()?.to_owned();
    if cur.at != payload.len() {
        return None; // trailing garbage is not a valid record
    }
    let output = JobOutput {
        body: Arc::new(body),
        degraded: flags & FLAG_DEGRADED != 0,
        stats: (flags & FLAG_HAS_STATS != 0).then(|| Arc::new(stats)),
    };
    Some((key, output))
}

/// The payload of one complete frame, if its header matches its length
/// and checksum.
fn frame_payload(frame: &[u8]) -> Option<&[u8]> {
    let header = frame.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let sum = u64::from_le_bytes(header[4..].try_into().ok()?);
    let payload = frame.get(FRAME_HEADER..FRAME_HEADER + len)?;
    (FRAME_HEADER + len == frame.len() && fnv1a64(payload) == sum).then_some(payload)
}

/// Decodes one complete frame (header + payload, exactly as long as the
/// index says). Returns `None` — never panics — on any mismatch: short
/// buffer, bad length, checksum failure, undecodable payload. A `None`
/// from here is what quarantines a record at read time.
pub(crate) fn decode_frame(frame: &[u8]) -> Option<(String, JobOutput)> {
    frame_payload(frame).and_then(decode_payload)
}

/// One record located by a scan.
pub(crate) struct Framed<T> {
    /// Byte offset of the frame start within the log.
    pub offset: u64,
    /// Whole-frame length (header + payload).
    pub len: u32,
    /// What the payload decoded to.
    pub record: T,
}

/// Result of scanning a log's bytes.
pub(crate) struct Scan<T> {
    /// Every record in the longest valid prefix, in file order.
    pub records: Vec<Framed<T>>,
    /// Length of that prefix; bytes past it are torn or corrupt.
    pub valid_len: u64,
}

/// Scans `bytes`, accepting the longest valid prefix of whole,
/// checksum-passing frames whose payload `decode` accepts.
pub(crate) fn scan_frames<T>(bytes: &[u8], mut decode: impl FnMut(&[u8]) -> Option<T>) -> Scan<T> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Some(header) = bytes.get(offset..offset + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            break;
        }
        let frame_len = FRAME_HEADER + len;
        let Some(record) = bytes
            .get(offset..offset + frame_len)
            .and_then(frame_payload)
            .and_then(&mut decode)
        else {
            break;
        };
        records.push(Framed {
            offset: offset as u64,
            len: u32::try_from(frame_len).expect("frame fits u32"),
            record,
        });
        offset += frame_len;
    }
    Scan {
        records,
        valid_len: offset as u64,
    }
}

/// Scans a segment's bytes; each record is its key's content hash.
pub(crate) fn scan(bytes: &[u8]) -> Scan<ContentHash> {
    scan_frames(bytes, |payload| {
        decode_payload(payload).map(|(key, _)| ContentHash::of(&key))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(body: &str, degraded: bool, stats: Option<&str>) -> JobOutput {
        JobOutput {
            body: Arc::new(body.to_owned()),
            degraded,
            stats: stats.map(|s| Arc::new(s.to_owned())),
        }
    }

    #[test]
    fn records_round_trip_with_flags_and_stats() {
        for (degraded, stats) in [
            (false, None),
            (true, None),
            (false, Some(r#"{"wall":1}"#)),
            (true, Some("")),
        ] {
            let out = output(r#"{"makespan":4.0}"#, degraded, stats);
            let frame = encode_record("key{json}", &out);
            let (key, got) = decode_frame(&frame).expect("decodes");
            assert_eq!(key, "key{json}");
            assert_eq!(got.body.as_str(), out.body.as_str());
            assert_eq!(got.degraded, degraded);
            assert_eq!(got.stats.as_deref().map(String::as_str), stats);
        }
    }

    #[test]
    fn any_flipped_byte_fails_the_decode() {
        let frame = encode_record("k", &output("body", false, None));
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            // Either the frame no longer decodes, or (for flag/length
            // bits that keep the checksum valid — impossible here since
            // the checksum covers the payload and header mismatches are
            // structural) it must not silently alter the key or body.
            if let Some((key, out)) = decode_frame(&bad) {
                panic!(
                    "flip at byte {i} still decoded (key={key:?}, body={:?})",
                    out.body
                );
            }
        }
    }

    #[test]
    fn scan_accepts_the_longest_valid_prefix() {
        let mut bytes = Vec::new();
        for i in 0..4 {
            bytes.extend_from_slice(&encode_record(
                &format!("key-{i}"),
                &output(&format!("body-{i}"), false, None),
            ));
        }
        let full = scan(&bytes);
        assert_eq!(full.records.len(), 4);
        assert_eq!(full.valid_len, bytes.len() as u64);

        // Corrupt the third record: the first two survive, the rest are
        // rejected even though record four is intact (offsets past a
        // corrupt frame cannot be trusted).
        let third = full.records[2].offset as usize + FRAME_HEADER + 2;
        let mut corrupt = bytes.clone();
        corrupt[third] ^= 0xff;
        let partial = scan(&corrupt);
        assert_eq!(partial.records.len(), 2);
        assert_eq!(partial.valid_len, full.records[2].offset);

        // Torn tail: half a frame at the end drops only that frame.
        let torn = &bytes[..bytes.len() - 7];
        let tail = scan(torn);
        assert_eq!(tail.records.len(), 3);
    }

    #[test]
    fn absurd_length_prefix_stops_the_scan() {
        let mut bytes = vec![0xffu8; 64]; // length prefix ~4 GiB
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
    }
}
