//! Canonical JSON rendering and content hashing for the
//! content-addressed schedule cache.
//!
//! Two requests describe the same scheduling problem iff their
//! *canonical* renderings are byte-identical: objects print with keys
//! sorted ascending at every nesting level, arrays keep their order
//! (JSON arrays are ordered data), and numbers/strings print exactly as
//! the vendored `serde_json` writer prints them. The canonical string is
//! the cache key, and [`content_hash`] derives the short hex job id
//! shown in URLs and logs. A schedule request's key renders the whole
//! problem, so two schedule requests collide only if their canonical
//! JSON does. A delta request's key holds its prior request only as
//! that prior's 128-bit content hash (see
//! [`DeltaRequest::canonical_key`](crate::api::DeltaRequest::canonical_key)),
//! so two priors whose hashes collide share delta answers.

use std::fmt::Write as _;

use serde::{Number, Value};

/// Renders `value` canonically: compact, object keys sorted ascending
/// (bytewise) at every level. Insensitive to the key order of the
/// incoming JSON text.
#[must_use]
pub fn canonical_string(value: &Value) -> String {
    let mut w = Canonical::default();
    w.value(value);
    w.out
}

/// The canonical writer: one pass over a value tree into one output
/// buffer. Each object sorts references to its entries on one scratch
/// stack shared by every nesting level, so a walk allocates only as
/// the output and the deepest open objects grow.
#[derive(Default)]
pub(crate) struct Canonical<'a> {
    /// The rendering so far. Callers append their own already
    /// canonical punctuation and keys here.
    pub(crate) out: String,
    /// Sorted entries of the objects being written, innermost last.
    scratch: Vec<(&'a str, &'a Value)>,
}

impl<'a> Canonical<'a> {
    /// Appends `v` canonically.
    pub(crate) fn value(&mut self, v: &'a Value) {
        match v {
            Value::Null => self.out.push_str("null"),
            Value::Bool(true) => self.out.push_str("true"),
            Value::Bool(false) => self.out.push_str("false"),
            Value::Number(n) => self.number(*n),
            Value::String(s) => self.string(s),
            Value::Array(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.value(item);
                }
                self.out.push(']');
            }
            Value::Object(m) => {
                let base = self.scratch.len();
                self.scratch.extend(m.iter().map(|(k, v)| (k.as_str(), v)));
                let end = self.scratch.len();
                // A `Map` never holds a key twice, so an unstable sort
                // gives the one ascending order.
                self.scratch[base..].sort_unstable_by(|a, b| a.0.cmp(b.0));
                self.out.push('{');
                for i in base..end {
                    if i > base {
                        self.out.push(',');
                    }
                    // Nested objects push above `end` and truncate back
                    // to it, so this level's entries stay put.
                    let (k, item) = self.scratch[i];
                    self.string(k);
                    self.out.push(':');
                    self.value(item);
                }
                self.out.push('}');
                self.scratch.truncate(base);
            }
        }
    }

    /// Mirrors the vendored `serde_json` number printer so a value and
    /// its canonical form agree digit for digit (floats keep a `.0`
    /// marker, non-finite floats collapse to `null`).
    fn number(&mut self, n: Number) {
        match n {
            Number::PosInt(u) => push_digits(&mut self.out, u),
            Number::NegInt(i) => {
                if i < 0 {
                    self.out.push('-');
                }
                push_digits(&mut self.out, i.unsigned_abs());
            }
            Number::Float(f) if f.is_finite() => {
                let start = self.out.len();
                write!(self.out, "{f}").expect("writing to a String cannot fail");
                if !self.out.as_bytes()[start..]
                    .iter()
                    .any(|b| matches!(b, b'.' | b'e' | b'E'))
                {
                    self.out.push_str(".0");
                }
            }
            Number::Float(_) => self.out.push_str("null"),
        }
    }

    /// Mirrors the vendored `serde_json` string escaper, copying the
    /// runs between the bytes that need escaping. Those are all ASCII,
    /// so every run boundary is a char boundary.
    pub(crate) fn string(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut self.out;
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    out.push_str("\\u00");
                    out.push(char::from(HEX[usize::from(b >> 4)]));
                    out.push(char::from(HEX[usize::from(b & 0xf)]));
                }
            }
        }
        out.push_str(&s[run..]);
        out.push('"');
    }
}

/// Appends the decimal digits of `u`.
fn push_digits(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, starting from `seed`.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes
        .iter()
        .fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit FNV-1a over `bytes` from the standard offset basis — the
/// record checksum of the crash-safe job journal ([`crate::journal`]).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(bytes, FNV_OFFSET)
}

/// The two independent 64-bit FNV-1a lanes behind [`content_hash`],
/// exposed numerically so the persistent store's packed index
/// ([`crate::store`]) can record them without hex round-trips.
#[must_use]
pub(crate) fn hash_lanes(bytes: &[u8]) -> (u64, u64) {
    // One loop, two independent multiply chains: the CPU overlaps them,
    // so both lanes cost about what one did.
    let (mut a, mut b) = (FNV_OFFSET, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

/// 32-hex-digit content hash of a canonical string: two independent
/// 64-bit FNV-1a lanes (distinct seeds). Used as the job id; the cache
/// itself is keyed by the full canonical string, so for schedule
/// requests a hash collision can at worst alias two job-status URLs,
/// never corrupt a cached schedule. Delta keys embed their prior's
/// content hash instead of its canonical string, so a collision between
/// two priors does make their delta requests share cached answers.
#[must_use]
pub fn content_hash(canonical: &str) -> String {
    let (a, b) = hash_lanes(canonical.as_bytes());
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(text: &str) -> String {
        canonical_string(&serde_json::from_str::<Value>(text).expect("valid JSON"))
    }

    #[test]
    fn key_is_insensitive_to_object_key_order() {
        let a = canon(r#"{"platform":"mesh:2x2","graph":{"b":1,"a":[1,2]},"scheduler":"eas"}"#);
        let b = canon(r#"{"scheduler":"eas","graph":{"a":[1,2],"b":1},"platform":"mesh:2x2"}"#);
        assert_eq!(a, b);
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn key_sorts_nested_objects_at_every_level() {
        let a = canon(r#"{"outer":{"z":{"k":1,"a":2},"a":0}}"#);
        assert_eq!(a, r#"{"outer":{"a":0,"z":{"a":2,"k":1}}}"#);
    }

    #[test]
    fn arrays_keep_their_order() {
        assert_ne!(canon("[1,2]"), canon("[2,1]"));
    }

    #[test]
    fn value_changes_change_the_key() {
        assert_ne!(
            canon(r#"{"a":1,"b":2}"#),
            canon(r#"{"a":1,"b":3}"#),
            "different payloads must not collide"
        );
    }

    #[test]
    fn numbers_render_like_serde_json() {
        assert_eq!(canon("[2.0, 2, -3, 1.5]"), "[2.0,2,-3,1.5]");
    }

    #[test]
    fn strings_escape_like_serde_json() {
        let v = Value::String("a\"b\n\u{1}".to_owned());
        assert_eq!(
            canonical_string(&v),
            serde_json::to_string(&v).expect("serializes")
        );
    }

    #[test]
    fn whitespace_in_the_source_text_is_irrelevant() {
        assert_eq!(
            canon("{\"a\": 1,\n  \"b\": [1, 2]}"),
            canon(r#"{"a":1,"b":[1,2]}"#)
        );
    }

    #[test]
    fn hash_is_stable_and_hex() {
        let h = content_hash("hello");
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h, content_hash("hello"));
        assert_ne!(h, content_hash("hello!"));
    }
}
