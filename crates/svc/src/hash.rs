//! Canonical JSON rendering and content hashing for the
//! content-addressed schedule cache.
//!
//! Two requests describe the same scheduling problem iff their
//! *canonical* renderings are byte-identical: objects print with keys
//! sorted ascending at every nesting level, arrays keep their order
//! (JSON arrays are ordered data), and numbers/strings print exactly as
//! the vendored `serde_json` writer prints them. The canonical string is
//! the cache key: its [`ContentHash`] addresses the stored record and
//! renders as the short hex job id shown in URLs and logs, and the key
//! itself is compared on every keyed hit. A schedule request's key
//! renders the whole problem, so two schedule requests collide only if
//! their canonical JSON does. A delta request's key holds its prior
//! request only as that prior's 128-bit content hash (see
//! [`DeltaRequest::canonical_key`](crate::api::DeltaRequest::canonical_key)),
//! so two priors whose hashes collide share delta answers.
//!
//! The key of a `POST /v1/schedule` body is written twice over: from
//! the decoded request ([`canonical_string`]'s tree walk) and straight
//! from the body's text, in one pass that builds no tree
//! ([`ScheduleKey::scan`](crate::api::ScheduleKey::scan)). Both use the
//! same number and string writers, so they agree byte for byte.

use std::fmt::{self, Write as _};

use serde::{Number, Value};
use serde_json::{Error, Reader, Token};

/// Renders `value` canonically: compact, object keys sorted ascending
/// (bytewise) at every level. Insensitive to the key order of the
/// incoming JSON text.
#[must_use]
pub fn canonical_string(value: &Value) -> String {
    let mut out = String::new();
    Canonical::default().value(&mut out, value);
    out
}

/// The canonical writer of a value tree: one pass over the tree into
/// one output buffer. Each object sorts references to its entries on
/// one scratch stack shared by every nesting level, so a walk
/// allocates only as the output and the deepest open objects grow.
#[derive(Default)]
pub(crate) struct Canonical<'a> {
    /// Sorted entries of the objects being written, innermost last.
    scratch: Vec<(&'a str, &'a Value)>,
}

impl<'a> Canonical<'a> {
    /// Appends `v` canonically to `out`.
    pub(crate) fn value(&mut self, out: &mut String, v: &'a Value) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(out, item);
                }
                out.push(']');
            }
            Value::Object(m) => {
                let base = self.scratch.len();
                self.scratch.extend(m.iter().map(|(k, v)| (k.as_str(), v)));
                let end = self.scratch.len();
                // A `Map` never holds a key twice, so an unstable sort
                // gives the one ascending order.
                self.scratch[base..].sort_unstable_by(|a, b| a.0.cmp(b.0));
                out.push('{');
                for i in base..end {
                    if i > base {
                        out.push(',');
                    }
                    // Nested objects push above `end` and truncate back
                    // to it, so this level's entries stay put.
                    let (k, item) = self.scratch[i];
                    write_string(out, k);
                    out.push(':');
                    self.value(out, item);
                }
                out.push('}');
                self.scratch.truncate(base);
            }
        }
    }
}

/// Appends `n` as the vendored `serde_json` printer does, so a value
/// and its canonical form agree digit for digit (floats keep a `.0`
/// marker, non-finite floats collapse to `null`).
pub(crate) fn write_number(out: &mut String, n: Number) {
    match n {
        Number::PosInt(u) => push_digits(out, u),
        Number::NegInt(i) => {
            if i < 0 {
                out.push('-');
            }
            push_digits(out, i.unsigned_abs());
        }
        Number::Float(f) if f.is_finite() => {
            let start = out.len();
            write!(out, "{f}").expect("writing to a String cannot fail");
            if !out.as_bytes()[start..]
                .iter()
                .any(|b| matches!(b, b'.' | b'e' | b'E'))
            {
                out.push_str(".0");
            }
        }
        Number::Float(_) => out.push_str("null"),
    }
}

/// Appends `s` quoted and escaped as the vendored `serde_json` printer
/// does, copying the runs between the bytes that need escaping. Those
/// are all ASCII, so every run boundary is a char boundary.
pub(crate) fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
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

/// `true` when the text of an integer token is the canonical spelling
/// of the integer it classifies as: no leading zero, no `-0`, and in
/// range of `u64` (or of `i64` when negative). Such text is copied as
/// it stands.
fn canonical_integer(text: &str) -> bool {
    let (digits, max) = match text.strip_prefix('-') {
        Some(digits) => (digits, "9223372036854775808"),
        None => (text, "18446744073709551615"),
    };
    match digits.as_bytes() {
        [b'0'] => digits.len() == text.len(),
        [b'1'..=b'9', ..] => {
            digits.len() < max.len() || (digits.len() == max.len() && digits <= max)
        }
        _ => false,
    }
}

/// `true` when `text`, a float token that parses to the finite `f`, is
/// already what [`write_number`] writes for `f`, decided with exact
/// integer arithmetic instead of by formatting `f`; `false` when it is
/// not, or when the check cannot tell (the caller then formats `f`).
///
/// The printer writes the fewest significant digits that parse back to
/// `f` (the closest to `f` if several do) as a plain decimal. Digits
/// `D × 10^q`, `D` with no trailing zero, are that output when
/// 1. they lie within `10^q / 2` of `f`, so no other decimal with as
///    many digits is as close, and
/// 2. neither decimal with one digit fewer around them, `⌊D/10⌋` and
///    `⌊D/10⌋ + 1` times `10^(q+1)`, parses to `f`; every shorter one
///    lies farther out.
///
/// Every comparison is strict, so a tie is formatted. The check covers
/// spellings of at most 17 significant digits with `q ≤ 0` of floats
/// from `2^-16` to below `2^53`, whose scaled distances all fit `u128`.
fn canonical_float(text: &str, f: f64) -> bool {
    let unsigned = text.strip_prefix('-').unwrap_or(text);
    let Some((int, frac)) = unsigned.split_once('.') else {
        return false;
    };
    // The printer's layout: no exponent, no leading zero, and no
    // trailing zero in the fraction but for a whole number's `.0`.
    let layout = match int.as_bytes() {
        [b'0'] => true,
        [b'1'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
        _ => false,
    } && frac.bytes().all(|b| b.is_ascii_digit())
        && (frac == "0" || frac.ends_with(|c: char| c != '0'));
    if !layout {
        return false;
    }
    if int == "0" && frac == "0" {
        return true;
    }
    // `text` is `D × 10^-a`.
    let (int, frac) = match (int, frac) {
        (int, "0") => (int, ""),
        ("0", frac) => ("", frac),
        parts => parts,
    };
    if int.len() + frac.len() > 19 {
        return false;
    }
    let d = int
        .bytes()
        .chain(frac.bytes())
        .fold(0u64, |d, b| d * 10 + u64::from(b - b'0'));
    let a = frac.len();
    if d % 10 == 0 || d >= 100_000_000_000_000_000 {
        return false;
    }
    // `|f| = m × 2^k` with `m` of 53 bits, `k ≤ 0`.
    let bits = f.abs().to_bits();
    let exponent = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let k = exponent - 1075;
    if exponent == 0 || !(-68..=0).contains(&k) {
        return false;
    }
    // Every distance scaled by `2^(2-k) × 10^a` is an integer below
    // `2^127`: `D < 2^57` shifted by at most 70, `4m < 2^55` times
    // `10^a < 2^64`.
    let shift = (2 - k) as u32;
    let pow10 = 10u64.pow(a as u32);
    let x = u128::from(4 * (fraction | 1 << 52)) * u128::from(pow10);
    let scaled = |digits: u64| u128::from(digits) << shift;
    // 1: within half a unit of the last digit.
    if scaled(d).abs_diff(x) >= 1 << (shift - 1) {
        return false;
    }
    if d < 10 {
        return true;
    }
    // 2: the neighbours one digit shorter lie outside `f`'s rounding
    // interval: half the gap to each neighbouring float, the gap below
    // halved at the bottom of a binade.
    let half_gap_above = 2 * u128::from(pow10);
    let half_gap_below = if fraction == 0 {
        u128::from(pow10)
    } else {
        half_gap_above
    };
    x.checked_sub(scaled(d / 10 * 10))
        .is_some_and(|gap| gap > half_gap_below)
        && scaled(d / 10 * 10 + 10)
            .checked_sub(x)
            .is_some_and(|gap| gap > half_gap_above)
}

/// `(first, last)` pieces of a rendering in [`TextCanonical`]'s buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    head: usize,
    tail: usize,
}

/// A run of [`TextCanonical`]'s buffer and the piece that follows it
/// in output order.
#[derive(Debug, Clone, Copy)]
struct Piece {
    start: usize,
    end: usize,
    next: usize,
}

/// A member of an object being rendered: its decoded key and the
/// pieces of its rendering (`"key":value`, after a leading `,` when
/// `comma`).
struct Member<'a> {
    key: Key<'a>,
    head: usize,
    tail: usize,
    comma: bool,
}

/// A decoded member key: the text itself when it holds no escape, or
/// a range of [`TextCanonical`]'s decoded keys.
#[derive(Clone, Copy)]
enum Key<'a> {
    Raw(&'a str),
    Decoded(usize, usize),
}

impl<'a> Key<'a> {
    fn text<'k>(self, decoded: &'k str) -> &'k str
    where
        'a: 'k,
    {
        match self {
            Key::Raw(text) => text,
            Key::Decoded(start, end) => &decoded[start..end],
        }
    }
}

/// The canonical writer of JSON text: renders each value it reads
/// from a [`Reader`] as [`canonical_string`] renders the tree the text
/// parses to, without building that tree.
///
/// Values are rendered in text order into one buffer. An object whose
/// members are out of order, or repeat a key, is put in order by
/// relinking pieces (runs of the buffer chained in output order), not
/// by moving bytes: each byte is rendered once and copied once more
/// when a chain is written out, however deeply it is nested. Members
/// sort by decoded key, and a repeated key keeps its last value, as
/// the tree's `Map` does.
pub(crate) struct TextCanonical<'a> {
    store: TextBuffers,
    /// The piece being written, open at the end of the buffer.
    tail: usize,
    /// Members of the objects being rendered, innermost last.
    members: Vec<Member<'a>>,
}

/// The storage of a [`TextCanonical`], kept from one pass to the next
/// so that a pass over a body no larger than the last allocates
/// nothing.
#[derive(Default)]
pub(crate) struct TextBuffers {
    buf: String,
    pieces: Vec<Piece>,
    /// Decoded keys that held escapes.
    keys: String,
    /// A decoded string value that held escapes.
    scratch: String,
}

impl<'a> TextCanonical<'a> {
    /// A writer on `store`.
    pub(crate) fn new(store: TextBuffers) -> Self {
        TextCanonical {
            store,
            tail: 0,
            members: Vec::new(),
        }
    }

    /// The writer's storage, emptied for the next one; a buffer that
    /// grew past 1 MiB is freed, not kept.
    pub(crate) fn into_buffers(self) -> TextBuffers {
        const RETAINED_BYTES: usize = 1 << 20;
        let text = |mut s: String| {
            s.clear();
            if s.capacity() <= RETAINED_BYTES {
                s
            } else {
                String::new()
            }
        };
        let mut pieces = self.store.pieces;
        pieces.clear();
        if pieces.capacity() * std::mem::size_of::<Piece>() > RETAINED_BYTES {
            pieces = Vec::new();
        }
        TextBuffers {
            buf: text(self.store.buf),
            pieces,
            keys: text(self.store.keys),
            scratch: text(self.store.scratch),
        }
    }

    /// Renders the value that starts with `token` (just read from `r`)
    /// as a chain of its own.
    ///
    /// # Errors
    ///
    /// The reader's, where the text stops being JSON.
    pub(crate) fn chain(&mut self, r: &mut Reader<'a>, token: Token) -> Result<Chain, Error> {
        self.close();
        self.open_after(None);
        let head = self.tail;
        self.value(r, token)?;
        self.close();
        Ok(Chain {
            head,
            tail: self.tail,
        })
    }

    /// Appends `chain`'s rendering to `out`.
    pub(crate) fn write(&self, chain: Chain, out: &mut String) {
        out.reserve(self.store.buf.len());
        let mut at = chain.head;
        loop {
            let p = self.store.pieces[at];
            out.push_str(&self.store.buf[p.start..p.end]);
            if at == chain.tail {
                break;
            }
            at = p.next;
        }
    }

    /// Ends the open piece at the end of the buffer.
    fn close(&mut self) {
        let end = self.store.buf.len();
        if let Some(p) = self.store.pieces.get_mut(self.tail) {
            p.end = end;
        }
    }

    /// Opens a piece at the end of the buffer, linked after `prev`.
    fn open_after(&mut self, prev: Option<usize>) {
        let at = self.store.buf.len();
        self.tail = self.store.pieces.len();
        if let Some(prev) = prev {
            self.store.pieces[prev].next = self.tail;
        }
        self.store.pieces.push(Piece {
            start: at,
            end: at,
            next: usize::MAX,
        });
    }

    fn value(&mut self, r: &mut Reader<'a>, token: Token) -> Result<(), Error> {
        match token {
            Token::Null => self.store.buf.push_str("null"),
            Token::Bool(true) => self.store.buf.push_str("true"),
            Token::Bool(false) => self.store.buf.push_str("false"),
            Token::String => match r.str_or_decode(&mut self.store.scratch)? {
                Some(text) => write_string(&mut self.store.buf, text),
                None => {
                    write_string(&mut self.store.buf, &self.store.scratch);
                    self.store.scratch.clear();
                }
            },
            Token::Number => {
                // Text already in canonical form is copied as it stands.
                let (text, is_float) = r.number_text();
                if !is_float && canonical_integer(text) {
                    self.store.buf.push_str(text);
                } else {
                    match serde_json::number_value(text, is_float)? {
                        Number::Float(f) if f.is_finite() && canonical_float(text, f) => {
                            self.store.buf.push_str(text);
                        }
                        n => write_number(&mut self.store.buf, n),
                    }
                }
            }
            Token::Array => {
                self.store.buf.push('[');
                if r.has_item() {
                    loop {
                        let token = r.token()?;
                        self.value(r, token)?;
                        if !r.next_item()? {
                            break;
                        }
                        self.store.buf.push(',');
                    }
                }
                self.store.buf.push(']');
            }
            Token::Object => self.object(r)?,
        }
        Ok(())
    }

    fn object(&mut self, r: &mut Reader<'a>) -> Result<(), Error> {
        self.store.buf.push('{');
        if !r.has_member() {
            self.store.buf.push('}');
            return Ok(());
        }
        // The piece that ends with `{`: the first member links after it.
        let open = self.tail;
        let base = self.members.len();
        let keys_base = self.store.keys.len();
        loop {
            // Each member starts a piece of its own, so it can move.
            let before = self.tail;
            self.close();
            self.open_after(Some(before));
            let comma = self.members.len() > base;
            if comma {
                self.members.last_mut().expect("a member precedes").tail = before;
                self.store.buf.push(',');
            }
            let head = self.tail;
            let start = self.store.keys.len();
            let key = match r.key_or_decode(&mut self.store.keys)? {
                Some(text) => {
                    write_string(&mut self.store.buf, text);
                    Key::Raw(text)
                }
                None => {
                    write_string(&mut self.store.buf, &self.store.keys[start..]);
                    Key::Decoded(start, self.store.keys.len())
                }
            };
            self.store.buf.push(':');
            let token = r.token()?;
            self.value(r, token)?;
            self.members.push(Member {
                key,
                head,
                tail: usize::MAX,
                comma,
            });
            if !r.next_member()? {
                break;
            }
        }
        self.members.last_mut().expect("a member was read").tail = self.tail;
        if let Some(last) = self.relink(open, base) {
            self.open_after(Some(last));
        }
        self.members.truncate(base);
        self.store.keys.truncate(keys_base);
        self.store.buf.push('}');
        Ok(())
    }

    /// Links the members of the object above `base` after piece `open`
    /// in ascending key order, each key once with its last value, and
    /// returns the last piece linked; `None` when the text already had
    /// them so.
    fn relink(&mut self, open: usize, base: usize) -> Option<usize> {
        let keys = self.store.keys.as_str();
        let members = &mut self.members[base..];
        if members
            .windows(2)
            .all(|w| w[0].key.text(keys) < w[1].key.text(keys))
        {
            return None;
        }
        let pieces = &mut self.store.pieces;
        pieces[self.tail].end = self.store.buf.len();
        // Any `,` of this object serves as the separator.
        let comma_at = pieces[members[1].head].start;
        // A stable sort keeps each run of equal keys in text order, so
        // the last member of a run holds the value that counts.
        members.sort_by(|a, b| a.key.text(keys).cmp(b.key.text(keys)));
        let mut last = open;
        for (i, m) in members.iter().enumerate() {
            if members
                .get(i + 1)
                .is_some_and(|n| n.key.text(keys) == m.key.text(keys))
            {
                continue;
            }
            if last != open {
                pieces[last].next = pieces.len();
                last = pieces.len();
                pieces.push(Piece {
                    start: comma_at,
                    end: comma_at + 1,
                    next: usize::MAX,
                });
            }
            if m.comma {
                pieces[m.head].start += 1;
            }
            pieces[last].next = m.head;
            last = m.tail;
        }
        Some(last)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` from the standard offset basis — the
/// record checksum of the crash-safe job journal ([`crate::journal`]).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The 128-bit content hash of a canonical key: two independent 64-bit
/// FNV-1a lanes (distinct seeds), computed in one pass. It is the
/// address of the key's record in both tiers of the schedule store
/// ([`crate::store`]), whose packed index records the lanes as they
/// are, and its 32-hex rendering (`Display`) is the job id, which
/// [`ContentHash::parse`] reads back without the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub(crate) u64, pub(crate) u64);

impl ContentHash {
    /// Hashes `canonical`.
    #[must_use]
    pub fn of(canonical: &str) -> ContentHash {
        // One loop, two independent multiply chains: the CPU overlaps
        // them, so both lanes cost about what one did.
        let (mut a, mut b) = (FNV_OFFSET, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
        for &byte in canonical.as_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        ContentHash(a, b)
    }

    /// Reads a job id back: `None` unless `id` is 32 lowercase hex
    /// digits, the one spelling `Display` writes.
    #[must_use]
    pub fn parse(id: &str) -> Option<ContentHash> {
        if id.len() != 32 || !id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let lane = |hex: &str| u64::from_str_radix(hex, 16).ok();
        Some(ContentHash(lane(&id[..16])?, lane(&id[16..])?))
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// The job id of a canonical string: its [`ContentHash`] in 32 hex
/// digits. Both store tiers compare the full canonical key on every
/// keyed hit, so for schedule requests a hash collision can at worst
/// alias two job-status URLs, never serve one request's schedule for
/// another. Delta keys embed their prior's content hash instead of its
/// canonical string, so a collision between two priors does make their
/// delta requests share cached answers.
#[must_use]
pub fn content_hash(canonical: &str) -> String {
    ContentHash::of(canonical).to_string()
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

    /// What the text writer renders for `text`, or `None` where the
    /// reader stops.
    fn from_text(text: &str) -> Option<String> {
        let mut r = Reader::new(text);
        let mut w = TextCanonical::new(TextBuffers::default());
        r.skip_ws();
        let token = r.token().ok()?;
        let chain = w.chain(&mut r, token).ok()?;
        r.finish().ok()?;
        let mut out = String::new();
        w.write(chain, &mut out);
        Some(out)
    }

    #[test]
    fn text_writer_matches_the_tree_walk() {
        for text in [
            r#"{"b":1,"a":{"d":[3,{"z":1,"y":2}],"c":null},"b":2}"#,
            r#"{"\"":1,"A":2,"\\":3,"\u0001":4,"\t":5,"a\u0000":6}"#,
            r#"[{"k":{"k":{"k":1,"k":2},"j":0},"a":[]},{},[],"x\/\u00e9"]"#,
            r#"[1.50,1e2,-0,007,-0.0,98765432109876543210,-9223372036854775809]"#,
            r#"[0.1,0.30000000000000004,462.4612120935504,5e-324,1e21,-1.5]"#,
            r#" { "z" : [ true , false ] , "y" : "" } "#,
        ] {
            assert_eq!(from_text(text), Some(canon(text)), "{text}");
        }
        for bad in [
            r#"{"a":1,}"#,
            "[1 2]",
            r#"{"a"}"#,
            "-",
            "1e",
            r#""\x""#,
            "[1]x",
        ] {
            assert_eq!(from_text(bad), None, "{bad}");
        }
    }

    #[test]
    fn integer_spellings_copy_only_when_canonical() {
        for (text, canonical) in [
            ("0", true),
            ("7", true),
            ("-7", true),
            ("18446744073709551615", true),
            ("18446744073709551616", false),
            ("-9223372036854775808", true),
            ("-9223372036854775809", false),
            ("-0", false),
            ("007", false),
            ("-", false),
        ] {
            assert_eq!(canonical_integer(text), canonical, "{text}");
        }
    }

    #[test]
    fn float_spellings_copy_only_when_canonical() {
        let printed = |f: f64| {
            let mut out = String::new();
            write_number(&mut out, Number::Float(f));
            out
        };
        // splitmix64 draws: arbitrary bit patterns, graph-like energies
        // and short decimals, printed and then respelled around their
        // last digit.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut copied = 0;
        for i in 0..30_000 {
            let f = match i % 3 {
                0 => f64::from_bits(next()),
                1 => 100.0 + (next() >> 11) as f64 / (1u64 << 53) as f64 * 500.0,
                _ => (next() % 10_000_000) as f64 / 1000.0,
            };
            if !f.is_finite() {
                continue;
            }
            let text = printed(f);
            copied += usize::from(canonical_float(&text, f));
            let mut spellings = vec![format!("{text}0"), format!("{text}1")];
            if let Some(head) = text.strip_suffix(|c: char| c.is_ascii_digit()) {
                spellings.extend(('0'..='9').map(|d| format!("{head}{d}")));
            }
            for spelled in spellings {
                let g: f64 = spelled.parse().expect("parses");
                if canonical_float(&spelled, g) {
                    assert_eq!(printed(g), spelled);
                }
            }
        }
        // Most printed floats are recognized (the rest are formatted).
        assert!(copied > 15_000, "{copied}");
        for zero in ["0.0", "-0.0"] {
            assert!(canonical_float(zero, zero.parse().expect("parses")));
        }
    }

    #[test]
    fn hash_is_stable_and_hex() {
        let h = content_hash("hello");
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h, content_hash("hello"));
        assert_ne!(h, content_hash("hello!"));
        assert_eq!(ContentHash::parse(&h), Some(ContentHash::of("hello")));
        for bad in [&h[1..], &h.to_uppercase(), &format!("+{}", &h[1..])] {
            assert_eq!(ContentHash::parse(bad), None, "{bad}");
        }
    }
}
