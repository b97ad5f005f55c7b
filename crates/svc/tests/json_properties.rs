//! Round-trip properties of the vendored JSON printer and parser, and
//! of the canonical key writer.
//!
//! Every request body, journal record and cluster record envelope the
//! service reads goes through `serde_json::from_str`, and the cache key
//! is `hash::canonical_string` of what it returns. These properties pin
//! that printing a random value tree and parsing it back gives the same
//! tree and the same canonical key — with strings drawn from the code
//! points a string scan must get right: quotes, backslashes, control
//! characters, multi-byte and non-BMP characters. They also pin the
//! one-pass key writer to [`reference`], the plain renderer whose
//! output every stored key was written in.

use proptest::prelude::*;

use noc_svc::api::{DeltaRequest, ScheduleRequest};
use noc_svc::hash::{canonical_string, content_hash};
use serde::{Map, Number, Value};

/// splitmix64: a tiny deterministic generator, so one sampled seed
/// expands into a whole tree.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Code points a JSON string scan must handle: everything the printer
/// escapes, the escape characters themselves, and 2-, 3- and 4-byte
/// UTF-8 scalars.
const TRICKY: [char; 20] = [
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'a',
    ' ',
    'é',
    '€',
    '\u{ffff}',
    '\u{10000}',
    '😀',
    '\u{10ffff}',
];

fn random_char(g: &mut Gen) -> char {
    if g.below(2) == 0 {
        return TRICKY[g.below(TRICKY.len() as u64) as usize];
    }
    // Any scalar value; surrogate code points are not chars.
    loop {
        if let Some(c) = char::from_u32(g.below(0x11_0000) as u32) {
            return c;
        }
    }
}

fn random_string(g: &mut Gen) -> String {
    let len = g.below(12);
    (0..len).map(|_| random_char(g)).collect()
}

fn random_number(g: &mut Gen) -> Number {
    match g.below(4) {
        0 => Number::PosInt(g.next() >> g.below(64)),
        1 => Number::NegInt(-1 - ((g.next() >> 1) >> g.below(63)) as i64),
        // Short decimals and whole floats, like a graph's energies.
        2 => Number::Float(
            (g.below(1 << 24) as f64 - 8e6) / [1.0, 10.0, 1000.0][g.below(3) as usize],
        ),
        _ => loop {
            // Finite floats only: JSON has no NaN or infinity.
            let f = f64::from_bits(g.next());
            if f.is_finite() {
                return Number::Float(f);
            }
        },
    }
}

fn random_value(g: &mut Gen, depth: u32) -> Value {
    // Below the depth cap, half the values are containers.
    let kinds = if depth == 0 { 4 } else { 8 };
    match g.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(g.below(2) == 1),
        2 => Value::Number(random_number(g)),
        3 => Value::String(random_string(g)),
        4 | 5 => Value::Array(
            (0..g.below(5))
                .map(|_| random_value(g, depth - 1))
                .collect(),
        ),
        _ => {
            let mut m = Map::new();
            for _ in 0..g.below(5) {
                m.insert(random_string(g), random_value(g, depth - 1));
            }
            Value::Object(m)
        }
    }
}

fn value_tree() -> impl Strategy<Value = Value> {
    (0u64..u64::MAX).prop_map(|seed| random_value(&mut Gen(seed), 4))
}

/// The plain canonical renderer: a `Vec` sorted per object and one
/// `to_string` per number. Keys written before the one-pass writer
/// were rendered this way, so the writer must match it byte for byte.
mod reference {
    use serde::{Map, Number, Value};

    pub fn canonical(v: &Value) -> String {
        let mut out = String::new();
        write(&mut out, v);
        out
    }

    /// The schedule-request key: the four semantic members in a `Map`.
    pub fn schedule_key(r: &noc_svc::api::ScheduleRequest) -> String {
        let mut m = Map::new();
        m.insert("graph", r.graph.clone());
        m.insert("platform", Value::String(r.platform.clone()));
        m.insert("scheduler", Value::String(r.scheduler_name().to_owned()));
        m.insert(
            "faults",
            r.faults.clone().map_or(Value::Null, Value::String),
        );
        canonical(&Value::Object(m))
    }

    /// The delta key: the prior's content hash and the edits.
    pub fn delta_key(edits: &Value, prior_hash: String) -> String {
        let mut m = Map::new();
        m.insert("delta_of", Value::String(prior_hash));
        m.insert("edits", edits.clone());
        canonical(&Value::Object(m))
    }

    fn write(out: &mut String, v: &Value) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => number(out, *n),
            Value::String(s) => string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(out, item);
                }
                out.push(']');
            }
            Value::Object(m) => {
                let mut entries: Vec<(&String, &Value)> = m.iter().collect();
                entries.sort_by(|a, b| a.0.cmp(b.0));
                out.push('{');
                for (i, (k, item)) in entries.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(out, k);
                    out.push(':');
                    write(out, item);
                }
                out.push('}');
            }
        }
    }

    fn number(out: &mut String, n: Number) {
        match n {
            Number::PosInt(u) => out.push_str(&u.to_string()),
            Number::NegInt(i) => out.push_str(&i.to_string()),
            Number::Float(f) if f.is_finite() => {
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Number::Float(_) => out.push_str("null"),
        }
    }

    fn string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// A schedule request with a random graph tree, platform string and
/// optional `faults` and `scheduler`, plus random edits for a delta on
/// top of it.
fn request() -> impl Strategy<Value = (ScheduleRequest, Value)> {
    (0u64..u64::MAX).prop_map(|seed| {
        let g = &mut Gen(seed);
        let maybe = |g: &mut Gen| (g.below(2) == 0).then(|| random_string(g));
        let request = ScheduleRequest {
            graph: random_value(g, 4),
            platform: random_string(g),
            scheduler: maybe(g),
            faults: maybe(g),
            threads: None,
            mode: None,
            stats: None,
        };
        (request, random_value(g, 3))
    })
}

proptest! {
    #[test]
    fn printed_values_parse_back_identically(v in value_tree()) {
        let text = serde_json::to_string(&v).expect("prints");
        let back: Value = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(canonical_string(&back), canonical_string(&v));
        let pretty = serde_json::to_string_pretty(&v).expect("prints");
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty).expect("parses"), v);
    }

    #[test]
    fn documents_embedded_as_strings_round_trip(v in value_tree()) {
        // The shape of journal records and record envelopes: a whole
        // JSON document carried as one string field.
        let inner = serde_json::to_string(&v).expect("prints");
        let mut record = Map::new();
        record.insert("body", Value::String(inner.clone()));
        let outer = serde_json::to_string(&Value::Object(record)).expect("prints");
        let back: Value = serde_json::from_str(&outer).expect("parses");
        let body = back
            .as_object()
            .and_then(|m| m.get("body"))
            .and_then(Value::as_str)
            .expect("body string");
        prop_assert_eq!(body, inner.as_str());
        prop_assert_eq!(serde_json::from_str::<Value>(body).expect("parses"), v);
    }
}

proptest! {
    #[test]
    fn canonical_string_matches_the_reference(v in value_tree()) {
        prop_assert_eq!(canonical_string(&v), reference::canonical(&v));
    }

    #[test]
    fn request_keys_match_the_reference((request, edits) in request()) {
        let key = request.canonical_key();
        prop_assert_eq!(&key, &reference::schedule_key(&request));
        let delta = DeltaRequest {
            prior: Value::Null,
            edits: edits.clone(),
            threads: None,
            mode: None,
            stats: None,
        };
        prop_assert_eq!(
            delta.canonical_key(&request),
            reference::delta_key(&edits, content_hash(&key))
        );
    }
}
