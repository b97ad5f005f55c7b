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
//! output every stored key was written in, and the pass that keys a
//! request body from its text to the decode it stands in for.

use proptest::prelude::*;

use noc_svc::api::{DeltaRequest, ScheduleKey, ScheduleRequest};
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
            mode: None,
            stats: None,
        };
        prop_assert_eq!(
            delta.canonical_key(&request),
            reference::delta_key(&edits, content_hash(&key))
        );
    }
}

/// Keys whose escaped spelling sorts apart from their decoded text:
/// `"` (0x22) and `\` (0x5c) escape to a leading `\`, and control
/// characters to `\u00..` or `\n`.
const SORT_TRAPS: [&str; 8] = ["\"", "\\", "\u{1}", "\n", "A", "a", "]", "\u{1f}x"];

fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, g.below(i as u64 + 1) as usize);
    }
}

/// Whitespace, mostly none.
fn ws(g: &mut Gen, out: &mut String) {
    if g.below(4) == 0 {
        for _ in 0..=g.below(3) {
            out.push([' ', '\t', '\n', '\r'][g.below(4) as usize]);
        }
    }
}

/// `s` as a JSON string, each character spelled raw or escaped at
/// random (a quote and a backslash always escaped).
fn spell_string(g: &mut Gen, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let escape = matches!(c, '"' | '\\') || g.below(4) == 0;
        match c {
            _ if !escape => out.push(c),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if g.below(2) == 0 => out.push_str("\\/"),
            '\n' if g.below(2) == 0 => out.push_str("\\n"),
            '\t' if g.below(2) == 0 => out.push_str("\\t"),
            '\u{8}' if g.below(2) == 0 => out.push_str("\\b"),
            '\u{c}' if g.below(2) == 0 => out.push_str("\\f"),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out.push('"');
}

/// `n` in one of the spellings that parse back to a number.
fn spell_number(g: &mut Gen, n: Number, out: &mut String) {
    let text = serde_json::to_string(&Value::Number(n)).expect("prints");
    out.push_str(&match (n, g.below(6)) {
        (_, 0..=2) => text,
        (Number::Float(f), 3) => format!("{f:e}"),
        (Number::Float(_), 4) if text.contains('.') => format!("{text}0"),
        (Number::Float(f), _) => format!("{f:E}"),
        (_, 3) => format!("{text}.0"),
        (_, 4) => {
            // A leading zero: `007`, `-00`.
            let at = text.find(|c: char| c.is_ascii_digit()).unwrap_or(0);
            format!("{}0{}", &text[..at], &text[at..])
        }
        (_, _) => format!("{text}e0"),
    });
}

/// `members` as a JSON object, in shuffled order, some preceded by a
/// decoy member of the same key and another value.
fn spell_members(g: &mut Gen, members: &[(String, Value)], out: &mut String) {
    let mut order: Vec<(&str, Option<&Value>)> =
        members.iter().map(|(k, v)| (k.as_str(), Some(v))).collect();
    shuffle(g, &mut order);
    for i in (0..order.len()).rev() {
        if g.below(5) == 0 {
            let at = g.below(i as u64 + 1) as usize;
            order.insert(at, (order[i].0, None));
        }
    }
    out.push('{');
    for (i, (key, value)) in order.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ws(g, out);
        spell_string(g, key, out);
        ws(g, out);
        out.push(':');
        match value {
            Some(v) => spell(g, v, out),
            None => {
                let decoy = random_value(g, 1);
                spell(g, &decoy, out);
            }
        }
    }
    ws(g, out);
    out.push('}');
}

/// `v` in one of its many spellings.
fn spell(g: &mut Gen, v: &Value, out: &mut String) {
    ws(g, out);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => spell_number(g, *n, out),
        Value::String(s) => spell_string(g, s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spell(g, item, out);
            }
            ws(g, out);
            out.push(']');
        }
        Value::Object(m) => {
            let mut members: Vec<(String, Value)> =
                m.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            if g.below(2) == 0 {
                let trap = SORT_TRAPS[g.below(SORT_TRAPS.len() as u64) as usize];
                members.push((trap.to_owned(), random_value(g, 1)));
            }
            spell_members(g, &members, out);
        }
    }
    ws(g, out);
}

/// A value that is neither a string nor `null` (nor a bool when
/// `bool_ok`): what a type-perturbed member holds.
fn wrong_type(g: &mut Gen, bool_ok: bool) -> Value {
    loop {
        let v = random_value(g, 2);
        match v {
            Value::Null | Value::String(_) => {}
            Value::Bool(_) if bool_ok => {}
            v => return v,
        }
    }
}

/// A `POST /v1/schedule` body: a request spelled at random, sometimes
/// with a member of the wrong type, a member missing, a bad number,
/// nesting past the parser's bound, or cut short.
fn schedule_body() -> impl Strategy<Value = String> {
    (0u64..u64::MAX).prop_map(|seed| {
        let g = &mut Gen(seed);
        let mut graph = random_value(g, 4);
        if g.below(4) != 0 {
            // Most graphs are objects holding a sort trap.
            let mut m = Map::new();
            m.insert(SORT_TRAPS[g.below(8) as usize], graph);
            m.insert(random_string(g), random_value(g, 2));
            graph = Value::Object(m);
        }
        let text = |g: &mut Gen| match g.below(3) {
            0 => Value::String(
                ["eas", "edf", "async", "sync", "mesh:2x2"][g.below(5) as usize].to_owned(),
            ),
            1 => Value::String(random_string(g)),
            _ => Value::Null,
        };
        let mut members = vec![
            ("graph".to_owned(), graph),
            ("platform".to_owned(), Value::String(random_string(g))),
        ];
        for name in ["scheduler", "faults", "mode"] {
            if g.below(2) == 0 {
                members.push((name.to_owned(), text(g)));
            }
        }
        if g.below(2) == 0 {
            let stats =
                [Value::Bool(true), Value::Bool(false), Value::Null][g.below(3) as usize].clone();
            members.push(("stats".to_owned(), stats));
        }
        if g.below(3) == 0 {
            members.push((random_string(g), random_value(g, 2)));
        }
        match g.below(12) {
            0 => members[1].1 = wrong_type(g, true),
            1 => members.push(("stats".to_owned(), Value::String(random_string(g)))),
            2 => members.push(("mode".to_owned(), Value::Array(vec![text(g)]))),
            3 => members.push((
                ["scheduler", "faults", "mode"][g.below(3) as usize].to_owned(),
                wrong_type(g, false),
            )),
            4 => {
                members.remove(g.below(2) as usize);
            }
            _ => {}
        }
        let mut body = String::new();
        match g.below(16) {
            0 => spell(
                g,
                &Value::Array(vec![Value::Object(members.into_iter().collect())]),
                &mut body,
            ),
            1 => {
                // Nested 120 to 136 levels, across the bound of 128.
                let depth = 120 + g.below(17) as usize;
                members[0].1 = Value::Null;
                spell_members(g, &members, &mut body);
                let nested = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
                body = body.replacen("null", &nested, 1);
            }
            2 => {
                spell_members(g, &members, &mut body);
                let at = (0..body.len())
                    .filter(|&i| body.is_char_boundary(i))
                    .nth(g.below(body.len() as u64) as usize)
                    .unwrap_or(0);
                body.truncate(at);
            }
            3 => {
                spell_members(g, &members, &mut body);
                let bad = [
                    "-",
                    "1e",
                    "01.e",
                    "--1",
                    "1.2.3",
                    ".5",
                    "\"\\x\"",
                    "\"\\ud800\"",
                ][g.below(8) as usize];
                body = body.replacen(':', &format!(":{bad},\"pad\":"), 1);
            }
            _ => spell_members(g, &members, &mut body),
        }
        ws(g, &mut body);
        body
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_one_pass_key_agrees_with_the_decode(body in schedule_body()) {
        let decoded = serde_json::from_str::<ScheduleRequest>(&body);
        let scan = ScheduleKey::scan(&body);
        prop_assert_eq!(scan.is_some(), decoded.is_ok(), "{}: {:?}", body, decoded.err());
        if let (Some(scan), Ok(request)) = (scan, decoded) {
            prop_assert_eq!(scan.key, request.canonical_key(), "{}", body);
            prop_assert_eq!(scan.presentation.is_async, request.is_async(), "{}", body);
            prop_assert_eq!(scan.presentation.wants_stats, request.wants_stats(), "{}", body);
        }
    }
}
