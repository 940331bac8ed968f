//! Seeded property tests: `TelemetrySnapshot` survives a JSON round-trip
//! through both native writers and a Prometheus round-trip, random
//! documents survive both JSON writers, and the JSON
//! and Prometheus parsers answer arbitrary (mutated or random) input
//! with `Ok` or an error, never a panic. Each property runs over seeds
//! `0..CASES`; a failure names its seed.

use nsflow_telemetry::{
    prom, HistogramSnapshot, JsonValue, SpanSnapshot, TelemetrySnapshot, BUCKETS,
};
use nsflow_tensor::rng::StdRng;
use std::collections::BTreeMap;

/// Cases per property.
const CASES: u64 = 256;

/// Alphabet for metric names; exercises JSON escaping (quote,
/// backslash, control char) and non-ASCII, not just identifiers.
const NAME_CHARS: [char; 10] = ['a', 'z', '.', '_', '0', '"', '\\', '\n', '\t', '\u{1f600}'];

fn name(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1..12))
        .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())])
        .collect()
}

/// Alphabet for document keys and string values: every escape the
/// writer emits (`\u0001`, `\u001f` included) and one-, two-, three- and
/// four-byte UTF-8.
const TEXT_CHARS: [char; 14] = [
    'a',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '日',
    '\u{1f600}',
];

fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..10))
        .map(|_| TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())])
        .collect()
}

/// A random document up to `depth` containers deep. Arrays of small
/// integers are sized so their compact form lands within a few bytes
/// of the pretty writer's 72-byte inline limit.
fn document(rng: &mut StdRng, depth: u32) -> JsonValue {
    // At depth 0 only leaves and flat arrays (arms 0..=7).
    match rng.gen_range(0..if depth == 0 { 8u32 } else { 10 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen()),
        2 => JsonValue::UInt(any_u64(rng)),
        // The Int lane holds negatives; non-negatives parse as UInt.
        3 => JsonValue::Int(rng.gen_range(i64::MIN..0)),
        // Fractional floats well below the 1e15 integral cut-over.
        4 => JsonValue::Float(rng.gen::<f64>() * 1e6 - 5e5),
        5 | 6 => JsonValue::Str(text(rng)),
        7 => {
            // `n` single digits render as `2n + 1` bytes: 34..=37 items
            // straddle 72.
            let n = rng.gen_range(34..38usize);
            let widen = rng.gen_range(0..3usize);
            let mut items: Vec<JsonValue> = (0..n)
                .map(|_| JsonValue::UInt(rng.gen_range(0..10)))
                .collect();
            for item in items.iter_mut().take(widen) {
                *item = JsonValue::UInt(rng.gen_range(10..100));
            }
            JsonValue::Array(items)
        }
        8 => JsonValue::Array(
            (0..rng.gen_range(0..5))
                .map(|_| document(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.gen_range(0..5))
                .map(|_| (text(rng).into(), document(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Full-range u64 with an explicit shot at `u64::MAX`.
fn any_u64(rng: &mut StdRng) -> u64 {
    let v = rng.gen_range(0..u64::MAX);
    if rng.gen_range(0..16u32) == 0 {
        u64::MAX
    } else {
        v
    }
}

fn any_i64(rng: &mut StdRng) -> i64 {
    let v = rng.gen_range(i64::MIN..i64::MAX);
    if rng.gen_range(0..16u32) == 0 {
        i64::MAX
    } else {
        v
    }
}

fn histogram(rng: &mut StdRng) -> HistogramSnapshot {
    let (count, sum, min, max) = (any_u64(rng), any_u64(rng), any_u64(rng), any_u64(rng));
    let buckets: BTreeMap<u8, u64> = (0..rng.gen_range(0..6))
        .map(|_| (rng.gen_range(0..BUCKETS) as u8, any_u64(rng)))
        .collect();
    HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets: buckets.into_iter().collect(),
    }
}

fn span(rng: &mut StdRng) -> SpanSnapshot {
    SpanSnapshot {
        count: any_u64(rng),
        total_ns: any_u64(rng),
        max_ns: any_u64(rng),
    }
}

fn snapshot(rng: &mut StdRng) -> TelemetrySnapshot {
    let counters = (0..rng.gen_range(0..8))
        .map(|_| (name(rng), any_u64(rng)))
        .collect();
    let gauges = (0..rng.gen_range(0..8))
        .map(|_| (name(rng), any_i64(rng)))
        .collect();
    let histograms = (0..rng.gen_range(0..4))
        .map(|_| (name(rng), histogram(rng)))
        .collect();
    let spans = (0..rng.gen_range(0..4))
        .map(|_| (name(rng), span(rng)))
        .collect();
    TelemetrySnapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

/// `text` with a few random character edits: deletions, insertions from
/// `alphabet`, swaps, or a truncation.
fn mutate(rng: &mut StdRng, text: &str, alphabet: &[char]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=chars.len());
        match rng.gen_range(0..4) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => chars.insert(at, alphabet[rng.gen_range(0..alphabet.len())]),
            2 if at + 1 < chars.len() => chars.swap(at, at + 1),
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

const JSON_CHARS: [char; 20] = [
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'd', '8', '0', '-', '.', 'e', '+', ' ', 't', 'n',
    '\u{e9}',
];

#[test]
fn snapshots_round_trip_through_both_json_writers() {
    for seed in 0..CASES {
        let snapshot = snapshot(&mut StdRng::seed_from_u64(seed));
        for text in [
            snapshot.to_json_value().render_compact(),
            snapshot.to_json(),
        ] {
            assert_eq!(
                TelemetrySnapshot::from_json(&text).unwrap(),
                snapshot,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn json_documents_round_trip_through_parser() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        for value in [snapshot(rng).to_json_value(), document(rng, 4)] {
            let compact = JsonValue::parse(&value.render_compact());
            assert_eq!(compact.as_ref(), Ok(&value), "seed {seed}");
            let pretty = JsonValue::parse(&value.render_pretty());
            assert_eq!(pretty.as_ref(), Ok(&value), "seed {seed}");
        }
    }
}

#[test]
fn mutated_json_never_panics_the_parser() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let text = snapshot(rng).to_json_value().render_compact();
        let mutated = mutate(rng, &text, &JSON_CHARS);
        // Ok or a JsonError — reaching the next line is the property.
        let _ = JsonValue::parse(&mutated);
        let _ = TelemetrySnapshot::from_json(&mutated);
    }
}

#[test]
fn random_json_text_never_panics_the_parser() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let text: String = (0..rng.gen_range(0..64))
            .map(|_| JSON_CHARS[rng.gen_range(0..JSON_CHARS.len())])
            .collect();
        let _ = JsonValue::parse(&text);
    }
}

#[test]
fn prometheus_exposition_round_trips() {
    for seed in 0..CASES {
        let mut snapshot = snapshot(&mut StdRng::seed_from_u64(seed));
        // The exposition is line-based and quotes the dotted name
        // verbatim, so it carries only names without line breaks.
        let one_line = |n: &String| !n.contains('\n');
        snapshot.counters.retain(|n, _| one_line(n));
        snapshot.gauges.retain(|n, _| one_line(n));
        snapshot.histograms.retain(|n, _| one_line(n));
        snapshot.spans.retain(|n, _| one_line(n));
        assert_eq!(
            prom::parse(&prom::render(&snapshot)),
            Ok(snapshot),
            "seed {seed}"
        );
    }
}

#[test]
fn mutated_prometheus_text_never_panics_the_parser() {
    const PROM_CHARS: [char; 12] = [
        '#', ' ', '"', '{', '}', '=', '\n', '_', '9', '-', 'x', '\u{e9}',
    ];
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let text = prom::render(&snapshot(rng));
        let mut lines: Vec<&str> = text.lines().collect();
        if !lines.is_empty() && rng.gen::<bool>() {
            // Drop or duplicate a whole line: incomplete families.
            let at = rng.gen_range(0..lines.len());
            if rng.gen::<bool>() {
                lines.remove(at);
            } else {
                lines.insert(at, lines[at]);
            }
        }
        let mutated = mutate(rng, &lines.join("\n"), &PROM_CHARS);
        // Ok or an error on a line of the text, or one past its end for
        // a family cut short by it.
        if let Err(err) = prom::parse(&mutated) {
            let lines = mutated.lines().count();
            assert!((1..=lines + 1).contains(&err.line()), "seed {seed}: {err}");
        }
    }
}
