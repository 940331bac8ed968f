//! The one Chrome Trace Event Format writer of the workspace.
//!
//! [`ChromeTrace`] owns the format of a Perfetto / `chrome://tracing`
//! document: the `M` events naming the process and its tracks, the
//! timed `X` (slice), `i` (instant) and `C` (counter) events, their
//! order, and the `displayTimeUnit`/`metadata`/`traceEvents` envelope.
//! The simulator's schedule timeline and the serving flight recorder's
//! timeline are both built with it. [`step_levels`] is the change-point
//! sweep behind every counter series.
//!
//! It is a text builder: each event is rendered to text the moment it
//! is added, as a fragment of one text arena with its sort key, and no
//! [`JsonValue`] is built per event. Every event is filled in from the
//! template of its shape: its phase, its category, its argument keys
//! and whether it has `args` at all. The first event of a shape renders
//! the template with [`JsonValue`]'s pretty writer at its depth in the
//! document, with a placeholder in every hole (`tid`, `name`, `ts`,
//! `dur` and the values of `args`, those of them the phase has); each
//! event copies that text with its own values in the holes. An event's
//! `tid` is spliced in only when the document is written, so a slice
//! that covers several tracks writes its body once and each track's
//! fragment points at it with its own `tid`.
//! [`ChromeTrace::finish`] sorts the fragments and
//! [`ChromeDocument::render_pretty`] writes them into the envelope in one
//! pass, at exact capacity, splicing in each event's `tid`. The bytes are
//! the same as rendering the whole document as one [`JsonValue`] tree.
//!
//! Every event belongs to process 0. Timed events are written sorted
//! stably by `(ts, order)`, where `order` is the caller's explicit
//! tiebreak; counter events take `u64::MAX`, so at equal `ts` they
//! follow every other event. The same calls always render to the same
//! bytes.

use std::ops::Range;

use crate::json::{decimal_len, escape_into, write_pretty_uints, write_u64, JsonValue};

/// Sort key of every counter event: after any other event at its `ts`.
const COUNTER_ORDER: u64 = u64::MAX;

/// Pretty-printing depth of an event: an item of the envelope's
/// `traceEvents` array.
const EVENT_LEVEL: usize = 2;

/// An event rendered once with a one-digit placeholder in each hole.
#[derive(Debug, Clone)]
struct Template {
    /// The rendered event.
    text: String,
    /// Byte offsets of the placeholders in `text`, in order.
    holes: Vec<usize>,
}

impl Template {
    /// Renders `event(0)` and `event(1)` at [`EVENT_LEVEL`]: they differ
    /// exactly at the holes, the fields set to the given value. The
    /// bytes around a value do not depend on it, so a hole can take a
    /// value of any type.
    fn new(event: impl Fn(u64) -> JsonValue) -> Self {
        let render = |value| {
            let mut text = String::new();
            event(value).write_pretty(&mut text, EVENT_LEVEL);
            text
        };
        let text = render(0);
        let holes = (text.bytes().zip(render(1).bytes()).enumerate())
            .filter_map(|(i, (zero, one))| (zero != one).then_some(i))
            .collect();
        Template { text, holes }
    }

    /// Appends the event to `out` with `values` in its holes, in order.
    fn fill<'a>(&self, out: &mut String, values: impl IntoIterator<Item = Arg<'a>>) {
        let mut from = 0;
        for (&hole, value) in self.holes.iter().zip(values) {
            out.push_str(&self.text[from..hole]);
            match value {
                Arg::UInt(v) => write_u64(out, v),
                Arg::Str(s) => escape_into(out, s),
                // An array is an entry of `args`.
                Arg::UInts(items) => write_pretty_uints(out, items, EVENT_LEVEL + 2),
            }
            from = hole + 1;
        }
        out.push_str(&self.text[from..]);
    }
}

/// The value of one event argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg<'a> {
    /// A non-negative integer.
    UInt(u64),
    /// A string.
    Str(&'a str),
    /// An array of non-negative integers.
    UInts(&'a [u64]),
}

/// One rendered event: its bytes in the arena and its sort key.
#[derive(Debug, Clone)]
struct Fragment {
    /// `(ts, order)`; `None` for a track (`M`) event, which sorts
    /// before every timed event.
    key: Option<(u64, u64)>,
    /// The event's text in the arena: for a slice, the body shared by
    /// every track it covers.
    text: Range<usize>,
    /// The event's track, if it has one: the arena offset of the body's
    /// one-digit `tid` placeholder, and the `tid` written in its place.
    tid: Option<(usize, u64)>,
}

impl Fragment {
    /// Length of the event as written out.
    fn len(&self) -> usize {
        match self.tid {
            Some((_, tid)) => self.text.len() - 1 + decimal_len(tid),
            None => self.text.len(),
        }
    }

    /// Appends the event to `out`, with its `tid` spliced in.
    fn write(&self, arena: &str, out: &mut String) {
        match self.tid {
            Some((at, tid)) => {
                out.push_str(&arena[self.text.start..at]);
                write_u64(out, tid);
                out.push_str(&arena[at + 1..self.text.end]);
            }
            None => out.push_str(&arena[self.text.clone()]),
        }
    }
}

/// The fields shared by every event of one shape, and its template.
#[derive(Debug, Clone)]
struct Shape {
    /// The phase: `M`, `X`, `i` or `C`.
    ph: &'static str,
    /// Whether the events name a track: all but the process's `M` event
    /// and counters do.
    tid: bool,
    /// The category, which only `X` and `i` events have.
    cat: Option<String>,
    /// The keys of `args`, in order; `None` for events without `args`.
    keys: Option<Vec<&'static str>>,
    template: Template,
}

/// A Chrome Trace Event Format document under construction.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    /// Every event's pretty text, back to back, in call order.
    arena: String,
    /// The events, in call order.
    fragments: Vec<Fragment>,
    /// Every shape met so far, in first-use order.
    shapes: Vec<Shape>,
}

impl ChromeTrace {
    /// Starts a document whose process 0 is named `process`.
    #[must_use]
    pub fn new(process: &str) -> Self {
        let mut trace = ChromeTrace {
            arena: String::new(),
            fragments: Vec::new(),
            shapes: Vec::new(),
        };
        let shape = trace.shape("M", false, None, Some(["name"].into_iter()));
        let values = [Arg::Str("process_name"), Arg::Str(process)];
        trace.add(shape, values, [(None, None)]);
        trace
    }

    /// The index of the shape with these fields, its template rendered
    /// on first use. `keys` are those of `args`, `None` for no `args`.
    /// The holes are, in order: `tid` if `tid`, `name`, `ts` but for an
    /// `M` event, `dur` for an `X` event, and the value of each key.
    fn shape<K>(&mut self, ph: &'static str, tid: bool, cat: Option<&str>, keys: Option<K>) -> usize
    where
        K: Iterator<Item = &'static str> + Clone,
    {
        let args = keys.is_some();
        let keys = || keys.clone().into_iter().flatten();
        let known = self.shapes.iter().position(|s| {
            (s.ph, s.tid, s.cat.as_deref(), s.keys.is_some()) == (ph, tid, cat, args)
                && s.keys.iter().flatten().copied().eq(keys())
        });
        known.unwrap_or_else(|| {
            let template = Template::new(|value| {
                let hole = || JsonValue::UInt(value);
                let text = |s: &str| JsonValue::Str(s.into());
                let mut fields = vec![("ph", text(ph)), ("pid", JsonValue::UInt(0))];
                fields.extend(tid.then(|| ("tid", hole())));
                fields.push(("name", hole()));
                fields.extend(cat.map(|cat| ("cat", text(cat))));
                fields.extend((ph != "M").then(|| ("ts", hole())));
                fields.extend((ph == "X").then(|| ("dur", hole())));
                fields.extend((ph == "i").then(|| ("s", text("t"))));
                let entries = || keys().map(|key| (key, hole()));
                fields.extend(args.then(|| ("args", JsonValue::object(entries()))));
                JsonValue::object(fields)
            });
            self.shapes.push(Shape {
                ph,
                tid,
                cat: cat.map(Into::into),
                keys: args.then(|| keys().collect()),
                template,
            });
            self.shapes.len() - 1
        })
    }

    /// Writes one event of `shape` into the arena, with `values` in its
    /// holes after `tid`, and lists it once per `(key, tid)` in `at`;
    /// each `tid` is `Some` exactly when the shape has one.
    fn add<'a>(
        &mut self,
        shape: usize,
        values: impl IntoIterator<Item = Arg<'a>>,
        at: impl IntoIterator<Item = (Option<(u64, u64)>, Option<u64>)>,
    ) {
        let Shape { tid, template, .. } = &self.shapes[shape];
        let start = self.arena.len();
        // `tid` gets a one-digit placeholder, replaced per track at
        // render; nothing before it varies.
        let tid = tid.then_some(Arg::UInt(0));
        template.fill(&mut self.arena, tid.into_iter().chain(values));
        let (text, tid_at) = (start..self.arena.len(), start + template.holes[0]);
        self.fragments
            .extend(at.into_iter().map(|(key, tid)| Fragment {
                key,
                text: text.clone(),
                tid: tid.map(|tid| (tid_at, tid)),
            }));
    }

    /// Names track (thread) `tid`. Tracks are listed in call order,
    /// before every timed event.
    pub fn track(&mut self, tid: u64, name: &str) {
        let shape = self.shape("M", true, None, Some(["name"].into_iter()));
        let values = [Arg::Str("thread_name"), Arg::Str(name)];
        self.add(shape, values, [(None, Some(tid))]);
    }

    /// Adds one duration (`X`) event covering `span` per `(order, tid)`
    /// in `tracks`: the same event on track `tid`, sorted by
    /// `(span.start, order)`. The shared body is written into the arena
    /// once and written out per track by
    /// [`ChromeDocument::render_pretty`]; the result is the same as one
    /// call per track.
    pub fn slice(
        &mut self,
        tracks: impl IntoIterator<Item = (u64, u64)>,
        name: &str,
        cat: &str,
        span: Range<u64>,
        args: &[(&'static str, Arg<'_>)],
    ) {
        let shape = self.shape("X", true, Some(cat), Some(args.iter().map(|&(key, _)| key)));
        let [ts, dur] = [span.start, span.end.saturating_sub(span.start)].map(Arg::UInt);
        let values = [Arg::Str(name), ts, dur].into_iter();
        let at = (tracks.into_iter()).map(|(order, tid)| (Some((span.start, order)), Some(tid)));
        self.add(shape, values.chain(args.iter().map(|&(_, v)| v)), at);
    }

    /// Adds a thread-scoped instant (`i`) event at `ts` on track `tid`,
    /// sorted by `(ts, order)`. Without `args` the event has no `args`
    /// key.
    pub(crate) fn instant(
        &mut self,
        order: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts: u64,
        args: Option<&[(&'static str, Arg<'_>)]>,
    ) {
        let keys = args.map(|args| args.iter().map(|&(key, _)| key));
        let shape = self.shape("i", true, Some(cat), keys);
        let values = [Arg::Str(name), Arg::UInt(ts)].into_iter();
        let args = args.into_iter().flatten().map(|&(_, v)| v);
        self.add(shape, values.chain(args), [(Some((ts, order)), Some(tid))]);
    }

    /// Adds the counter (`C`) series `name`: one event per change point
    /// of `deltas`, whose `(ts, series, delta)` entries index `series`.
    /// Each event carries every series' level after all the changes at
    /// its `ts` (negative levels clamp to 0).
    pub fn counter<const N: usize>(
        &mut self,
        name: &str,
        series: [&'static str; N],
        mut deltas: Vec<(u64, usize, i64)>,
    ) {
        let shape = self.shape("C", false, None, Some(series.into_iter()));
        for (ts, level) in step_levels::<N>(&mut deltas) {
            let levels = level.map(|l| Arg::UInt(l.max(0) as u64));
            let values = [Arg::Str(name), Arg::UInt(ts)].into_iter().chain(levels);
            self.add(shape, values, [(Some((ts, COUNTER_ORDER)), None)]);
        }
    }

    /// Finishes the document: the track events, then the timed events
    /// sorted stably by `(ts, order)`, wrapped with `metadata`.
    #[must_use]
    pub fn finish(self, metadata: JsonValue) -> ChromeDocument {
        let ChromeTrace {
            arena,
            mut fragments,
            ..
        } = self;
        // A stable sort by key, done as a stable sort by `ts` and then
        // one of each run of equal `ts`: callers add events close to `ts`
        // order, so the first meets long sorted runs and the second short
        // ones.
        let ts = |f: &Fragment| f.key.map(|(ts, _)| ts);
        fragments.sort_by_key(ts);
        for run in fragments.chunk_by_mut(|a, b| ts(a) == ts(b)) {
            run.sort_by_key(|f| f.key);
        }
        // The envelope with two empty objects for events: the writer's
        // own text before, between and after the events.
        let mut envelope = String::new();
        JsonValue::object([
            ("displayTimeUnit", JsonValue::Str("ms".into())),
            ("metadata", metadata),
            (
                "traceEvents",
                JsonValue::Array(vec![JsonValue::object([]), JsonValue::object([])]),
            ),
        ])
        .write_pretty(&mut envelope, 0);
        // `traceEvents` is the last key, so its items are the last `{}`s.
        let second = envelope.rfind("{}").expect("a placeholder event");
        let first = envelope[..second].rfind("{}").expect("a placeholder event");
        ChromeDocument {
            envelope,
            placeholders: [first, second],
            arena,
            fragments,
        }
    }
}

/// A finished Chrome Trace Event Format document: its events rendered
/// and sorted, ready to be written out by
/// [`render_pretty`](Self::render_pretty).
#[derive(Debug, Clone)]
pub struct ChromeDocument {
    /// The envelope rendered with two placeholder events, `{}`.
    envelope: String,
    /// Byte offsets of the two placeholders in `envelope`.
    placeholders: [usize; 2],
    /// The events' text, in call order; a slice's body once for all
    /// its tracks.
    arena: String,
    /// The events, in document order. Never empty: every document names
    /// its process.
    fragments: Vec<Fragment>,
}

impl ChromeDocument {
    /// The document with two-space indentation: byte for byte what
    /// [`JsonValue::render_pretty`] gives for the same document built as
    /// one tree. Written in one pass into a buffer of exactly its length.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let [first, second] = self.placeholders;
        let head = &self.envelope[..first];
        let separator = &self.envelope[first + "{}".len()..second];
        let tail = &self.envelope[second + "{}".len()..];
        let events: usize = self.fragments.iter().map(Fragment::len).sum();
        let len = head.len() + events + (self.fragments.len() - 1) * separator.len() + tail.len();
        let mut out = String::with_capacity(len);
        out.push_str(head);
        for (i, fragment) in self.fragments.iter().enumerate() {
            if i > 0 {
                out.push_str(separator);
            }
            fragment.write(&self.arena, &mut out);
        }
        out.push_str(tail);
        debug_assert_eq!(out.len(), len);
        out
    }
}

/// The change-point sweep: sorts `deltas` by time and yields, once per
/// distinct time, the `N` series' levels after applying every
/// `(ts, series, delta)` entry at that time.
///
/// # Panics
///
/// The iterator panics on an entry whose series index is `>= N`.
pub fn step_levels<const N: usize>(
    deltas: &mut [(u64, usize, i64)],
) -> impl Iterator<Item = (u64, [i64; N])> + '_ {
    deltas.sort_unstable_by_key(|&(ts, _, _)| ts);
    let mut level = [0i64; N];
    deltas.chunk_by(|a, b| a.0 == b.0).map(move |changes| {
        for &(_, series, delta) in changes {
            level[series] += delta;
        }
        (changes[0].0, level)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders `doc`, checks the text is in canonical form (parsing and
    /// re-rendering it gives the same bytes) and returns its events.
    fn events(doc: &ChromeDocument) -> Vec<JsonValue> {
        let text = doc.render_pretty();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.render_pretty(), text);
        parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap()
            .to_vec()
    }

    fn ph(event: &JsonValue) -> &str {
        event.get("ph").and_then(JsonValue::as_str).unwrap()
    }

    #[test]
    fn changes_at_one_ts_make_one_counter_event_with_the_final_level() {
        let mut trace = ChromeTrace::new("t");
        trace.counter(
            "load",
            ["a", "b"],
            vec![(5, 0, 1), (2, 1, 3), (5, 0, 1), (5, 1, -3), (5, 0, -1)],
        );
        let events = events(&trace.finish(JsonValue::object([])));
        let counters: Vec<&JsonValue> = events.iter().filter(|e| ph(e) == "C").collect();
        assert_eq!(counters.len(), 2, "{events:?}");
        let at_5 = counters[1];
        assert_eq!(at_5.get("ts").and_then(JsonValue::as_u64), Some(5));
        let args = at_5.get("args").unwrap();
        assert_eq!(args.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(args.get("b").and_then(JsonValue::as_u64), Some(0));
    }

    #[test]
    fn a_slice_sorts_before_a_counter_at_the_same_ts() {
        let mut trace = ChromeTrace::new("t");
        trace.track(1, "lane");
        // The counter is added first; the sort must still put it last.
        trace.counter("load", ["a"], vec![(7, 0, 1), (9, 0, -1)]);
        trace.slice([(u64::MAX - 1, 1)], "op", "nn", 7..9, &[]);
        let events = events(&trace.finish(JsonValue::object([])));
        let phases: Vec<&str> = events.iter().map(ph).collect();
        assert_eq!(phases, ["M", "M", "X", "C", "C"]);
        assert_eq!(events[2].get("dur").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn an_instant_without_args_has_no_args_key() {
        let mut trace = ChromeTrace::new("t");
        trace.instant(0, 1, "bare", "x", 3, None);
        trace.instant(1, 1, "with", "x", 3, Some(&[]));
        let events = events(&trace.finish(JsonValue::object([])));
        let instants = &events[1..];
        assert_eq!(instants[0].get("args"), None);
        assert!(instants[1].get("args").is_some());
        assert_eq!(
            instants[0].render_compact(),
            r#"{"ph":"i","pid":0,"tid":1,"name":"bare","cat":"x","ts":3,"s":"t"}"#
        );
    }

    #[test]
    fn a_multi_track_slice_renders_as_one_slice_per_track() {
        let units = [3];
        let args = [("units", Arg::UInts(&units))];
        let tracks = [(12, 12), (3, 1_000_003), (12, 7)];
        let build = |per_track: bool| {
            let mut trace = ChromeTrace::new("t");
            trace.slice([(5, 9)], "first", "a", 4..6, &args);
            if per_track {
                for track in tracks {
                    trace.slice([track], "op \"q\"", "nn", 4..10, &args);
                }
            } else {
                trace.slice(tracks, "op \"q\"", "nn", 4..10, &args);
            }
            trace.slice([(0, 1)], "after", "b", 4..5, &args);
            trace.finish(JsonValue::object([("k", JsonValue::UInt(1))]))
        };
        let one_call = build(false);
        assert_eq!(one_call.render_pretty(), build(true).render_pretty());
        let tids: Vec<u64> = events(&one_call)
            .iter()
            .filter_map(|e| e.get("tid").and_then(JsonValue::as_u64))
            .collect();
        assert_eq!(tids, [1, 1_000_003, 9, 12, 7]);
    }

    /// One call on a [`ChromeTrace`].
    enum Call<'a> {
        Track(u64, &'a str),
        Slice {
            tracks: Vec<(u64, u64)>,
            name: &'a str,
            cat: &'a str,
            span: Range<u64>,
            args: Vec<(&'static str, Arg<'a>)>,
        },
        /// An `instant` call's arguments, in order.
        Instant(
            u64,
            u64,
            &'a str,
            &'a str,
            u64,
            Option<Vec<(&'static str, Arg<'a>)>>,
        ),
    }

    fn tree_arg(arg: Arg<'_>) -> JsonValue {
        match arg {
            Arg::UInt(v) => JsonValue::UInt(v),
            Arg::Str(s) => JsonValue::Str(s.into()),
            Arg::UInts(items) => {
                JsonValue::Array(items.iter().map(|&v| JsonValue::UInt(v)).collect())
            }
        }
    }

    fn text(s: &str) -> JsonValue {
        JsonValue::Str(s.into())
    }

    fn tree_args(args: &[(&'static str, Arg<'_>)]) -> JsonValue {
        JsonValue::object(args.iter().map(|&(key, value)| (key, tree_arg(value))))
    }

    /// The reference rendering: process `t`'s `M` event and `events`,
    /// sorted stably by key, as one [`JsonValue`] tree through
    /// [`JsonValue::render_pretty`].
    fn tree_document(mut events: Vec<(Option<(u64, u64)>, JsonValue)>) -> String {
        events.sort_by_key(|&(key, _)| key);
        let process = JsonValue::object([
            ("ph", text("M")),
            ("pid", JsonValue::UInt(0)),
            ("name", text("process_name")),
            ("args", JsonValue::object([("name", text("t"))])),
        ]);
        let events = std::iter::once(process).chain(events.into_iter().map(|(_, e)| e));
        JsonValue::object([
            ("displayTimeUnit", text("ms")),
            ("metadata", JsonValue::object([])),
            ("traceEvents", JsonValue::Array(events.collect())),
        ])
        .render_pretty()
    }

    /// Renders `calls` through the templates and, as the reference, the
    /// same document as one [`JsonValue`] tree; the bytes must agree.
    fn assert_renders_like_a_tree(calls: &[Call<'_>]) {
        let mut trace = ChromeTrace::new("t");
        let mut tree = Vec::new();
        for call in calls {
            match call {
                &Call::Track(tid, name) => {
                    trace.track(tid, name);
                    let event = JsonValue::object([
                        ("ph", text("M")),
                        ("pid", JsonValue::UInt(0)),
                        ("tid", JsonValue::UInt(tid)),
                        ("name", text("thread_name")),
                        ("args", JsonValue::object([("name", text(name))])),
                    ]);
                    tree.push((None, event));
                }
                Call::Slice {
                    tracks,
                    name,
                    cat,
                    span,
                    args,
                } => {
                    trace.slice(tracks.clone(), name, cat, span.clone(), args);
                    for &(order, tid) in tracks {
                        let event = JsonValue::object([
                            ("ph", text("X")),
                            ("pid", JsonValue::UInt(0)),
                            ("tid", JsonValue::UInt(tid)),
                            ("name", text(name)),
                            ("cat", text(cat)),
                            ("ts", JsonValue::UInt(span.start)),
                            ("dur", JsonValue::UInt(span.end.saturating_sub(span.start))),
                            ("args", tree_args(args)),
                        ]);
                        tree.push((Some((span.start, order)), event));
                    }
                }
                Call::Instant(order, tid, name, cat, ts, args) => {
                    trace.instant(*order, *tid, name, cat, *ts, args.as_deref());
                    let mut fields = vec![
                        ("ph", text("i")),
                        ("pid", JsonValue::UInt(0)),
                        ("tid", JsonValue::UInt(*tid)),
                        ("name", text(name)),
                        ("cat", text(cat)),
                        ("ts", JsonValue::UInt(*ts)),
                        ("s", text("t")),
                    ];
                    fields.extend(args.as_deref().map(|args| ("args", tree_args(args))));
                    tree.push((Some((*ts, *order)), JsonValue::object(fields)));
                }
            }
        }
        let doc = trace.finish(JsonValue::object([]));
        assert_eq!(doc.render_pretty(), tree_document(tree));
    }

    #[test]
    fn slice_names_and_strings_are_escaped_like_the_tree() {
        let names = [
            "op \"q\"",
            "back\\slash",
            "ctl \u{1}\u{1f}\n\t\r",
            "ünï → 😀",
            "",
        ];
        let slices: Vec<Call> = (0..)
            .zip(names)
            .map(|(i, name)| Call::Slice {
                tracks: vec![(i, 10 + i)],
                name,
                cat: "nn \"cat\"",
                span: i..i + 3,
                args: vec![("kind", Arg::Str(name)), ("subarrays", Arg::UInts(&[]))],
            })
            .collect();
        assert_renders_like_a_tree(&slices);
    }

    #[test]
    fn slice_numbers_of_every_width_fill_like_the_tree() {
        // Every width from 1 to 20 digits, u64::MAX last.
        let values: Vec<u64> = (0..20)
            .flat_map(|d| [10u64.pow(d), 10u64.pow(d).saturating_mul(10) - 1])
            .chain([u64::MAX])
            .collect();
        let slices: Vec<Call> = (values.iter().zip(values.iter().rev()))
            .map(|(&v, &w)| Call::Slice {
                tracks: vec![(w, v), (v, w)],
                name: "op",
                cat: "vsa",
                span: v..v.saturating_add(w),
                args: vec![("loop", Arg::UInt(v)), ("op", Arg::UInt(w))],
            })
            .collect();
        assert_renders_like_a_tree(&slices);
    }

    #[test]
    fn slice_lists_go_inline_up_to_72_bytes_like_the_tree() {
        let list = |ones: usize, tens: usize| -> Vec<u64> {
            (std::iter::repeat_n(1, ones).chain(std::iter::repeat_n(10, tens))).collect()
        };
        let (at_limit, over) = (list(34, 1), list(33, 2));
        assert_eq!(tree_arg(Arg::UInts(&at_limit)).render_compact().len(), 72);
        assert_eq!(tree_arg(Arg::UInts(&over)).render_compact().len(), 73);
        let (long, wide): (Vec<u64>, _) = ((0..64).collect(), [u64::MAX]);
        let lists: [&[u64]; 6] = [&[], &[7], &at_limit, &over, &long, &wide];
        let slices: Vec<Call> = (0..)
            .zip(lists)
            .map(|(i, units)| Call::Slice {
                tracks: units.iter().map(|&u| (u, u)).take(3).collect(),
                name: "list",
                cat: "simd",
                span: i..i + 1,
                args: vec![("kind", Arg::Str("gemm")), ("subarrays", Arg::UInts(units))],
            })
            .collect();
        assert_renders_like_a_tree(&slices);
    }

    #[test]
    fn serving_slice_shapes_render_like_the_tree() {
        let phase = |cat, order, span| Call::Slice {
            tracks: vec![(order, 2)],
            name: "req 7",
            cat,
            span,
            args: vec![("batch", Arg::UInt(3))],
        };
        let slices = [
            phase("queue_wait", 7, 0..5),
            phase("batch_wait", 7, 5..9),
            phase("queue_wait", 8, 0..9),
            // The same category with other keys is another shape.
            phase("exec", 9, 0..9),
            Call::Slice {
                tracks: vec![(u64::MAX - 1, 101)],
                name: "batch 3 (n=4)",
                cat: "exec",
                span: 9..30,
                args: vec![
                    ("batch", Arg::UInt(3)),
                    ("size", Arg::UInt(4)),
                    ("traced_requests", Arg::UInt(2)),
                ],
            },
        ];
        assert_renders_like_a_tree(&slices);
    }

    #[test]
    fn tracks_and_instants_render_like_the_tree() {
        let units = [1, 20, 300];
        let shed = vec![("reason", Arg::Str("full"))];
        let retry = vec![("attempt", Arg::UInt(1))];
        let fail = vec![
            ("attempts", Arg::UInt(1_000_003)),
            ("units", Arg::UInts(&units)),
            ("none", Arg::UInts(&[])),
        ];
        let calls = [
            Call::Track(1, "admission"),
            Call::Track(u64::MAX, "worker[\"q\"] ü\n"),
            Call::Instant(0, 1, "admit req 0", "admission", 9, None),
            Call::Slice {
                tracks: vec![(0, 2)],
                name: "req 0",
                cat: "queue_wait",
                span: 9..12,
                args: vec![("batch", Arg::UInt(3))],
            },
            // The same category with and without `args` is two shapes.
            Call::Instant(1, 1, "shed req 1", "admission", 9, Some(shed)),
            Call::Instant(2, 0, "", "admission", 0, None),
            Call::Track(0, ""),
            Call::Instant(u64::MAX, 3, "retry \"q\"", "retry", u64::MAX, Some(retry)),
            Call::Instant(3, 1_000_003, "fail req 3", "fail", 10, Some(fail)),
            Call::Instant(4, 3, "empty args", "fail", 10, Some(vec![])),
            Call::Instant(5, 3, "no args", "fail", 10, None),
        ];
        assert_renders_like_a_tree(&calls);
    }

    #[test]
    fn a_counter_renders_like_one_event_per_change_point() {
        // `a` grows 9 → 10, `b` clamps from -4 to 0 and jumps to
        // 1 000 003, and `ts` runs from one digit to twenty.
        let mut deltas = vec![
            (0, 0, 9),
            (5, 1, -4),
            (9, 0, 1),
            (10, 1, 1_000_007),
            (10, 0, -10),
            (1_000_003, 1, -1_000_003),
            (u64::MAX, 0, 1),
        ];
        let (name, series) = ("load 0 \"q\"", ["a0", "1"]);
        let mut filled = ChromeTrace::new("t");
        filled.counter(name, series, deltas.clone());
        // Another series of the same keys shares the shape, not the name.
        filled.counter("other", series, vec![(4, 1, 2)]);
        let mut per_point = Vec::new();
        let points = step_levels::<2>(&mut deltas).map(|(ts, level)| (name, ts, level));
        for (name, ts, level) in points.chain([("other", 4, [0, 2])]) {
            let args = (series.into_iter().zip(level))
                .map(|(key, l)| (key, JsonValue::UInt(l.max(0) as u64)));
            let event = JsonValue::object([
                ("ph", text("C")),
                ("pid", JsonValue::UInt(0)),
                ("name", text(name)),
                ("ts", JsonValue::UInt(ts)),
                ("args", JsonValue::object(args)),
            ]);
            per_point.push((Some((ts, COUNTER_ORDER)), event));
        }
        let filled = filled.finish(JsonValue::object([]));
        assert_eq!(filled.render_pretty(), tree_document(per_point));
        let levels: Vec<(u64, u64)> = events(&filled)[1..]
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
            .map(|e| {
                let args = e.get("args").unwrap();
                let level = |key| args.get(key).and_then(JsonValue::as_u64).unwrap();
                (level("a0"), level("1"))
            })
            .collect();
        assert_eq!(
            levels,
            [(9, 0), (9, 0), (10, 0), (0, 1_000_003), (0, 0), (1, 0)]
        );
    }

    #[test]
    fn a_document_of_only_its_process_track_is_canonical() {
        let doc = ChromeTrace::new("only").finish(JsonValue::object([]));
        let events = events(&doc);
        assert_eq!(events.len(), 1);
        assert_eq!(ph(&events[0]), "M");
    }
}
