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
//! Every event belongs to process 0. Timed events are written sorted
//! stably by `(ts, order)`, where `order` is the caller's explicit
//! tiebreak; counter events take `u64::MAX`, so at equal `ts` they
//! follow every other event. The same calls always render to the same
//! bytes.

use std::ops::Range;

use crate::json::JsonValue;

/// Sort key of every counter event: after any other event at its `ts`.
const COUNTER_ORDER: u64 = u64::MAX;

/// A Chrome Trace Event Format document under construction.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    /// `M` events, in call order.
    tracks: Vec<JsonValue>,
    /// Timed events with their `(ts, order)` sort key.
    timed: Vec<(u64, u64, JsonValue)>,
}

impl ChromeTrace {
    /// Starts a document whose process 0 is named `process`.
    #[must_use]
    pub fn new(process: impl Into<String>) -> Self {
        let tracks = vec![JsonValue::object([
            ("ph", JsonValue::Str("M".into())),
            ("pid", JsonValue::UInt(0)),
            ("name", JsonValue::Str("process_name".into())),
            (
                "args",
                JsonValue::object([("name", JsonValue::Str(process.into()))]),
            ),
        ])];
        ChromeTrace {
            tracks,
            timed: Vec::new(),
        }
    }

    /// Names track (thread) `tid`. Tracks are listed in call order,
    /// before every timed event.
    pub fn track(&mut self, tid: u64, name: impl Into<String>) {
        self.tracks.push(JsonValue::object([
            ("ph", JsonValue::Str("M".into())),
            ("pid", JsonValue::UInt(0)),
            ("tid", JsonValue::UInt(tid)),
            ("name", JsonValue::Str("thread_name".into())),
            (
                "args",
                JsonValue::object([("name", JsonValue::Str(name.into()))]),
            ),
        ]));
    }

    /// Adds a duration (`X`) event covering `span` on track `tid`,
    /// sorted by `(span.start, order)`.
    pub fn slice(
        &mut self,
        order: u64,
        tid: u64,
        name: impl Into<String>,
        cat: &str,
        span: Range<u64>,
        args: JsonValue,
    ) {
        let event = JsonValue::object([
            ("ph", JsonValue::Str("X".into())),
            ("pid", JsonValue::UInt(0)),
            ("tid", JsonValue::UInt(tid)),
            ("name", JsonValue::Str(name.into())),
            ("cat", JsonValue::Str(cat.into())),
            ("ts", JsonValue::UInt(span.start)),
            ("dur", JsonValue::UInt(span.end.saturating_sub(span.start))),
            ("args", args),
        ]);
        self.timed.push((span.start, order, event));
    }

    /// Adds a thread-scoped instant (`i`) event at `ts` on track `tid`,
    /// sorted by `(ts, order)`. Without `args` the event has no `args`
    /// key.
    pub fn instant(
        &mut self,
        order: u64,
        tid: u64,
        name: impl Into<String>,
        cat: &str,
        ts: u64,
        args: Option<JsonValue>,
    ) {
        let mut fields = vec![
            ("ph", JsonValue::Str("i".into())),
            ("pid", JsonValue::UInt(0)),
            ("tid", JsonValue::UInt(tid)),
            ("name", JsonValue::Str(name.into())),
            ("cat", JsonValue::Str(cat.into())),
            ("ts", JsonValue::UInt(ts)),
            ("s", JsonValue::Str("t".into())),
        ];
        fields.extend(args.map(|args| ("args", args)));
        self.timed.push((ts, order, JsonValue::object(fields)));
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
        for (ts, level) in step_levels::<N>(&mut deltas) {
            let args = series
                .iter()
                .zip(level)
                .map(|(&key, l)| (key, JsonValue::UInt(l.max(0) as u64)));
            let event = JsonValue::object([
                ("ph", JsonValue::Str("C".into())),
                ("pid", JsonValue::UInt(0)),
                ("name", JsonValue::Str(name.into())),
                ("ts", JsonValue::UInt(ts)),
                ("args", JsonValue::object(args)),
            ]);
            self.timed.push((ts, COUNTER_ORDER, event));
        }
    }

    /// Finishes the document: the track events, then the timed events
    /// sorted stably by `(ts, order)`, wrapped with `metadata`.
    #[must_use]
    pub fn finish(self, metadata: JsonValue) -> JsonValue {
        let ChromeTrace {
            tracks: mut events,
            mut timed,
        } = self;
        timed.sort_by_key(|&(ts, order, _)| (ts, order));
        events.extend(timed.into_iter().map(|(_, _, event)| event));
        JsonValue::object([
            ("displayTimeUnit", JsonValue::Str("ms".into())),
            ("metadata", metadata),
            ("traceEvents", JsonValue::Array(events)),
        ])
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

    fn events(doc: &JsonValue) -> &[JsonValue] {
        doc.get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap()
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
        let doc = trace.finish(JsonValue::object([]));
        let counters: Vec<&JsonValue> = events(&doc).iter().filter(|e| ph(e) == "C").collect();
        assert_eq!(counters.len(), 2, "{doc:?}");
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
        trace.slice(u64::MAX - 1, 1, "op", "nn", 7..9, JsonValue::object([]));
        let doc = trace.finish(JsonValue::object([]));
        let phases: Vec<&str> = events(&doc).iter().map(ph).collect();
        assert_eq!(phases, ["M", "M", "X", "C", "C"]);
        let slice = &events(&doc)[2];
        assert_eq!(slice.get("dur").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn an_instant_without_args_has_no_args_key() {
        let mut trace = ChromeTrace::new("t");
        trace.instant(0, 1, "bare", "x", 3, None);
        trace.instant(1, 1, "with", "x", 3, Some(JsonValue::object([])));
        let doc = trace.finish(JsonValue::object([]));
        let instants = &events(&doc)[1..];
        assert_eq!(instants[0].get("args"), None);
        assert!(instants[1].get("args").is_some());
        assert_eq!(
            instants[0].render_compact(),
            r#"{"ph":"i","pid":0,"tid":1,"name":"bare","cat":"x","ts":3,"s":"t"}"#
        );
    }
}
