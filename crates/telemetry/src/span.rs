//! Hierarchical RAII span timers.
//!
//! A [`SpanGuard`] measures the wall time between its creation and
//! drop and folds the result into the global registry under the span's
//! *path*. Guards nest: entering `"phase1"` while a `"dse.explore"`
//! guard is live on the same thread aggregates under
//! `"dse.explore.phase1"`. The nesting path is thread-local, and the
//! guard is `!Send` so it cannot close on a different thread than it
//! opened on.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// RAII guard timing one span; see the module docs.
#[derive(Debug)]
#[must_use = "a span guard records its timing when dropped"]
pub struct SpanGuard {
    prev_len: usize,
    start: Instant,
    // Keep the guard on the thread whose path stack it extended.
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Open a span named `name`, nested under any live span on this
    /// thread. Dotted names (`"dse.phase1"`) are the convention.
    pub fn enter(name: &str) -> Self {
        let prev_len = PATH.with(|path| {
            let mut path = path.borrow_mut();
            let prev_len = path.len();
            if prev_len > 0 {
                path.push('.');
            }
            path.push_str(name);
            prev_len
        });
        Self {
            prev_len,
            start: Instant::now(),
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        PATH.with(|path| {
            let mut path = path.borrow_mut();
            crate::global().span_stat(&path).record(elapsed_ns);
            path.truncate(self.prev_len);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::SpanGuard;

    #[test]
    fn spans_nest_into_dotted_paths() {
        {
            let _outer = SpanGuard::enter("test_span.outer");
            {
                let _inner = SpanGuard::enter("inner");
            }
            {
                let _inner = SpanGuard::enter("inner");
            }
        }
        let snap = crate::global().snapshot();
        let outer = snap.spans.get("test_span.outer").expect("outer span");
        assert!(outer.count >= 1);
        let inner = snap
            .spans
            .get("test_span.outer.inner")
            .expect("nested span path");
        assert!(inner.count >= 2);
        assert!(outer.total_ns >= inner.max_ns);
    }
}
