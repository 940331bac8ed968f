//! Request-level thread fan-out for the serving executor.
//!
//! NSFlow's parallelism belongs to the modelled hardware (AdArray
//! sub-arrays, NN/VSA partitions); the host-side kernels and DSE sweeps
//! run on one thread. The one host lane that fans out is
//! `Executor::execute_batch` in `nsflow-serve`, which runs a batch's
//! independent requests through [`parallel_map`]. [`KernelOptions`] sizes
//! that fan-out and nothing else.
//!
//! # Determinism contract
//!
//! [`parallel_map`] splits the work list into **contiguous chunks in input
//! order**, one worker per chunk, and returns results in input order, so
//! the output is the serial map's output at every thread count.

/// Thread-count knob for the serving executor's batch fan-out (one
/// request per worker, at most).
///
/// The knob only changes *wall time*: each request runs start to finish
/// on one worker, so answers do not depend on the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelOptions {
    /// Worker threads; `None` selects the host's available parallelism,
    /// `Some(1)` forces the serial path.
    pub threads: Option<usize>,
}

impl KernelOptions {
    /// Serial execution (no worker threads).
    #[must_use]
    pub const fn serial() -> Self {
        KernelOptions { threads: Some(1) }
    }

    /// One worker per available hardware thread.
    #[must_use]
    pub const fn auto() -> Self {
        KernelOptions { threads: None }
    }

    /// A fixed worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be nonzero");
        KernelOptions {
            threads: Some(threads),
        }
    }

    /// The concrete worker count this knob resolves to on this host.
    #[must_use]
    pub fn resolve(&self) -> usize {
        self.threads.unwrap_or_else(available_threads).max(1)
    }
}

/// Name of the environment variable that pins the default batch fan-out
/// width (see [`available_threads`]).
pub const THREADS_ENV: &str = "NSFLOW_THREADS";

/// The default batch fan-out width: the `NSFLOW_THREADS` environment
/// variable when set to a positive integer, otherwise the host's available parallelism (1 when it cannot be
/// queried). Unparseable or zero values are ignored, not errors.
#[must_use]
pub fn available_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` OS threads, returning results
/// **in input order**, exactly as a serial map would. `threads <= 1` (or
/// a single item) short-circuits to a plain serial map.
///
/// # Panics
///
/// Propagates a panic from `f` (the worker's panic is resurfaced on the
/// calling thread).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(&items, threads, |&x| x * 2);
            assert_eq!(
                out,
                items.iter().map(|&x| x * 2).collect::<Vec<_>>(),
                "t={threads}"
            );
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn kernel_options_resolve() {
        assert_eq!(KernelOptions::serial().resolve(), 1);
        assert_eq!(KernelOptions::with_threads(3).resolve(), 3);
        assert!(KernelOptions::auto().resolve() >= 1);
        assert_eq!(KernelOptions::default(), KernelOptions::auto());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_threads_rejected() {
        let _ = KernelOptions::with_threads(0);
    }
}
