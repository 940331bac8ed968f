//! `NSFLOW_THREADS` pins the default width of the serving batch fan-out.
//!
//! All assertions live in one `#[test]` because they mutate process-wide
//! environment state — the default parallel test runner must never
//! interleave two of them.

use nsflow_tensor::par::{available_threads, KernelOptions, THREADS_ENV};

#[test]
fn nsflow_threads_env_pins_the_default() {
    // Baseline: whatever the host reports, at least one.
    std::env::remove_var(THREADS_ENV);
    assert!(available_threads() >= 1);

    // A positive value wins over the host count and flows through
    // KernelOptions::auto().
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(available_threads(), 3);
    assert_eq!(KernelOptions::auto().resolve(), 3);
    // Explicit knobs are NOT overridden — the env var only replaces the
    // auto default.
    assert_eq!(KernelOptions::with_threads(2).resolve(), 2);
    assert_eq!(KernelOptions::serial().resolve(), 1);

    // The determinism cell's setting.
    std::env::set_var(THREADS_ENV, "1");
    assert_eq!(available_threads(), 1);
    assert_eq!(KernelOptions::auto().resolve(), 1);

    // Garbage and zero fall back to the host count.
    std::env::set_var(THREADS_ENV, "zero");
    assert!(available_threads() >= 1);
    std::env::set_var(THREADS_ENV, "0");
    assert!(available_threads() >= 1);
    // Whitespace around a valid value is tolerated.
    std::env::set_var(THREADS_ENV, " 4 ");
    assert_eq!(available_threads(), 4);

    std::env::remove_var(THREADS_ENV);
}
