//! The workspace's single sanctioned wall-clock access point.
//!
//! Clock readings are reports, never inputs: `BuildStats`' times and the
//! bench/CLI measurements read them, while every decision the library
//! makes — the method scorer's counted labels included — is a function of
//! data, configuration and seeds. The workspace linter (`crates/analysis`, rule `determinism`)
//! bans `Instant`/`SystemTime`/`thread_rng` everywhere except this module
//! and the bench/CLI crates — library code that needs a duration wraps the
//! work in [`timed`] or [`timed_secs`] instead of reading the clock inline.

use std::time::{Duration, Instant};

/// Runs `f`, returning its output and the elapsed wall time.
#[inline]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `f`, returning its output and the elapsed time in seconds.
#[inline]
pub fn timed_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, d) = timed(f);
    (out, d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_output_and_nonnegative_duration() {
        let (v, d) = timed(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn timed_secs_matches_timed() {
        let ((), s) = timed_secs(|| std::hint::black_box(()));
        assert!(s >= 0.0);
    }
}
