//! Batch parallelism: [`BatchAnalyzer`] shards independent analyses
//! (per-seed cascades, per-platform sweeps, per-profile ablations)
//! across scoped worker threads.

use crate::obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shards independent analyses across scoped worker threads.
///
/// Work items are claimed through an atomic index (no pre-chunking, so
/// uneven item costs balance naturally) and results are returned in
/// input order. With one thread — or one item — it degrades to a plain
/// serial map, which keeps single-core environments overhead-free.
#[derive(Debug, Clone, Copy)]
pub struct BatchAnalyzer {
    threads: usize,
}

impl Default for BatchAnalyzer {
    /// [`Self::from_env`], panicking on a malformed `ACTFORT_THREADS`.
    ///
    /// A setting like `ACTFORT_THREADS=0` used to fall through silently
    /// to the parallelism probe, hiding the operator's typo until a
    /// production box ran with the wrong worker count. `Default` has no
    /// error channel, so it fails loudly instead; callers that can
    /// propagate should use [`Self::from_env`] directly.
    fn default() -> Self {
        Self::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl BatchAnalyzer {
    /// An analyzer running on up to `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// [`Self::available`], unless the `ACTFORT_THREADS` environment
    /// variable overrides the worker count. Unset (or empty) means the
    /// parallelism probe; anything set but not a positive integer is
    /// rejected with [`Error::Config`](crate::Error::Config) — a silent
    /// fallback would mask operator typos.
    pub fn from_env() -> Result<Self, crate::Error> {
        match std::env::var("ACTFORT_THREADS") {
            Err(_) => Ok(Self::available()),
            Ok(raw) if raw.trim().is_empty() => Ok(Self::available()),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Self::new(n)),
                _ => Err(crate::Error::config(
                    "ACTFORT_THREADS",
                    raw,
                    "a positive integer worker count (unset it for the parallelism probe)",
                )),
            },
        }
    }

    /// An analyzer sized to the machine's available parallelism.
    pub fn available() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Worker count this analyzer will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, preserving input order.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_with(items, || (), |(), item| f(item))
    }

    /// [`Self::run`] with per-worker state: `init` runs once per worker
    /// (once total on the serial path) and each call of `f` gets that
    /// worker's state mutably. This is the scratch-buffer fast path for
    /// sweeps over a shared [`Prepared`](crate::Prepared) substrate —
    /// one `ForwardScratch` per worker instead of per item.
    pub fn run_with<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        let _span = obs::span("batch.run");
        let n = items.len();
        obs::add("engine.batch.runs", 1);
        obs::add("engine.batch.items", n as u64);
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut state = init();
            return items.iter().map(|item| f(&mut state, item)).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, &items[i])));
                    }
                    done.lock().expect("a worker panicked").extend(local);
                });
            }
        });
        let mut pairs = done.into_inner().expect("a worker panicked");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actfort_threads_env_overrides_default() {
        // Serialized against other env-reading tests by running in one
        // process-wide test binary; the variable is always restored.
        std::env::set_var("ACTFORT_THREADS", "3");
        assert_eq!(BatchAnalyzer::default().threads(), 3);
        assert_eq!(BatchAnalyzer::from_env().unwrap().threads(), 3);
        // Malformed values are rejected loudly, not silently probed
        // around (the old behaviour masked operator typos).
        for bad in ["not-a-number", "0", "-2"] {
            std::env::set_var("ACTFORT_THREADS", bad);
            let err = BatchAnalyzer::from_env().expect_err(bad);
            assert_eq!(err.code(), crate::error::CODE_CONFIG, "{bad}");
            assert!(err.is_client_error(), "{bad}");
            assert!(err.to_string().contains("ACTFORT_THREADS"), "{bad}: {err}");
        }
        // `Default` has no error channel: it must propagate the
        // rejection as a panic rather than swallow it. (Folded into this
        // test because env-var tests in one binary must not run in
        // parallel with each other.)
        std::env::set_var("ACTFORT_THREADS", "banana");
        let panic = std::panic::catch_unwind(BatchAnalyzer::default).expect_err("must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("ACTFORT_THREADS"), "panic message names the knob: {msg}");
        // Unset and blank mean the parallelism probe.
        std::env::set_var("ACTFORT_THREADS", "  ");
        assert_eq!(BatchAnalyzer::from_env().unwrap().threads(), BatchAnalyzer::available().threads());
        std::env::remove_var("ACTFORT_THREADS");
        assert_eq!(BatchAnalyzer::default().threads(), BatchAnalyzer::available().threads());
    }

    #[test]
    fn batch_preserves_order_and_results() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 5, 16] {
            let got = BatchAnalyzer::new(threads).run(&items, |&x| x * x + 1);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn batch_handles_empty_and_singleton() {
        let analyzer = BatchAnalyzer::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(analyzer.run(&empty, |&x| x).is_empty());
        assert_eq!(analyzer.run(&[7u32], |&x| x + 1), vec![8]);
        assert!(BatchAnalyzer::available().threads() >= 1);
    }
}
