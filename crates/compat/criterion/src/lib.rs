//! Offline-vendored subset of `criterion`.
//!
//! The build environment has no crates.io access, so this shim provides
//! the API surface the workspace's microbenchmarks use: `Criterion`,
//! `BenchmarkGroup`, `Bencher::{iter, iter_batched}`, `BatchSize`,
//! `black_box`, `criterion_group!` and `criterion_main!`.
//!
//! Measurement is intentionally simple — a warm-up pass followed by a
//! timed pass, reporting mean ns/iter — with none of criterion's
//! statistics. Good enough to run the harnesses and eyeball regressions.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, re-exported from `std::hint`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup: `PerIteration` runs each setup
/// right before its routine call (for setups that restore state the
/// routine consumed); the others run 64 setups, then 64 routine calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Per-benchmark timing driver.
pub struct Bencher<'a> {
    config: &'a Config,
    name: String,
}

impl Bencher<'_> {
    /// Times `routine`, printing mean ns/iter.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up.
        let warm_deadline = Instant::now() + self.config.warm_up_time;
        while Instant::now() < warm_deadline {
            black_box(routine());
        }
        let mut iters = 0u64;
        let start = Instant::now();
        let deadline = start + self.config.measurement_time;
        while Instant::now() < deadline {
            for _ in 0..64 {
                black_box(routine());
            }
            iters += 64;
        }
        report(&self.name, start.elapsed(), iters);
    }

    /// Times `routine` on inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_deadline = Instant::now() + self.config.warm_up_time;
        while Instant::now() < warm_deadline {
            let input = setup();
            black_box(routine(input));
        }
        let batch = if size == BatchSize::PerIteration {
            1
        } else {
            64
        };
        let mut iters = 0u64;
        let mut spent = Duration::ZERO;
        while spent < self.config.measurement_time {
            let mut inputs = Vec::with_capacity(batch);
            for _ in 0..batch {
                inputs.push(setup());
            }
            let t = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            spent += t.elapsed();
            iters += batch as u64;
        }
        report(&self.name, spent, iters);
    }
}

fn report(name: &str, elapsed: Duration, iters: u64) {
    let ns = elapsed.as_nanos() as f64 / iters.max(1) as f64;
    println!("bench: {name:<40} {ns:>12.1} ns/iter  ({iters} iters)");
}

#[derive(Clone, Debug)]
struct Config {
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            warm_up_time: Duration::from_millis(200),
            measurement_time: Duration::from_millis(500),
        }
    }
}

/// The benchmark manager.
#[derive(Clone, Debug, Default)]
pub struct Criterion {
    config: Config,
}

impl Criterion {
    /// Sets the nominal sample count (ignored by this shim; kept for
    /// API compatibility).
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Sets the timed-measurement duration per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement_time = d;
        self
    }

    /// Sets the warm-up duration per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up_time = d;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            config: &self.config,
            name: name.to_string(),
        };
        f(&mut b);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            prefix: name.to_string(),
        }
    }
}

/// A named group of benchmarks sharing a prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.prefix, name);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Overrides the sample count for the group (ignored).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Overrides measurement time for the group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.config.measurement_time = d;
        self
    }

    /// Finishes the group.
    pub fn finish(&mut self) {}
}

/// Declares a group-runner function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
