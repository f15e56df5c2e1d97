//! Offline-vendored subset of `criterion`.
//!
//! The build environment has no crates.io access, so this shim provides
//! the API surface the workspace's microbenchmarks use: `Criterion`,
//! `BenchmarkGroup`, `Bencher::{iter, iter_batched}`, `BatchSize`,
//! `black_box`, `criterion_group!` and `criterion_main!`.
//!
//! Measurement is a warm-up followed by at least [`MIN_SAMPLES`] timed
//! samples that share the measurement time; each sample yields one
//! ns/iter figure. A row reports their median and quartiles, none of
//! criterion's other statistics, on two stdout lines: a human one and
//! one JSON object,
//! `{"bench":NAME,"median_ns":M,"q1_ns":Q1,"q3_ns":Q3,"samples":N,"iters":I}`.
//!
//! As in criterion, the first command-line argument that is not a flag
//! filters the rows: `cargo bench --bench B -- put_bestfit` runs only
//! the rows whose full id (`group/name`) contains `put_bestfit`.

use std::time::{Duration, Instant};

/// The fewest samples a row is reported over, whatever `sample_size`
/// asks for.
pub const MIN_SAMPLES: usize = 10;

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
    /// The routine time each sample aims for.
    fn sample_budget(&self) -> Duration {
        self.config.measurement_time / self.config.samples as u32
    }

    /// Times `routine`: each sample runs it as many times as the
    /// warm-up's pace says fit the sample's share of the measurement
    /// time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm = Instant::now();
        let mut warm_iters = 0u64;
        while warm.elapsed() < self.config.warm_up_time {
            black_box(routine());
            warm_iters += 1;
        }
        let pace = warm.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;
        let iters = (self.sample_budget().as_nanos() as f64 / pace.max(1.0)).max(1.0) as u64;
        let samples = (0..self.config.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        report(&self.name, samples, iters * self.config.samples as u64);
    }

    /// Times `routine` on inputs produced by `setup`; setup time is
    /// excluded from the measurement. Each sample runs batches until
    /// its routine time reaches its share of the measurement time.
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
        let budget = self.sample_budget();
        let mut total = 0u64;
        let samples = (0..self.config.samples)
            .map(|_| {
                let (mut spent, mut iters) = (Duration::ZERO, 0u64);
                while spent < budget {
                    let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
                    let t = Instant::now();
                    for input in inputs {
                        black_box(routine(input));
                    }
                    spent += t.elapsed();
                    iters += batch as u64;
                }
                total += iters;
                spent.as_nanos() as f64 / iters as f64
            })
            .collect();
        report(&self.name, samples, total);
    }
}

/// Prints one row: the human line, then its JSON object.
fn report(name: &str, mut samples: Vec<f64>, iters: u64) {
    samples.sort_by(f64::total_cmp);
    let quantile = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    let (q1, median, q3) = (quantile(0.25), quantile(0.5), quantile(0.75));
    let n = samples.len();
    println!("bench: {name:<40} {median:>12.1} ns/iter  [{q1:.1}, {q3:.1}]  ({n} samples, {iters} iters)");
    println!(
        "{{\"bench\":\"{name}\",\"median_ns\":{median:.1},\"q1_ns\":{q1:.1},\"q3_ns\":{q3:.1},\"samples\":{n},\"iters\":{iters}}}"
    );
}

#[derive(Clone, Debug)]
struct Config {
    warm_up_time: Duration,
    measurement_time: Duration,
    samples: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            warm_up_time: Duration::from_millis(200),
            measurement_time: Duration::from_millis(500),
            samples: MIN_SAMPLES,
        }
    }
}

/// The benchmark manager.
#[derive(Clone, Debug)]
pub struct Criterion {
    config: Config,
    /// Only rows whose id contains this run (the first non-flag
    /// argument, if any).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            config: Config::default(),
            filter: std::env::args().skip(1).find(|arg| !arg.starts_with('-')),
        }
    }
}

/// True when the row `id` passes `filter`: no filter, or `id` contains
/// it.
fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

impl Criterion {
    /// Sets the number of samples per benchmark (at least
    /// [`MIN_SAMPLES`]).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.samples = n.max(MIN_SAMPLES);
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

    /// Runs one named benchmark, unless the filter leaves it out.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if !selected(self.filter.as_deref(), name) {
            return self;
        }
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

    /// Overrides the sample count for the group (at least
    /// [`MIN_SAMPLES`]).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.config.samples = n.max(MIN_SAMPLES);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_filter_matches_any_part_of_the_full_id() {
        let id = "kv/put_bestfit_mixed";
        for filter in [None, Some("put_bestfit"), Some("kv/put"), Some(id)] {
            assert!(selected(filter, id), "{filter:?}");
        }
        assert!(!selected(Some("put_bestfit"), "kv/get_hit"));
        assert!(!selected(Some("net/"), id));
    }

    #[test]
    fn a_filtered_out_row_never_runs_its_routine() {
        let mut c = Criterion {
            config: Config {
                warm_up_time: Duration::ZERO,
                measurement_time: Duration::from_millis(1),
                samples: MIN_SAMPLES,
            },
            filter: Some("put_bestfit".into()),
        };
        let mut ran = Vec::new();
        let mut group = c.benchmark_group("kv");
        for name in ["get_hit", "put_bestfit_mixed"] {
            group.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| 1 + 1);
            });
        }
        assert_eq!(ran, ["put_bestfit_mixed"]);
    }
}
