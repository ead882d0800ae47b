//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of the criterion API its benches use:
//! [`criterion_group!`] / [`criterion_main!`], [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`] / [`Bencher::iter_batched`],
//! [`BatchSize`] and [`Throughput`]. There is no statistical analysis:
//! each benchmark is warmed up once and then timed over a fixed number
//! of iterations, each on its own clock, and the median and minimum
//! wall-clock time per iteration (and per element, when a throughput is
//! set) are printed. Unlike a mean, neither moves when one iteration of
//! the sample is slowed by another process on a shared host.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// How expensive the per-iteration setup input is; accepted for API
/// compatibility and ignored by this harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small relative to the routine.
    SmallInput,
    /// Setup output is comparable to the routine.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Work done by one iteration, for per-element reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The iteration processes this many elements.
    Elements(u64),
}

/// Timer handle passed to every benchmark closure.
pub struct Bencher {
    iters: u64,
    /// One wall-clock time per timed iteration.
    samples: Vec<Duration>,
}

impl Bencher {
    fn new(iters: u64) -> Self {
        Bencher {
            iters,
            samples: Vec::with_capacity(iters as usize),
        }
    }

    /// Times `routine` over a fixed number of iterations, one clock
    /// reading per iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Times `routine` on fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.samples.clear();
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    /// The median and minimum iteration time, in seconds.
    fn median_min(&mut self) -> (f64, f64) {
        self.samples.sort_unstable();
        let n = self.samples.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let mid = (self.samples[(n - 1) / 2] + self.samples[n / 2]).as_secs_f64() / 2.0;
        (mid, self.samples[0].as_secs_f64())
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the iteration count used for each benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u64).max(1);
        self
    }

    /// Sets the work per iteration of the benchmarks that follow, so
    /// they also report time per element.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs and reports one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        // Warm-up pass with a single iteration.
        f(&mut Bencher::new(1));
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        let (median, min) = b.median_min();
        let per_elem = match self.throughput {
            Some(Throughput::Elements(n)) => {
                let ns = |s: f64| s * 1e9 / n.max(1) as f64;
                format!(", {:.2} ns/elem median, {:.2} min", ns(median), ns(min))
            }
            None => String::new(),
        };
        println!(
            "{}/{}: {:.3} ms/iter median, {:.3} min ({} iters{per_elem})",
            self.name,
            id,
            median * 1e3,
            min * 1e3,
            b.samples.len()
        );
        self
    }

    /// Ends the group (reporting is already done per benchmark).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Applies command-line configuration; a no-op in this harness.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 10,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs and reports one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Bundles benchmark functions into a group runner, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum_per_elem", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runner_executes() {
        benches();
    }

    #[test]
    fn every_iteration_is_timed() {
        let mut b = Bencher::new(4);
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!((calls, b.samples.len()), (4, 4));
        b.samples = [5, 1, 9, 3].map(Duration::from_secs).to_vec();
        assert_eq!(b.median_min(), (4.0, 1.0));
    }
}
