//! Quantile and window maths.
//!
//! Latencies are kept as raw nanosecond samples and reduced exactly: a
//! log-bucketed histogram would quantise a median into a handful of
//! bucket bounds, which both hides small movements and makes two runs
//! read identically.

/// The `q`-quantile (`q` in `[0, 1]`) of ascending `sorted`, linearly
/// interpolated between the two nearest ranks. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Sorts `values` in place and returns them (NaNs are never produced by
/// the harness; they would sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of `values` in any order.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// One time window of a phase.
#[derive(Clone, Default)]
struct Window {
    /// Small-class and large-class latencies in ns.
    small: Vec<f64>,
    large: Vec<f64>,
}

impl Window {
    fn class(&self, large: bool) -> &Vec<f64> {
        if large {
            &self.large
        } else {
            &self.small
        }
    }
}

/// Latency samples of one phase, split into equal time windows so a
/// metric can be reduced per window and a quantile over the windows
/// reported: a burst of hypervisor steal or a descheduled thread then
/// spoils a few windows, not the run.
#[derive(Default)]
pub struct Windows {
    len_ns: u64,
    windows: Vec<Window>,
}

impl Windows {
    /// As many whole windows of `len_ns` as fit into `phase_ns`, at
    /// least one.
    pub fn new(phase_ns: u64, len_ns: u64) -> Self {
        assert!(len_ns > 0);
        let count = (phase_ns / len_ns).max(1) as usize;
        Windows {
            len_ns,
            windows: vec![Window::default(); count],
        }
    }

    /// Total time the windows cover.
    pub fn duration_ns(&self) -> u64 {
        self.len_ns * self.windows.len() as u64
    }

    /// Adds `other`'s windows after this one's (windows of several
    /// server instances reduce together; all have the same length).
    pub fn append(&mut self, other: &Windows) {
        debug_assert!(self.windows.is_empty() || self.len_ns == other.len_ns);
        self.len_ns = other.len_ns;
        self.windows.extend(other.windows.iter().cloned());
    }

    /// Records a completion observed `at_ns` after the phase start;
    /// completions past the last window's end fall into the last window.
    pub fn record(&mut self, at_ns: u64, large: bool, latency_ns: u64) {
        let w = ((at_ns / self.len_ns) as usize).min(self.windows.len() - 1);
        let window = &mut self.windows[w];
        let class = if large {
            &mut window.large
        } else {
            &mut window.small
        };
        class.push(latency_ns as f64);
    }

    /// Completions recorded, both classes.
    pub fn total(&self) -> u64 {
        self.count(false) + self.count(true)
    }

    /// Completions recorded in one class.
    pub fn count(&self, large: bool) -> u64 {
        self.windows
            .iter()
            .map(|w| w.class(large).len() as u64)
            .sum()
    }

    /// Per-window throughput in ops/s.
    pub fn throughput_per_window(&self) -> Vec<f64> {
        let secs = self.len_ns as f64 / 1e9;
        self.windows
            .iter()
            .map(|w| (w.small.len() + w.large.len()) as f64 / secs)
            .collect()
    }

    /// The `q`-quantile of one class in each window that has samples.
    pub fn quantile_per_window(&self, large: bool, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter_map(|w| quantile(&sorted(w.class(large).clone()), q))
            .collect()
    }

    /// The `q`-quantile of one class over all windows together.
    pub fn quantile_pooled(&self, large: bool, q: f64) -> Option<f64> {
        let all: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.class(large).iter().copied())
            .collect();
        quantile(&sorted(all), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&s, 0.0), Some(10.0));
        assert_eq!(quantile(&s, 1.0), Some(40.0));
        assert_eq!(quantile(&s, 0.5), Some(25.0));
        assert_eq!(quantile(&s, 0.25), Some(17.5));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windows_bucket_by_time_and_class() {
        let mut w = Windows::new(1_100, 250); // four whole windows fit
        assert_eq!(w.duration_ns(), 1_000);
        w.record(0, false, 10);
        w.record(249, false, 30);
        w.record(250, true, 500);
        w.record(999, false, 70);
        w.record(5_000, false, 90); // past the end: last window
        assert_eq!(w.total(), 5);
        assert_eq!(w.count(true), 1);
        assert_eq!(w.quantile_per_window(false, 0.5), vec![20.0, 80.0]);
        assert_eq!(w.quantile_per_window(true, 0.5), vec![500.0]);
        assert_eq!(w.quantile_pooled(false, 1.0), Some(90.0));
        let tput = w.throughput_per_window();
        assert_eq!(tput.len(), 4);
        assert!((tput[0] - 2.0 / 250e-9).abs() < 1.0);
        assert_eq!(tput[2], 0.0);
        let mut both = Windows::default();
        both.append(&w);
        both.append(&w);
        assert_eq!(both.throughput_per_window().len(), 8);
        assert_eq!(both.count(true), 2);
    }
}
