//! The process-wide metric registry.

use crate::snapshot::Snapshot;
use crate::value::{HistSummary, MetricValue};
use minos_stats::AtomicLogHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A named monotone counter handle. Cloning is cheap (`Arc` bump); all
/// clones update the same underlying atomic, so hot paths keep a clone
/// and never touch the registry again.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one (relaxed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value. For counters fed from an external monotone
    /// source (e.g. an epoch id) rather than incremented in place.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge handle storing an `f64` level (bit-cast into an atomic
/// word). Cloning is cheap; all clones share the value.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

/// A named histogram handle over a lock-free [`AtomicLogHistogram`].
/// Recording is one relaxed `fetch_add`; snapshotting takes a
/// non-destructive cumulative load, so successive snapshot counts never
/// decrease.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<AtomicLogHistogram>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Number of recorded observations (racy; monotone).
    pub fn count(&self) -> u64 {
        self.0.total()
    }

    /// Cumulative summary right now.
    pub fn summary(&self) -> HistSummary {
        HistSummary::from_hist(&self.0.load())
    }
}

/// A subsystem that contributes metrics at snapshot time instead of
/// holding registry handles — the adapter for crates that already keep
/// their own atomic stats structs (transport, store, mempool).
///
/// `collect` is called outside the hot path (snapshot cadence), so it
/// may read mutex-protected or aggregate state; it must not block for
/// long. Emit stable dotted names; see the README metric table.
pub trait Collector: Send + Sync {
    /// Appends `(name, value)` pairs for every metric this subsystem
    /// owns.
    fn collect(&self, out: &mut Vec<(String, MetricValue)>);
}

impl<C: Collector + ?Sized> Collector for Arc<C> {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        (**self).collect(out)
    }
}

/// The unified metric registry: owns named counters/gauges/histograms
/// and a list of [`Collector`]s, and renders everything into a
/// [`Snapshot`].
///
/// Handle creation and collector registration take a mutex (cold path,
/// startup only); recording through handles is lock-free. Creating the
/// same name twice returns the same underlying metric, so independent
/// subsystems can idempotently claim their names.
pub struct MetricsRegistry {
    start: Instant,
    seq: AtomicU64,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Histogram>,
    collectors: Vec<Box<dyn Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_'),
        "metric names are dotted lowercase ASCII: {name:?}"
    );
}

impl MetricsRegistry {
    /// Creates an empty registry; `elapsed_ms` counts from now.
    pub fn new() -> Self {
        MetricsRegistry {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Returns (creating on first use) the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not dotted lowercase ASCII
    /// (`[a-z0-9_.]+`).
    pub fn counter(&self, name: &str) -> Counter {
        check_name(name);
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns (creating on first use) the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics on invalid names (see [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        check_name(name);
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns (creating on first use) a nanosecond-geometry histogram
    /// named `name` (64 sub-buckets per octave, values to 2^40).
    ///
    /// # Panics
    ///
    /// Panics on invalid names (see [`MetricsRegistry::counter`]).
    pub fn histogram_ns(&self, name: &str) -> Histogram {
        check_name(name);
        let mut inner = self.inner.lock().unwrap();
        inner
            .hists
            .entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(AtomicLogHistogram::latency())))
            .clone()
    }

    /// Registers a snapshot-time collector.
    pub fn register_collector(&self, collector: Box<dyn Collector>) {
        self.inner.lock().unwrap().collectors.push(collector);
    }

    /// Milliseconds since the registry was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// The registry's creation instant — the zero point of a server's
    /// [`crate::WallClock`], so engine timestamps line up with snapshot
    /// `elapsed_ms`.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Renders every owned metric and every collector's contribution
    /// into a sorted [`Snapshot`], bumping the sequence number.
    ///
    /// If a collector emits a name an owned metric also uses, the owned
    /// metric wins (first occurrence after sorting is kept).
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let elapsed_ms = self.elapsed_ms();
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<(String, MetricValue)> =
            Vec::with_capacity(inner.counters.len() + inner.gauges.len() + inner.hists.len() + 16);
        for (name, c) in &inner.counters {
            entries.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in &inner.gauges {
            entries.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        for (name, h) in &inner.hists {
            entries.push((name.clone(), MetricValue::Hist(h.summary())));
        }
        for collector in &inner.collectors {
            collector.collect(&mut entries);
        }
        // Stable sort + first-wins dedup: owned metrics were pushed
        // first, so they shadow any collector echoing the same name.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|b, a| a.0 == b.0);
        Snapshot {
            seq,
            elapsed_ms,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter("x.events").get(), 3);

        let g = reg.gauge("x.level");
        g.set(1.5);
        assert_eq!(reg.gauge("x.level").get(), 1.5);

        let h = reg.histogram_ns("x.lat_ns");
        h.record(1000);
        assert_eq!(reg.histogram_ns("x.lat_ns").summary().count, 1);
    }

    #[test]
    #[should_panic(expected = "dotted lowercase")]
    fn rejects_bad_names() {
        MetricsRegistry::new().counter("Bad Name");
    }

    #[test]
    fn snapshot_merges_collectors_and_bumps_seq() {
        struct Fixed;
        impl Collector for Fixed {
            fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
                out.push(("ext.count".to_string(), MetricValue::Counter(9)));
                // Colliding name: the owned metric must win.
                out.push(("own.count".to_string(), MetricValue::Counter(999)));
            }
        }
        let reg = MetricsRegistry::new();
        reg.counter("own.count").add(5);
        reg.register_collector(Box::new(Fixed));
        let s0 = reg.snapshot();
        let s1 = reg.snapshot();
        assert_eq!(s0.seq, 0);
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.counter("ext.count"), Some(9));
        assert_eq!(s1.counter("own.count"), Some(5));
    }
}
