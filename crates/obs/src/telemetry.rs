//! Per-core, per-class request-lifecycle histograms (the paper's
//! Fig. 5/6 decomposition).

use crate::registry::{Counter, Histogram, MetricsRegistry};

/// Which side of the size threshold a work item landed on — i.e. which
/// execution route it took, not a guess from its byte size.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum ReqClass {
    /// Executed inline on the core that drained it from the NIC.
    Small,
    /// Handed off through a software queue to a large core (or streamed
    /// as a multi-fragment ingest).
    Large,
}

/// Queue-wait and service-time histograms for one request class on one
/// core.
#[derive(Clone, Debug)]
pub struct ClassTelemetry {
    /// Nanoseconds between rx-dequeue (arrival stamp) and service start.
    pub queue_wait_ns: Histogram,
    /// Nanoseconds between service start and the reply being *staged*
    /// in the core's transmit burst (or the fragment absorbed). The
    /// send itself is the burst's, timed once per flush in
    /// [`CoreTelemetry::tx_flush_ns`]; only a reply that forces the
    /// flush — a multi-fragment one, or the one that fills the burst —
    /// has it inside its own service time.
    pub service_ns: Histogram,
}

/// The lifecycle histograms of one server core: queue wait and service
/// time, each split small/large, plus the transmit-burst flush that
/// sends what those requests staged.
///
/// Registered under stable dotted names:
/// `core.{i}.{small|large}.queue_wait_ns`,
/// `core.{i}.{small|large}.service_ns`, `core.{i}.tx_flush_ns` and
/// `core.{i}.tx_flushes`. Recording is two relaxed atomic adds — no
/// locks, no allocation — so it stays on the datagram hot path
/// unconditionally.
#[derive(Clone, Debug)]
pub struct CoreTelemetry {
    /// Inline-executed (small-class) work.
    pub small: ClassTelemetry,
    /// Handed-off (large-class) work.
    pub large: ClassTelemetry,
    /// Nanoseconds one flush of the core's transmit burst spent in the
    /// transport, however many replies it carried.
    pub tx_flush_ns: Histogram,
    /// Flushes of a non-empty transmit burst; `core.{i}.packets_tx /
    /// core.{i}.tx_flushes` is the packets one flush carried.
    pub tx_flushes: Counter,
}

impl CoreTelemetry {
    /// Creates (or re-attaches to) core `core`'s four histograms in
    /// `registry`.
    pub fn register(registry: &MetricsRegistry, core: usize) -> Self {
        let class = |name: &str| ClassTelemetry {
            queue_wait_ns: registry.histogram_ns(&format!("core.{core}.{name}.queue_wait_ns")),
            service_ns: registry.histogram_ns(&format!("core.{core}.{name}.service_ns")),
        };
        CoreTelemetry {
            small: class("small"),
            large: class("large"),
            tx_flush_ns: registry.histogram_ns(&format!("core.{core}.tx_flush_ns")),
            tx_flushes: registry.counter(&format!("core.{core}.tx_flushes")),
        }
    }

    /// Records one completed work item.
    #[inline]
    pub fn record(&self, class: ReqClass, queue_wait_ns: u64, service_ns: u64) {
        let c = match class {
            ReqClass::Small => &self.small,
            ReqClass::Large => &self.large,
        };
        c.queue_wait_ns.record(queue_wait_ns);
        c.service_ns.record(service_ns);
    }

    /// Records one flush of a non-empty transmit burst.
    #[inline]
    pub fn record_tx_flush(&self, flush_ns: u64) {
        self.tx_flush_ns.record(flush_ns);
        self.tx_flushes.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_stable_names_and_records_by_class() {
        let reg = MetricsRegistry::new();
        let t = CoreTelemetry::register(&reg, 3);
        t.record(ReqClass::Small, 100, 500);
        t.record(ReqClass::Large, 2_000, 90_000);
        t.record(ReqClass::Large, 3_000, 80_000);
        let snap = reg.snapshot();
        assert_eq!(snap.hist("core.3.small.queue_wait_ns").unwrap().count, 1);
        assert_eq!(snap.hist("core.3.small.service_ns").unwrap().count, 1);
        assert_eq!(snap.hist("core.3.large.queue_wait_ns").unwrap().count, 2);
        let svc = snap.hist("core.3.large.service_ns").unwrap();
        assert_eq!(svc.count, 2);
        assert!(svc.p99 >= 80_000);
        t.record_tx_flush(4_000);
        let snap = reg.snapshot();
        assert_eq!(snap.hist("core.3.tx_flush_ns").unwrap().count, 1);
        assert_eq!(snap.counter("core.3.tx_flushes"), Some(1));
    }
}
