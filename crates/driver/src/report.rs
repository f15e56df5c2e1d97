//! What a run hands back: each measured client's counters and
//! histograms, and their merge.

use minos_core::client::ClientTotals;
use minos_net::{FaultStats, UdpIoStats};
use minos_stats::LatencyHistogram;
use std::time::Duration;

/// One measured client's run.
#[derive(Clone, Debug, Default)]
pub struct ClientRun {
    /// Requests the schedule released: the loop's own count, independent
    /// of the client's.
    pub scheduled: u64,
    /// The client's counters after the drain.
    pub totals: ClientTotals,
    /// Pending-table size after the drain: the independent check on
    /// [`ClientTotals::outstanding`]'s arithmetic.
    pub pending_len: u64,
    /// Latency from the scheduled arrival, every request.
    pub latency: LatencyHistogram,
    /// The same, small requests only.
    pub latency_small: LatencyHistogram,
    /// The same, large requests only.
    pub latency_large: LatencyHistogram,
    /// Latency from the first transmission.
    pub service_latency: LatencyHistogram,
    /// Worst lag of the loop behind its schedule, ns.
    pub behind_max_ns: u64,
    /// The measured window as the loop saw it.
    pub elapsed: Duration,
    /// The drain completed every request.
    pub drained: bool,
    /// Send bursts issued (one `send_batch_at` each).
    pub flushes: u64,
    /// Most requests coalesced into one burst.
    pub coalesced_max: u64,
    /// PUT requests the schedule released.
    pub puts_sent: u64,
    /// Value bytes of those PUTs: what a one-copy server ingest reports
    /// as its `put_copied_bytes`, byte for byte.
    pub put_value_bytes: u64,
    /// Stale partial replies the client's reassembler evicted.
    pub reassembly_evictions: u64,
    /// Value bytes copied while reassembling multi-fragment replies.
    pub reply_copied_bytes: u64,
    /// The client socket's syscall, train and pool counters.
    pub io: UdpIoStats,
    /// Datagrams the client socket dropped on transmit.
    pub tx_dropped: u64,
    /// Faults the injector planted (zero without a fault profile).
    pub fault: FaultStats,
}

impl ClientRun {
    /// Folds `other` in: counters and histograms add, the lag, window
    /// and burst maxima take the larger, and `drained` holds only if
    /// both drained.
    fn absorb(&mut self, other: &ClientRun) {
        self.scheduled += other.scheduled;
        add_totals(&mut self.totals, &other.totals);
        self.pending_len += other.pending_len;
        self.latency.merge(&other.latency);
        self.latency_small.merge(&other.latency_small);
        self.latency_large.merge(&other.latency_large);
        self.service_latency.merge(&other.service_latency);
        self.behind_max_ns = self.behind_max_ns.max(other.behind_max_ns);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.drained &= other.drained;
        self.flushes += other.flushes;
        self.coalesced_max = self.coalesced_max.max(other.coalesced_max);
        self.puts_sent += other.puts_sent;
        self.put_value_bytes += other.put_value_bytes;
        self.reassembly_evictions += other.reassembly_evictions;
        self.reply_copied_bytes += other.reply_copied_bytes;
        add_io(&mut self.io, &other.io);
        self.tx_dropped += other.tx_dropped;
        self.fault.absorb(&other.fault);
    }
}

fn add_totals(a: &mut ClientTotals, b: &ClientTotals) {
    a.sent += b.sent;
    a.completed += b.completed;
    a.unmatched += b.unmatched;
    a.errors += b.errors;
    a.retransmits += b.retransmits;
    a.timed_out += b.timed_out;
    a.hedges_sent += b.hedges_sent;
    a.hedge_wins += b.hedge_wins;
    a.wasted_replies += b.wasted_replies;
    a.overloaded += b.overloaded;
    a.frames_tx += b.frames_tx;
    a.frames_rx += b.frames_rx;
}

fn add_io(a: &mut UdpIoStats, b: &UdpIoStats) {
    a.rx_syscalls += b.rx_syscalls;
    a.tx_syscalls += b.tx_syscalls;
    a.rx_packets += b.rx_packets;
    a.tx_packets += b.tx_packets;
    a.batched |= b.batched;
    a.offload |= b.offload;
    a.tx_trains += b.tx_trains;
    a.tx_train_packets += b.tx_train_packets;
    a.rx_trains += b.rx_trains;
    a.rx_train_packets += b.rx_train_packets;
    a.pool_hits += b.pool_hits;
    a.pool_misses += b.pool_misses;
    a.pool_outstanding += b.pool_outstanding;
    a.tx_copied_bytes += b.tx_copied_bytes;
}

/// A whole run: every measured client's report and their merge.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Each client's run, in client order.
    pub clients: Vec<ClientRun>,
    /// All clients folded together (see [`RunReport::merge`]).
    pub total: ClientRun,
    /// Broken accounting identities, summed over the clients. Anything
    /// non-zero voids the run.
    pub accounting_warnings: u64,
}

impl RunReport {
    /// Merges the clients' runs. Each client's accounting identity
    /// `sent == completed + outstanding + timed_out` is checked against
    /// independent counters: the requests its schedule released must
    /// equal what the client counted as sent, and the derived
    /// `outstanding()` must equal the pending table's size. Each broken
    /// identity is one warning on stderr and one count in
    /// [`RunReport::accounting_warnings`].
    pub fn merge(clients: Vec<ClientRun>) -> RunReport {
        let mut total = ClientRun {
            drained: true,
            ..ClientRun::default()
        };
        let mut accounting_warnings = 0;
        for (c, run) in clients.iter().enumerate() {
            if run.scheduled != run.totals.sent {
                eprintln!(
                    "driver: accounting warning: client {c} scheduled {} requests but counted {} sent",
                    run.scheduled, run.totals.sent,
                );
                accounting_warnings += 1;
            }
            if run.totals.outstanding() != run.pending_len {
                eprintln!(
                    "driver: accounting warning: client {c} has outstanding() = {} but its pending table holds {}",
                    run.totals.outstanding(),
                    run.pending_len,
                );
                accounting_warnings += 1;
            }
            total.absorb(run);
        }
        RunReport {
            clients,
            total,
            accounting_warnings,
        }
    }

    /// Requests still unanswered after the drain: packet loss.
    pub fn outstanding(&self) -> u64 {
        self.total.totals.outstanding()
    }

    /// The paper's §5.4 verdict: every client drained and nothing is
    /// outstanding or timed out. A timed-out request was abandoned after
    /// its retry budget, so it is loss as much as an unanswered one.
    pub fn zero_loss(&self) -> bool {
        self.total.drained && self.outstanding() == 0 && self.total.totals.timed_out == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client whose counters satisfy the identity: `sent` scheduled
    /// and counted, `lost` of them still pending.
    fn clean(sent: u64, lost: u64) -> ClientRun {
        ClientRun {
            scheduled: sent,
            totals: ClientTotals {
                sent,
                completed: sent - lost,
                ..ClientTotals::default()
            },
            pending_len: lost,
            drained: lost == 0,
            ..ClientRun::default()
        }
    }

    #[test]
    fn merge_raises_one_warning_per_broken_identity() {
        let warnings = |runs: Vec<ClientRun>| RunReport::merge(runs).accounting_warnings;
        let report = RunReport::merge(vec![clean(100, 0), clean(50, 2)]);
        assert_eq!(report.accounting_warnings, 0);
        assert_eq!((report.total.scheduled, report.outstanding()), (150, 2));
        assert!(!report.zero_loss(), "a client lost two requests");

        // The schedule released more than the client counted.
        let mut miscounted = clean(100, 0);
        miscounted.scheduled = 101;
        assert_eq!(warnings(vec![miscounted.clone()]), 1);
        // The pending table disagrees with the counters.
        let mut leaked = clean(100, 0);
        leaked.pending_len = 3;
        assert_eq!(warnings(vec![leaked.clone()]), 1);
        // Both identities broken on one client, and one each on two.
        let mut both = miscounted.clone();
        both.pending_len = 3;
        assert_eq!(warnings(vec![both]), 2);
        assert_eq!(warnings(vec![miscounted, clean(10, 0), leaked]), 2);
    }

    #[test]
    fn merge_sums_counters_and_keeps_maxima() {
        let mut a = clean(10, 0);
        a.behind_max_ns = 7;
        a.coalesced_max = 3;
        a.latency.record_ns(1_000);
        let mut b = clean(20, 0);
        b.behind_max_ns = 5;
        b.coalesced_max = 4;
        b.latency.record_ns(2_000);
        b.io.batched = true;
        let report = RunReport::merge(vec![a, b]);
        let t = &report.total;
        assert_eq!((t.totals.sent, t.totals.completed), (30, 30));
        assert_eq!((t.behind_max_ns, t.coalesced_max), (7, 4));
        assert_eq!(t.latency.total(), 2);
        assert!(t.io.batched);
        assert!(report.zero_loss());
    }
}
