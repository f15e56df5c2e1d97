//! What a run hands back: each measured client's counters and
//! histograms, their merge, and the one schema every run report speaks.
//!
//! * [`RunReport`] is the merged run.
//! * [`RunSummary`] is its run-level verdict, rendered and parsed by one
//!   pair of functions: `minos-loadgen --json` is a summary plus its
//!   extras, and every `minos-figures` sweep point is a summary plus its
//!   labels.
//! * [`RunReport::snapshot`] is every other client counter under the
//!   dotted names the server's registry uses.
//!
//! Hand-rolled on purpose: the offline build vendors no serde, and every
//! value is a number, bool, string or pre-rendered JSON fragment.

use crate::RunConfig;
use minos_core::client::ClientTotals;
use minos_net::{FaultStats, UdpIoStats};
use minos_obs::{JsonValue, MetricsRegistry, Snapshot};
use minos_stats::{LatencyHistogram, Quantiles};
use std::fmt::Write as _;
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
    a.frames_tx += b.frames_tx;
    a.frames_rx += b.frames_rx;
}

fn add_io(a: &mut UdpIoStats, b: &UdpIoStats) {
    a.rx_syscalls += b.rx_syscalls;
    a.tx_syscalls += b.tx_syscalls;
    a.rx_packets += b.rx_packets;
    a.tx_packets += b.tx_packets;
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

    /// Every merged client counter the [`RunSummary`] does not carry,
    /// under the names the server's registry uses (`transport.*`,
    /// `pool.*`, `fault.*`), plus the client-only `client.*`. No value
    /// appears both here and in the summary.
    pub fn snapshot(&self) -> Snapshot {
        let t = &self.total;
        let io = &t.io;
        let reg = MetricsRegistry::new();
        let f = &t.fault;
        let counters = [
            ("client.retransmits", t.totals.retransmits),
            ("client.wasted_replies", t.totals.wasted_replies),
            ("client.puts_sent", t.puts_sent),
            ("client.put_value_bytes", t.put_value_bytes),
            ("client.reassembly_evictions", t.reassembly_evictions),
            ("client.flushes", t.flushes),
            ("transport.tx_packets", io.tx_packets),
            ("transport.rx_packets", io.rx_packets),
            ("transport.frames_tx", t.totals.frames_tx),
            ("transport.frames_rx", t.totals.frames_rx),
            ("transport.tx_dropped", t.tx_dropped),
            ("transport.rx_syscalls", io.rx_syscalls),
            ("transport.tx_syscalls", io.tx_syscalls),
            ("transport.tx_trains", io.tx_trains),
            ("transport.tx_train_packets", io.tx_train_packets),
            ("transport.rx_trains", io.rx_trains),
            ("transport.rx_train_packets", io.rx_train_packets),
            ("pool.hits", io.pool_hits),
            ("pool.misses", io.pool_misses),
            ("fault.rx_dropped", f.rx_dropped),
            ("fault.rx_duplicated", f.rx_duplicated),
            ("fault.rx_reordered", f.rx_reordered),
            ("fault.rx_delayed", f.rx_delayed),
            ("fault.rx_blackholed", f.rx_blackholed),
            ("fault.tx_dropped", f.tx_dropped),
            ("fault.tx_duplicated", f.tx_duplicated),
            ("fault.tx_reordered", f.tx_reordered),
            ("fault.tx_delayed", f.tx_delayed),
        ];
        for (name, v) in counters {
            reg.counter(name).add(v);
        }
        let flag = |on: bool| if on { 1.0 } else { 0.0 };
        reg.gauge("transport.offload").set(flag(io.offload));
        reg.gauge("pool.outstanding")
            .set(io.pool_outstanding as f64);
        reg.gauge("pool.hit_rate").set(io.pool_hit_rate());
        reg.snapshot()
    }
}

/// The fault-profile label of a run over a clean transport.
pub const NO_FAULTS: &str = "none";

/// One run's verdict: the run-level fields of `minos-loadgen --json` and
/// of every `minos-figures` sweep point, with one renderer
/// ([`RunSummary::write`]) and one parser ([`RunSummary::parse`]).
///
/// Both reports describe a run by the same two rules:
/// * `achieved_rate` is completions per second of the *measured* window
///   (the longest client's [`ClientRun::elapsed`]), not of the
///   configured `duration_s`;
/// * `behind_max_us` is the worst lag of any client behind its open-loop
///   schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Offered rate, requests/second (aggregate across clients).
    pub offered_rate: f64,
    /// Configured measured window, seconds.
    pub duration_s: f64,
    /// Client threads.
    pub clients: u64,
    /// Server cores, one RX queue each ([`RunConfig::queues`]).
    pub cores: u64,
    /// Requests sent in the window.
    pub sent: u64,
    /// Replies received (including drain).
    pub completed: u64,
    /// Requests never answered: packet loss.
    pub outstanding: u64,
    /// Requests abandoned after exhausting their retry budget: explicit
    /// loss under fault injection (0 on clean runs).
    pub timed_out: u64,
    /// Error replies (NotFound, OutOfMemory, ...).
    pub errors: u64,
    /// The fault-profile grammar string the run ran under ([`NO_FAULTS`]
    /// for a clean transport).
    pub fault_profile: String,
    /// Whether hedged requests were armed on the measured clients.
    pub hedging: bool,
    /// Hedge copies transmitted.
    pub hedges_sent: u64,
    /// Completions where the hedge copy's reply arrived first.
    pub hedge_wins: u64,
    /// Broken accounting identities ([`RunReport::merge`]). Anything
    /// nonzero voids the run.
    pub accounting_warnings: u64,
    /// Completions per second of measured window.
    pub achieved_rate: f64,
    /// `(outstanding + timed_out) / sent` (0 when nothing was sent).
    pub loss_rate: f64,
    /// The paper's §5.4 verdict ([`RunReport::zero_loss`]).
    pub zero_loss: bool,
    /// Worst scheduling lag any client saw, µs.
    pub behind_max_us: f64,
    /// End-to-end latency from *scheduled arrival* (the
    /// coordinated-omission-safe measurement; `None` when nothing
    /// completed).
    pub latency_us: Option<Quantiles>,
    /// The same, small requests only: the tail the paper protects.
    pub latency_small_us: Option<Quantiles>,
    /// Latency from first transmission: service time without injection
    /// lag.
    pub service_latency_us: Option<Quantiles>,
    /// Schedule-based latency of large requests only.
    pub latency_large_us: Option<Quantiles>,
    /// Value bytes copied on the send path (0 = scatter-gather end to
    /// end). A sweep point adds the server's transport to the clients'.
    pub tx_copied_bytes: u64,
    /// Value bytes copied while clients reassembled multi-fragment
    /// replies (exactly once per received large value byte).
    pub reply_copied_bytes: u64,
}

impl RunSummary {
    /// The summary of `report`, a run of `cfg` under the fault profile
    /// spelled `fault_profile`.
    pub fn new(cfg: &RunConfig, fault_profile: &str, report: &RunReport) -> RunSummary {
        let t = &report.total;
        let (sent, outstanding, timed_out) =
            (t.scheduled, report.outstanding(), t.totals.timed_out);
        RunSummary {
            offered_rate: cfg.rate,
            duration_s: cfg.duration.as_secs_f64(),
            clients: u64::from(cfg.clients),
            cores: u64::from(cfg.queues),
            sent,
            completed: t.totals.completed,
            outstanding,
            timed_out,
            errors: t.totals.errors,
            fault_profile: fault_profile.to_string(),
            hedging: cfg.hedge.is_some(),
            hedges_sent: t.totals.hedges_sent,
            hedge_wins: t.totals.hedge_wins,
            accounting_warnings: report.accounting_warnings,
            achieved_rate: t.totals.completed as f64
                / t.elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
            loss_rate: if sent > 0 {
                (outstanding + timed_out) as f64 / sent as f64
            } else {
                0.0
            },
            zero_loss: report.zero_loss(),
            behind_max_us: t.behind_max_ns as f64 / 1e3,
            latency_us: t.latency.quantiles(),
            latency_small_us: t.latency_small.quantiles(),
            service_latency_us: t.service_latency.quantiles(),
            latency_large_us: t.latency_large.quantiles(),
            tx_copied_bytes: t.io.tx_copied_bytes,
            reply_copied_bytes: t.reply_copied_bytes,
        }
    }

    /// Appends the summary's fields to `obj`, in the order of the
    /// committed `BENCH_fig_*.json` files.
    pub fn write(&self, obj: JsonObj) -> JsonObj {
        obj.f64("offered_rate", self.offered_rate, 1)
            .f64("duration_s", self.duration_s, 3)
            .u64("clients", self.clients)
            .u64("cores", self.cores)
            .u64("sent", self.sent)
            .u64("completed", self.completed)
            .u64("outstanding", self.outstanding)
            .u64("timed_out", self.timed_out)
            .u64("errors", self.errors)
            .str("fault_profile", &self.fault_profile)
            .bool("hedging", self.hedging)
            .u64("hedges_sent", self.hedges_sent)
            .u64("hedge_wins", self.hedge_wins)
            .u64("accounting_warnings", self.accounting_warnings)
            .f64("achieved_rate", self.achieved_rate, 1)
            .f64("loss_rate", self.loss_rate, 6)
            .bool("zero_loss", self.zero_loss)
            .f64("behind_max_us", self.behind_max_us, 1)
            .raw("latency_us", &quantiles_json(self.latency_us))
            .raw("latency_small_us", &quantiles_json(self.latency_small_us))
            .raw(
                "service_latency_us",
                &quantiles_json(self.service_latency_us),
            )
            .raw("latency_large_us", &quantiles_json(self.latency_large_us))
            .u64("tx_copied_bytes", self.tx_copied_bytes)
            .u64("reply_copied_bytes", self.reply_copied_bytes)
    }

    /// Reads the summary's fields out of a report object
    /// ([`RunSummary::write`]'s inverse, up to the writer's fixed decimal
    /// precision). A report missing any field but the latency
    /// quantiles (`null` when nothing completed) is malformed (`None`).
    pub fn parse(v: &JsonValue) -> Option<RunSummary> {
        let u64_of = |k: &str| v.get(k)?.as_num()?.as_u64();
        let f64_of = |k: &str| v.get(k).and_then(|x| x.as_num()).map(|n| n.as_f64());
        let bool_of = |k: &str| match v.get(k) {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        };
        Some(RunSummary {
            offered_rate: f64_of("offered_rate")?,
            duration_s: f64_of("duration_s")?,
            clients: u64_of("clients")?,
            cores: u64_of("cores")?,
            sent: u64_of("sent")?,
            completed: u64_of("completed")?,
            outstanding: u64_of("outstanding")?,
            timed_out: u64_of("timed_out")?,
            errors: u64_of("errors")?,
            fault_profile: v.get("fault_profile")?.as_str()?.to_string(),
            hedging: bool_of("hedging")?,
            hedges_sent: u64_of("hedges_sent")?,
            hedge_wins: u64_of("hedge_wins")?,
            accounting_warnings: u64_of("accounting_warnings")?,
            achieved_rate: f64_of("achieved_rate")?,
            loss_rate: f64_of("loss_rate")?,
            zero_loss: bool_of("zero_loss")?,
            behind_max_us: f64_of("behind_max_us")?,
            latency_us: parse_quantiles(v.get("latency_us")),
            latency_small_us: parse_quantiles(v.get("latency_small_us")),
            service_latency_us: parse_quantiles(v.get("service_latency_us")),
            latency_large_us: parse_quantiles(v.get("latency_large_us")),
            tx_copied_bytes: u64_of("tx_copied_bytes")?,
            reply_copied_bytes: u64_of("reply_copied_bytes")?,
        })
    }
}

/// Latency quantiles as a JSON object (microseconds), `"null"` when
/// nothing completed.
pub fn quantiles_json(q: Option<Quantiles>) -> String {
    match q {
        None => "null".into(),
        Some(q) => JsonObj::new()
            .u64("count", q.count)
            .f64("mean_us", q.mean_us, 3)
            .f64("p50_us", q.p50_us, 3)
            .f64("p90_us", q.p90_us, 3)
            .f64("p95_us", q.p95_us, 3)
            .f64("p99_us", q.p99_us, 3)
            .f64("p999_us", q.p999_us, 3)
            .f64("p9999_us", q.p9999_us, 3)
            .f64("max_us", q.max_us, 3)
            .finish(),
    }
}

/// Parses the [`quantiles_json`] rendering (`null` → `None`).
fn parse_quantiles(v: Option<&JsonValue>) -> Option<Quantiles> {
    let v = v?;
    let f = |k: &str| v.get(k).and_then(|x| x.as_num()).map(|n| n.as_f64());
    Some(Quantiles {
        count: v.get("count")?.as_num()?.as_u64()?,
        mean_us: f("mean_us")?,
        p50_us: f("p50_us")?,
        p90_us: f("p90_us")?,
        p95_us: f("p95_us")?,
        p99_us: f("p99_us")?,
        p999_us: f("p999_us")?,
        p9999_us: f("p9999_us")?,
        max_us: f("max_us")?,
    })
}

/// Incremental JSON-object builder. Keys are code-controlled ASCII
/// identifiers; values are typed or pre-rendered fragments.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn key(&mut self, name: &str) {
        debug_assert!(
            name.bytes().all(|b| b != b'"' && b != b'\\'),
            "report keys are plain identifiers: {name:?}"
        );
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "\"{name}\":");
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, name: &str, v: u64) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field with `decimals` fractional digits (non-finite
    /// values render as 0).
    pub fn f64(mut self, name: &str, v: f64, decimals: usize) -> Self {
        self.key(name);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.buf, "{v:.decimals$}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, name: &str, v: bool) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a string field, escaped.
    pub fn str(mut self, name: &str, v: &str) -> Self {
        self.key(name);
        minos_obs::json::write_json_str(&mut self.buf, v);
        self
    }

    /// Adds a pre-rendered JSON fragment (nested object, array, `null`,
    /// or a [`JsonObj::finish`] result) under `name`.
    pub fn raw(mut self, name: &str, fragment: &str) -> Self {
        self.key(name);
        self.buf.push_str(fragment);
        self
    }

    /// Closes the object and returns it.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_rates_completions_over_the_measured_window() {
        let mut run = clean(100, 0);
        run.elapsed = Duration::from_secs(2);
        let target = std::net::SocketAddrV4::new(std::net::Ipv4Addr::LOCALHOST, 9000);
        let cfg = RunConfig {
            duration: Duration::from_secs(4),
            ..RunConfig::new(target, 2)
        };
        let s = RunSummary::new(&cfg, NO_FAULTS, &RunReport::merge(vec![run]));
        assert_eq!(s.achieved_rate, 50.0, "completed / elapsed, not / duration");
        let json = s.write(JsonObj::new()).finish();
        assert_eq!(
            RunSummary::parse(&JsonValue::parse(&json).unwrap()),
            Some(s)
        );
    }

    #[test]
    fn builder_produces_valid_json() {
        let nested = JsonObj::new().u64("inner", 7).finish();
        let s = JsonObj::new()
            .u64("a", 1)
            .f64("b", 0.5, 3)
            .bool("c", true)
            .raw("d", &nested)
            .raw("e", "null")
            .str("f", "quote \" and \\")
            .finish();
        let doc = JsonValue::parse(&s).expect("valid JSON");
        let num = |v: Option<&JsonValue>| v.and_then(|v| v.as_num()?.as_u64());
        assert_eq!(num(doc.get("a")), Some(1));
        assert_eq!(num(doc.get("d").and_then(|d| d.get("inner"))), Some(7));
        assert_eq!(
            doc.get("f").and_then(|v| v.as_str()),
            Some("quote \" and \\")
        );
    }

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
        b.io.offload = true;
        let report = RunReport::merge(vec![a, b]);
        let t = &report.total;
        assert_eq!((t.totals.sent, t.totals.completed), (30, 30));
        assert_eq!((t.behind_max_ns, t.coalesced_max), (7, 4));
        assert_eq!(t.latency.total(), 2);
        assert!(t.io.offload);
        assert!(report.zero_loss());
    }
}
