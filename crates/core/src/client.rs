//! Load-generating client with the paper's measurement methodology
//! (§5.4): open-loop request injection, send timestamps echoed on
//! replies, end-to-end latency histograms (overall, small-only and
//! large-only), and
//! strict zero-loss accounting ("we only report performance values
//! corresponding to scenarios in which the packet loss rate is equal
//! to 0").
//!
//! Latency is measured from each request's **scheduled arrival time**
//! ([`Client::send_batch_at`]), not from when the loadgen got around to
//! transmitting it — an open-loop generator that falls behind its
//! schedule and catches up in bursts would otherwise silently
//! under-report queueing delay (coordinated omission). The time between
//! first transmission and the reply is kept separately as *service
//! latency* ([`Client::service_latency`]); with an on-schedule sender
//! the two are equal, and schedule-based latency is never below
//! send-based.
//!
//! Request addressing follows §3: "The target RX queue is chosen at
//! random for GET operations, and depends on the keyhash for PUT
//! operations."
//!
//! The client speaks through a [`Transport`], so the same code drives
//! the in-process virtual NIC (via [`VirtualClientTransport`], the
//! default [`Client::new`] wires up) or real UDP sockets (the
//! `minos-loadgen` binary passes a `UdpTransport`).
//!
//! # When a request leaves
//!
//! Every request is *staged* — encoded and fragmented into one
//! reusable buffer — and the stage is released in a single
//! [`Transport::tx_frames`] call. [`Client::send`] and
//! [`Client::send_at`] only stage: what a driver sends between two
//! polls leaves together at the next [`Client::poll`] (so also
//! [`Client::drain`]), [`Client::send_batch`] /
//! [`Client::send_batch_at`] or explicit [`Client::flush`]. The
//! one-request conveniences ([`Client::send_get`], [`Client::send_put`],
//! [`Client::send_delete`]) release at once. Staging is where request
//! bundles form: once a reply has shown that the server walks datagrams
//! frame by frame ([`FragHeader::accepts_bundles`]), a single-fragment
//! request joins the datagram already staged for the same RX queue
//! while it has room, so the `k` requests of one driver-loop iteration
//! cross the kernel in about `k / 4` datagrams per queue. The client's
//! own frames always carry the flag: its receive path ([`frames`])
//! takes bundled replies.

use crate::server::MinosServer;
use bytes::Bytes;
use minos_net::{Transport, VirtualClientTransport, VirtualTransport};
use minos_stats::LatencyHistogram;
use minos_wire::frag::{
    frames, stage_message, FragHeader, FragmentWriter, Streamed, StreamingReassembler,
};
use minos_wire::message::{Body, Message, OpKind, ReplyStatus, MSG_HEADER_LEN};
use minos_wire::packet::{Endpoint, Packet, TxPacket};
use minos_wire::TxFrame;
use minos_workload::{OpSpec, Operation, Rng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one completed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The key operated on.
    pub key: u64,
    /// Kind of the reply received.
    pub kind: OpKind,
    /// Reply status.
    pub status: ReplyStatus,
    /// End-to-end latency in nanoseconds, measured from the request's
    /// scheduled arrival time (coordinated-omission-free).
    pub latency_ns: u64,
    /// Service latency in nanoseconds, measured from the request's
    /// first transmission. `latency_ns - service_ns` is the scheduling
    /// lag the sender accumulated before this request went out.
    pub service_ns: u64,
    /// Whether the request targeted a large item.
    pub large: bool,
}

/// Client-side retransmission policy. The paper leaves retransmission
/// to the client (§4.1); this is the optional timeout-and-retry flavor
/// `minos-loadgen --retry-timeout-ms` enables. Latency is always
/// measured from the request's scheduled arrival (service latency from
/// its *first* transmission), never from a retry.
///
/// The per-attempt timeout grows exponentially (`timeout ×
/// backoff^retries`, capped at `max_timeout`) with a deterministic
/// per-request jitter in `[1.0, 1.25)`, so a loss burst doesn't
/// resynchronize every straggler into one retransmit storm. A request
/// that exhausts its budget and times out once more is *abandoned* and
/// counted in [`ClientTotals::timed_out`] — explicit loss, never a
/// silent histogram hole (`sent == completed + outstanding +
/// timed_out` always holds). The zero-loss reporting mode is simply
/// "no retry policy".
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// How long the first attempt may stay unanswered before it is
    /// resent.
    pub timeout: Duration,
    /// Maximum resends per request; afterwards one final timeout moves
    /// the request to [`ClientTotals::timed_out`].
    pub max_retries: u32,
    /// Timeout multiplier per retry (exponential backoff; `1.0` = flat).
    pub backoff: f64,
    /// Upper bound on the backed-off per-attempt timeout.
    pub max_timeout: Duration,
}

impl RetryPolicy {
    /// A policy with the given first-attempt timeout and retry budget,
    /// doubling per retry up to `8 × timeout`.
    pub fn new(timeout: Duration, max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_retries,
            backoff: 2.0,
            max_timeout: timeout.saturating_mul(8),
        }
    }
}

/// Hedged-request policy ("tail-tolerant" duplicate requests): once a
/// request has waited longer than an adaptive delay — the client's own
/// observed service-latency `percentile`, clamped to `[min_delay,
/// max_delay]` — a duplicate is sent to a *different* RX queue and the
/// first reply wins. The hedge never touches the schedule or
/// first-transmission clocks, so latency accounting stays
/// coordinated-omission-honest; the losing reply is counted
/// ([`ClientTotals::wasted_replies`]) and its buffer dropped.
#[derive(Clone, Copy, Debug)]
pub struct HedgePolicy {
    /// Service-latency percentile the hedge delay adapts to.
    pub percentile: f64,
    /// Floor for the adaptive delay (hedge no sooner than this).
    pub min_delay: Duration,
    /// Cap for the adaptive delay; also the delay used until enough
    /// samples exist to estimate the percentile.
    pub max_delay: Duration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            percentile: 99.0,
            min_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(100),
        }
    }
}

struct Pending {
    /// Scheduled arrival time on the open-loop injection schedule
    /// (latency is measured from here — the coordinated-omission fix).
    /// Callers that don't schedule pass the send instant, collapsing
    /// the two clocks.
    sched_ns: u64,
    /// When the request was first staged for transmission (service
    /// latency is measured from here, so a staged request's wait for
    /// its release counts).
    first_tx_ns: u64,
    /// Most recent (re)transmission time.
    last_tx_ns: u64,
    retries: u32,
    key: u64,
    large: bool,
    /// The request message and its original target queue, kept only
    /// when a retry or hedging policy is active (a [`Message`] clone is
    /// an `O(1)` refcount bump on the value bytes, not a value copy;
    /// re-encoding on the rare resend path is what lets the hedge copy
    /// carry its marker bit).
    resend: Option<(Message, u16)>,
    /// Queue the hedge duplicate was sent to, once one was.
    hedge_queue: Option<u16>,
}

/// Client-side totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientTotals {
    /// Requests sent.
    pub sent: u64,
    /// Replies received and matched.
    pub completed: u64,
    /// Replies that could not be matched to a pending request (includes
    /// duplicate replies caused by retransmission).
    pub unmatched: u64,
    /// Non-Ok replies.
    pub errors: u64,
    /// Requests re-sent by the retry policy.
    pub retransmits: u64,
    /// Requests abandoned after exhausting the retry budget — explicit
    /// loss that would otherwise vanish from the histograms
    /// (`sent == completed + outstanding + timed_out`).
    pub timed_out: u64,
    /// Hedge duplicates sent.
    pub hedges_sent: u64,
    /// Requests whose *hedge* reply arrived first.
    pub hedge_wins: u64,
    /// Duplicate or late replies discarded after the request was
    /// already completed or abandoned — hedge losers and post-timeout
    /// stragglers (their buffers are dropped on the spot).
    pub wasted_replies: u64,
    /// Wire frames staged for transmission: one per request fragment,
    /// retries and hedges included. Against the transport's
    /// `tx_packets` this is how many frames shared a datagram.
    pub frames_tx: u64,
    /// Wire frames walked in received datagrams.
    pub frames_rx: u64,
}

impl ClientTotals {
    /// Requests still awaiting a reply (abandoned requests are counted
    /// in [`ClientTotals::timed_out`], not here). Non-zero at the end
    /// of a run means unresolved packet loss — the paper's methodology
    /// discards such runs; so does a non-zero `timed_out`.
    pub fn outstanding(&self) -> u64 {
        self.sent - self.completed - self.timed_out
    }
}

/// Default reassembly-round length for the client's stale-partial
/// eviction clock: one second dwarfs any realistic reply spread, so
/// only partials that actually lost a fragment are ever dropped.
pub const CLIENT_REASSEMBLY_ROUND_NS: u64 = 1_000_000_000;

/// Reassembly sink for multi-fragment GET replies that streams each
/// fragment to its final destination as it arrives: header bytes into a
/// fixed 32-byte array (parsed in place on completion) and value bytes
/// straight into the buffer that *becomes* the reply's value — no
/// intermediate header+value concatenation is ever built, and the
/// completed sink decodes via [`Message::decode_streamed`] instead of a
/// contiguous [`Message::decode`]. Single-fragment replies never
/// construct one (their payload decodes in place).
struct ReplySink {
    header: [u8; MSG_HEADER_LEN],
    value: Vec<u8>,
    /// Value bytes written through `write_at` — exactly one copy per
    /// value byte on this path, surfaced as `client.reply_copied_bytes`
    /// so tests can pin the single-copy property.
    copied: u64,
}

impl ReplySink {
    fn open(h: &FragHeader) -> Option<ReplySink> {
        let msg_len = h.msg_len as usize;
        // A multi-fragment message shorter than the fixed header is
        // malformed; rejecting here surfaces it in the unmatched count.
        if msg_len < MSG_HEADER_LEN {
            return None;
        }
        Some(ReplySink {
            header: [0; MSG_HEADER_LEN],
            value: vec![0; msg_len - MSG_HEADER_LEN],
            copied: 0,
        })
    }
}

impl FragmentWriter for ReplySink {
    fn write_at(&mut self, offset: usize, chunk: &[u8]) {
        let mut offset = offset;
        let mut chunk = chunk;
        if offset < MSG_HEADER_LEN {
            let n = chunk.len().min(MSG_HEADER_LEN - offset);
            self.header[offset..offset + n].copy_from_slice(&chunk[..n]);
            offset += n;
            chunk = &chunk[n..];
        }
        if !chunk.is_empty() {
            let at = offset - MSG_HEADER_LEN;
            self.value[at..at + chunk.len()].copy_from_slice(chunk);
            self.copied += chunk.len() as u64;
        }
    }
}

/// A synchronous client bound to one server over some transport.
pub struct Client {
    transport: Arc<dyn Transport>,
    endpoint: Endpoint,
    /// Queue-0 endpoint of the server; queue `q` is the same address
    /// at `port + q` (the paper's port-addresses-queue convention).
    server: Endpoint,
    server_queues: u16,
    /// Queues requests may target. Defaults to all; tests restrict it
    /// to skew delivery onto a few RX queues.
    target_queues: std::ops::Range<u16>,
    /// Next message id (the reassembly key of a request's fragments).
    next_msg_id: u64,
    /// Requests staged and not yet released, in send order; empty
    /// between releases and kept for its capacity, so a steady-state
    /// send allocates nothing.
    stage: Vec<TxPacket>,
    /// Per server RX queue: the staged datagram the queue's next
    /// single-fragment request may join.
    open: Vec<Option<usize>>,
    /// A reply frame carried [`FragHeader::accepts_bundles`]: the
    /// server walks datagrams, so requests may share them. Latched by
    /// the first such reply; a server that never says so is sent one
    /// request per datagram for good.
    server_bundles: bool,
    /// Streams multi-fragment reply chunks straight into their final
    /// contiguous buffer; stale partials (a lost reply fragment) are
    /// evicted by its round clock, ticked each [`Client::poll`] with
    /// rounds of [`CLIENT_REASSEMBLY_ROUND_NS`], instead of lingering
    /// until the capacity bound forces them out.
    reassembler: StreamingReassembler<ReplySink>,
    rng: Rng,
    clock: Instant,
    next_request_id: u64,
    pending: HashMap<u64, Pending>,
    latency: LatencyHistogram,
    latency_small: LatencyHistogram,
    latency_large: LatencyHistogram,
    service_latency: LatencyHistogram,
    /// Value bytes copied while reassembling multi-fragment replies
    /// (one copy per byte; see [`ReplySink`]).
    reply_copied_bytes: u64,
    totals: ClientTotals,
    client_id: u16,
    retry: Option<RetryPolicy>,
    hedge: Option<HedgePolicy>,
    /// Next time (ns) the pending map is scanned for due retransmits
    /// and hedges; scanning every poll would be O(pending) per packet.
    next_retry_scan_ns: u64,
    /// Recently completed-or-abandoned request ids that may still have
    /// a duplicate reply in flight (hedged, retried, or timed out), so
    /// a late reply counts as [`ClientTotals::wasted_replies`] instead
    /// of polluting `unmatched`. Bounded FIFO ring.
    dup_ring: std::collections::VecDeque<u64>,
    dup_set: std::collections::HashSet<u64>,
    /// Receive scratch of [`Client::poll`], empty between polls: kept
    /// for its capacity, so a poll that finds packets allocates nothing
    /// to hold them.
    rx_scratch: Vec<Packet>,
}

/// Capacity of the duplicate-reply recognition ring.
const DUP_RING_CAP: usize = 4096;

/// Service-latency samples required before the hedge delay trusts the
/// percentile estimate; below this the policy's `max_delay` is used.
const HEDGE_WARMUP_SAMPLES: u64 = 64;

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Client {
    /// Creates a client with the given id talking to an in-process
    /// `server` through its virtual NIC.
    pub fn new(server: &MinosServer<VirtualTransport>, client_id: u16, seed: u64) -> Self {
        let server = server.transport();
        // Client host ids start at 100 to stay clear of the server.
        let endpoint = Endpoint::host(100 + u32::from(client_id), 20_000 + client_id);
        let nic = Arc::clone(server.nic());
        let transport = Arc::new(VirtualClientTransport::new(nic, endpoint));
        let (queue_0, queues) = (server.local_endpoint(0), server.num_queues());
        Self::with_transport(transport, endpoint, queue_0, queues, client_id, seed)
    }

    /// Creates a client over an arbitrary transport.
    ///
    /// * `endpoint` — the client's own address (replies must be
    ///   addressed to it).
    /// * `server` — the server's queue-0 endpoint; queue `q` is reached
    ///   at `server.port + q`.
    /// * `server_queues` — number of server RX queues.
    pub fn with_transport(
        transport: Arc<dyn Transport>,
        endpoint: Endpoint,
        server: Endpoint,
        server_queues: u16,
        client_id: u16,
        seed: u64,
    ) -> Self {
        assert!(server_queues > 0);
        assert!(
            server.port.checked_add(server_queues - 1).is_some(),
            "server port {} + {} queues exceeds the u16 port space",
            server.port,
            server_queues
        );
        Client {
            transport,
            endpoint,
            server,
            server_queues,
            target_queues: 0..server_queues,
            next_msg_id: u64::from(client_id) << 32,
            stage: Vec::new(),
            open: vec![None; usize::from(server_queues)],
            server_bundles: false,
            reassembler: StreamingReassembler::new(1024),
            rng: Rng::new(seed),
            clock: Instant::now(),
            next_request_id: 1,
            pending: HashMap::new(),
            latency: LatencyHistogram::new(),
            latency_small: LatencyHistogram::new(),
            latency_large: LatencyHistogram::new(),
            service_latency: LatencyHistogram::new(),
            reply_copied_bytes: 0,
            totals: ClientTotals::default(),
            client_id,
            retry: None,
            hedge: None,
            next_retry_scan_ns: 0,
            dup_ring: std::collections::VecDeque::new(),
            dup_set: std::collections::HashSet::new(),
            rx_scratch: Vec::new(),
        }
    }

    /// Restricts the RX queues this client targets.
    pub fn with_target_queues(mut self, queues: std::ops::Range<u16>) -> Self {
        assert!(!queues.is_empty());
        assert!(queues.end <= self.server_queues);
        self.target_queues = queues;
        self
    }

    /// Enables timeout-and-retry retransmission. Without a policy
    /// (the default) the client never resends — the paper's zero-loss
    /// measurement mode, where any loss must surface in the report.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        assert!(!policy.timeout.is_zero(), "retry timeout must be positive");
        assert!(policy.backoff >= 1.0, "retry backoff must be >= 1.0");
        assert!(
            policy.max_timeout >= policy.timeout,
            "max_timeout below the base timeout"
        );
        self.retry = Some(policy);
        self
    }

    /// Enables hedged requests (see [`HedgePolicy`]). Hedges duplicate
    /// only small (single-class) requests — the tail the paper
    /// protects; re-streaming a multi-megabyte PUT to recover its tail
    /// would do the opposite. Requires at least two target queues
    /// (hedges go to a *different* queue by construction).
    pub fn with_hedging(mut self, policy: HedgePolicy) -> Self {
        assert!(
            !policy.max_delay.is_zero(),
            "hedge max_delay must be positive"
        );
        assert!(
            (1.0..=100.0).contains(&policy.percentile),
            "hedge percentile out of range"
        );
        self.hedge = Some(policy);
        self
    }

    /// Nanoseconds on this client's private monotonic clock — the time
    /// domain scheduled-arrival deadlines for [`Client::send_at`] /
    /// [`Client::send_batch_at`] must be expressed in.
    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// The per-source key the server derives for this client's frames
    /// (reassembly and discard-quota accounting are charged to it).
    pub fn source_key(&self) -> u64 {
        self.endpoint.source_key()
    }

    fn pick_random_queue(&mut self) -> u16 {
        let span = self.target_queues.len();
        self.target_queues.start + self.rng.index(span) as u16
    }

    fn pick_keyhash_queue(&self, key: u64) -> u16 {
        let span = u64::from(self.target_queues.end - self.target_queues.start);
        self.target_queues.start + (minos_kv::keyhash(key) % span) as u16
    }

    /// Stages one operation from the workload generator; it leaves with
    /// the next release (see the module docs). Values for PUTs are
    /// synthesized at the spec's item size. Latency is measured from
    /// now — use [`Client::send_at`] when the op had an earlier
    /// scheduled arrival.
    pub fn send(&mut self, spec: &OpSpec) {
        let sched_ns = self.now_ns();
        self.send_at(spec, sched_ns);
    }

    /// Stages one operation whose scheduled arrival on the open-loop
    /// injection schedule was `sched_ns` (in [`Client::now_ns`]'s time
    /// domain). Latency is measured from `sched_ns`, so a sender that
    /// fell behind schedule still reports the queueing delay its
    /// lateness inflicted — the coordinated-omission fix — and service
    /// latency from now, so the wait for the release counts too.
    pub fn send_at(&mut self, spec: &OpSpec, sched_ns: u64) {
        let (frame, queue) = self.prepare_spec(spec, sched_ns);
        self.stage_request(&frame, queue);
    }

    /// Sends a batch of operations as one coalesced transmit: every
    /// fragment of every request — and whatever [`Client::send`] staged
    /// before — goes out through a single [`Transport::tx_frames`] (one
    /// `sendmmsg` on the UDP backend for bursts up to the syscall batch
    /// size), instead of one send per request. This is how an open-loop
    /// load generator that has fallen behind its schedule catches up
    /// without paying a syscall per overdue arrival. PUT values ride
    /// the burst as refcounted frame segments — uncopied all the way
    /// into the kernel's gather list.
    pub fn send_batch(&mut self, specs: &[OpSpec]) {
        let sched_ns = self.now_ns();
        for spec in specs {
            self.send_at(spec, sched_ns);
        }
        self.flush();
    }

    /// [`Client::send_batch`] with a per-op scheduled arrival time:
    /// each `(spec, sched_ns)` pair is prepared with its own deadline
    /// (see [`Client::send_at`]) and the whole batch still goes out as
    /// one coalesced [`Transport::tx_frames`] burst. This is the open
    /// loop's catch-up path — overdue arrivals keep their original
    /// deadlines, so the latency histogram charges the backlog to the
    /// requests that sat in it.
    pub fn send_batch_at(&mut self, specs: &[(OpSpec, u64)]) {
        for (spec, sched_ns) in specs {
            self.send_at(spec, *sched_ns);
        }
        self.flush();
    }

    /// Encodes one workload op and registers it as pending (latency
    /// clock starts at `sched_ns`, service clock at now); returns the
    /// encoded message frame and its target queue.
    fn prepare_spec(&mut self, spec: &OpSpec, sched_ns: u64) -> (TxFrame, u16) {
        match spec.op {
            Operation::Get => {
                let queue = self.pick_random_queue();
                self.prepare_message(
                    Body::Get { key: spec.key },
                    spec.key,
                    queue,
                    spec.is_large,
                    sched_ns,
                )
            }
            Operation::Put => {
                let value = vec![(spec.key % 251) as u8; spec.item_size as usize];
                let queue = self.pick_keyhash_queue(spec.key);
                let body = Body::Put {
                    key: spec.key,
                    // The synthesized value moves into the message —
                    // no second copy on the loadgen hot path.
                    value: Bytes::from(value),
                    ttl_ms: spec.ttl_ms,
                };
                self.prepare_message(body, spec.key, queue, spec.is_large, sched_ns)
            }
        }
    }

    /// Sends a GET for `key` to a uniformly random (permitted) RX queue.
    pub fn send_get(&mut self, key: u64, large_hint: bool) {
        let queue = self.pick_random_queue();
        let body = Body::Get { key };
        self.send_message(body, key, queue, large_hint);
    }

    /// Sends a PUT for `key`; the RX queue is derived from the keyhash
    /// (so all fragments of one PUT land in the same queue and writes to
    /// one key are CREW-routable).
    pub fn send_put(&mut self, key: u64, value: &[u8], large_hint: bool) {
        self.send_put_with_ttl(key, value, large_hint, 0);
    }

    /// [`Client::send_put`] with a per-key TTL in milliseconds (`0` =
    /// never expires).
    pub fn send_put_with_ttl(&mut self, key: u64, value: &[u8], large_hint: bool, ttl_ms: u64) {
        let queue = self.pick_keyhash_queue(key);
        let body = Body::Put {
            key,
            value: bytes::Bytes::copy_from_slice(value),
            ttl_ms,
        };
        self.send_message(body, key, queue, large_hint);
    }

    /// Sends a DELETE for `key` (keyhash-routed like PUTs).
    pub fn send_delete(&mut self, key: u64) {
        let queue = self.pick_keyhash_queue(key);
        self.send_message(Body::Delete { key }, key, queue, false);
    }

    fn send_message(&mut self, body: Body, key: u64, queue: u16, large: bool) {
        let sched_ns = self.now_ns();
        let (frame, queue) = self.prepare_message(body, key, queue, large, sched_ns);
        self.stage_request(&frame, queue);
        self.flush();
    }

    /// Encodes a request as a scatter-gather frame and registers it as
    /// pending — everything [`Client::send_message`] does short of
    /// transmitting, so batched senders can coalesce many prepared
    /// requests into one burst.
    fn prepare_message(
        &mut self,
        body: Body,
        key: u64,
        queue: u16,
        large: bool,
        sched_ns: u64,
    ) -> (TxFrame, u16) {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let now = self.now_ns();
        let msg = Message {
            client_id: self.client_id,
            request_id,
            // The low timestamp bit is the hedge marker: originals are
            // always even, the hedge duplicate flips it to odd, and the
            // server echoes the timestamp verbatim — so the client can
            // tell exactly which copy's reply won, no matter which
            // server core the executing side handed the request to.
            client_ts_ns: now & !1,
            body,
        };
        let frame = msg.encode_frame();
        let keep = self.retry.is_some() || self.hedge.is_some();
        self.pending.insert(
            request_id,
            Pending {
                sched_ns,
                first_tx_ns: now,
                last_tx_ns: now,
                retries: 0,
                key,
                large,
                resend: keep.then_some((msg, queue)),
                hedge_queue: None,
            },
        );
        self.totals.sent += 1;
        (frame, queue)
    }

    /// The server endpoint addressing RX queue `queue`.
    fn queue_endpoint(&self, queue: u16) -> Endpoint {
        Endpoint {
            mac: self.server.mac,
            ip: self.server.ip,
            port: self.server.port + queue,
        }
    }

    /// Stages the request `frame` for RX queue `queue` behind whatever
    /// is staged already: fragmented into datagrams of its own — each
    /// fragment's payload segments slices of the frame's, so nothing is
    /// copied whatever the size — or, for a single fragment bound for a
    /// server that walks bundles, appended to the queue's open datagram
    /// ([`stage_message`]). The stage is never sorted: every queue has
    /// at most one open datagram, wherever in the stage it sits, so a
    /// lone request costs one push.
    fn stage_request(&mut self, frame: &TxFrame, queue: u16) {
        let dst = self.queue_endpoint(queue);
        let msg_id = self.next_msg_id;
        self.next_msg_id = msg_id.wrapping_add(1);
        let slot = &mut self.open[usize::from(queue)];
        let (datagrams, carrier) = stage_message(
            &mut self.stage,
            slot.filter(|_| self.server_bundles),
            self.endpoint,
            dst,
            msg_id,
            true,
            frame,
        );
        // A fragmented request closes the queue's datagram: what is
        // staged for one queue leaves in the order it was sent.
        *slot = carrier;
        // A frame that joined a datagram added none.
        self.totals.frames_tx += datagrams.max(1) as u64;
    }

    /// Releases everything staged in one [`Transport::tx_frames`] call
    /// (one `sendmmsg` on the UDP backend instead of a syscall per
    /// datagram). A no-op when nothing is staged.
    pub fn flush(&mut self) {
        if self.stage.is_empty() {
            return;
        }
        let _ = self.transport.tx_frames(0, &mut self.stage);
        // `tx_frames` drains by contract; what a backend refused is
        // dropped like any other tail drop, not re-sent out of order.
        self.stage.clear();
        self.open.fill(None);
    }

    /// The jittered, backed-off timeout for attempt number `retries` of
    /// request `id`: `timeout × backoff^retries` capped at
    /// `max_timeout`, times a deterministic per-(request, attempt)
    /// jitter in `[1.0, 1.25)`.
    fn retry_timeout_ns(policy: &RetryPolicy, id: u64, retries: u32) -> u64 {
        let base = policy.timeout.as_nanos() as f64;
        let cap = policy.max_timeout.as_nanos() as f64;
        let mut t = (base * policy.backoff.powi(retries as i32)).min(cap);
        let h = mix64(id ^ (u64::from(retries) << 48) ^ 0x7edc_a11e);
        t *= 1.0 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.25;
        t as u64
    }

    /// The adaptive hedge delay: the observed service-latency
    /// percentile clamped to the policy's bounds, or the effective cap
    /// until enough samples exist.
    ///
    /// When a retry policy is also active, the cap tightens to half its
    /// first-attempt timeout. The ladder only works hedge-first: under
    /// loss the observed service percentile is dominated by the
    /// retransmit path itself, so an uncapped adaptive delay settles
    /// *above* the retry timeout and hedges stop firing — the
    /// feedback loop would disable exactly the mechanism that breaks
    /// it.
    fn hedge_delay_ns(&self, policy: &HedgePolicy) -> u64 {
        let min = policy.min_delay.as_nanos() as u64;
        let mut max = policy.max_delay.as_nanos() as u64;
        if let Some(retry) = &self.retry {
            max = max.min((retry.timeout.as_nanos() as u64 / 2).max(1));
        }
        if self.service_latency.total() < HEDGE_WARMUP_SAMPLES {
            return max;
        }
        self.service_latency
            .percentile_ns(policy.percentile)
            .unwrap_or(max)
            .clamp(min.min(max), max)
    }

    /// Remembers a completed-or-abandoned request id that may still
    /// have a duplicate reply in flight.
    fn remember_duplicate(&mut self, id: u64) {
        if self.dup_set.insert(id) {
            self.dup_ring.push_back(id);
            if self.dup_ring.len() > DUP_RING_CAP {
                if let Some(old) = self.dup_ring.pop_front() {
                    self.dup_set.remove(&old);
                }
            }
        }
    }

    /// Scans the pending map: resends requests whose (backed-off,
    /// jittered) retry timer expired, abandons requests that exhausted
    /// their budget (explicit [`ClientTotals::timed_out`] loss), and
    /// sends hedge duplicates for small requests stuck past the
    /// adaptive hedge delay. Called from [`Client::poll`]; scan cadence
    /// is a quarter of the shortest active timer. Neither a retry nor a
    /// hedge ever touches `sched_ns`/`first_tx_ns` — the latency clocks
    /// stay coordinated-omission-honest.
    fn scan_pending(&mut self) {
        if self.retry.is_none() && self.hedge.is_none() {
            return;
        }
        let now = self.now_ns();
        if now < self.next_retry_scan_ns {
            return;
        }
        let hedge_delay_ns = self.hedge.map(|h| self.hedge_delay_ns(&h));
        let mut interval = u64::MAX;
        if let Some(policy) = self.retry {
            interval = interval.min((policy.timeout.as_nanos() as u64) / 4);
        }
        if let Some(d) = hedge_delay_ns {
            interval = interval.min(d / 4);
        }
        self.next_retry_scan_ns = now + interval.max(1);

        // Retries and timeouts.
        if let Some(policy) = self.retry {
            let mut due = Vec::new();
            let mut expired = Vec::new();
            for (&id, p) in &self.pending {
                if p.resend.is_none() {
                    continue;
                }
                let t = Self::retry_timeout_ns(&policy, id, p.retries);
                if now.saturating_sub(p.last_tx_ns) < t {
                    continue;
                }
                if p.retries < policy.max_retries {
                    due.push(id);
                } else {
                    expired.push(id);
                }
            }
            for id in due {
                let (msg, queue) = self.pending[&id]
                    .resend
                    .clone()
                    .expect("filtered on resend presence");
                // Re-encoding + re-fragmenting draws a fresh msg id, so
                // stale fragments of the original transmission can never
                // merge with the retry in the server's reassembler.
                let frame = msg.encode_frame();
                self.stage_request(&frame, queue);
                let sent_at = self.now_ns();
                let p = self.pending.get_mut(&id).expect("still pending");
                p.retries += 1;
                p.last_tx_ns = sent_at;
                self.totals.retransmits += 1;
            }
            for id in expired {
                // Out of budget: the request is abandoned and becomes
                // explicit loss — it must not linger in `outstanding`
                // (that would stall drains forever) nor silently vanish.
                self.pending.remove(&id);
                self.totals.timed_out += 1;
                self.remember_duplicate(id);
            }
        }

        // Hedges: one duplicate per request, small class only, to a
        // different queue.
        if let Some(delay) = hedge_delay_ns {
            let span = self.target_queues.len() as u16;
            if span > 1 {
                let due: Vec<u64> = self
                    .pending
                    .iter()
                    .filter(|(_, p)| {
                        p.resend.is_some()
                            && p.hedge_queue.is_none()
                            && !p.large
                            && now.saturating_sub(p.first_tx_ns) >= delay
                    })
                    .map(|(id, _)| *id)
                    .collect();
                for id in due {
                    let (msg, queue) = self.pending[&id]
                        .resend
                        .clone()
                        .expect("filtered on resend presence");
                    let hq =
                        self.target_queues.start + ((queue - self.target_queues.start + 1) % span);
                    let mut hedge_msg = msg;
                    hedge_msg.client_ts_ns |= 1;
                    let frame = hedge_msg.encode_frame();
                    self.stage_request(&frame, hq);
                    let p = self.pending.get_mut(&id).expect("still pending");
                    p.hedge_queue = Some(hq);
                    self.totals.hedges_sent += 1;
                }
            }
        }
    }

    /// Releases what [`Client::send`] staged, then drains reply packets
    /// from the transport, walks their frames, reassembles and matches
    /// them; returns completions observed in this poll. Retries and
    /// hedges that fall due leave before it returns.
    pub fn poll(&mut self) -> Vec<Completion> {
        self.flush();
        let mut out = Vec::new();
        let mut pkts = std::mem::take(&mut self.rx_scratch);
        self.transport.rx_burst(0, &mut pkts, 4096);
        for pkt in pkts.drain(..) {
            // Filter by destination port: over UDP the kernel already
            // isolates sockets, but the virtual adapter drains the
            // server's shared TX rings, where a reply addressed to a
            // different client can surface. Such a reply is dropped
            // here — each engine supports ONE virtual client; loss
            // accounting flags any misuse.
            if pkt.meta.udp.dst_port != self.endpoint.port {
                continue;
            }
            let src = pkt.source_endpoint();
            for frame in frames(pkt.payload) {
                let Ok(frame) = frame else {
                    self.totals.unmatched += 1;
                    break;
                };
                self.totals.frames_rx += 1;
                self.server_bundles |= frame.header.accepts_bundles;
                // Single-fragment replies (the overwhelming majority)
                // decode straight from the datagram payload — no
                // reassembly state, no buffer allocation, no extra copy.
                let reply = if frame.header.count == 1 {
                    Message::decode(frame.into_chunk())
                } else {
                    match self
                        .reassembler
                        .push(src, frame.into_bytes(), ReplySink::open)
                    {
                        Streamed::Complete(sink) => {
                            self.reply_copied_bytes += sink.copied;
                            Message::decode_streamed(&sink.header, Bytes::from(sink.value))
                        }
                        Streamed::Incomplete => continue,
                        _ => None,
                    }
                };
                match reply {
                    Some(msg) => out.extend(self.complete(msg)),
                    None => self.totals.unmatched += 1,
                }
            }
        }
        self.rx_scratch = pkts;
        // A lost reply fragment no longer strands its buffer; its
        // pending-map entry stays for loss accounting.
        let now = self.now_ns();
        self.reassembler.tick(now, CLIENT_REASSEMBLY_ROUND_NS);
        self.scan_pending();
        self.flush();
        out
    }

    /// Stale reply partials evicted by the round clock (plus capacity
    /// and geometry-mismatch drops). Non-zero means reply fragments were
    /// lost on the wire. Reported as `client.reassembly_evictions`.
    pub fn reassembly_evictions(&self) -> u64 {
        self.reassembler.evicted
    }

    fn complete(&mut self, msg: Message) -> Option<Completion> {
        let Some(pending) = self.pending.remove(&msg.request_id) else {
            // A hedge loser or post-timeout straggler: counted and its
            // buffer dropped — distinct from truly inexplicable replies.
            if self.dup_set.contains(&msg.request_id) {
                self.totals.wasted_replies += 1;
            } else {
                self.totals.unmatched += 1;
            }
            return None;
        };
        let now = self.now_ns();
        let latency_ns = now.saturating_sub(pending.sched_ns);
        let service_ns = now.saturating_sub(pending.first_tx_ns);
        let status = match &msg.body {
            Body::GetReply { status, .. }
            | Body::PutReply { status, .. }
            | Body::DeleteReply { status, .. } => *status,
            _ => {
                self.totals.unmatched += 1;
                return None;
            }
        };
        if pending.hedge_queue.is_some() {
            // The echoed timestamp's low bit says which copy this reply
            // answers; the loser's reply (if it ever arrives) will be
            // counted as wasted via the duplicate ring.
            if msg.client_ts_ns & 1 == 1 {
                self.totals.hedge_wins += 1;
            }
            self.remember_duplicate(msg.request_id);
        } else if pending.retries > 0 {
            self.remember_duplicate(msg.request_id);
        }
        self.totals.completed += 1;
        if status != ReplyStatus::Ok {
            self.totals.errors += 1;
        }
        self.latency.record_ns(latency_ns);
        self.service_latency.record_ns(service_ns);
        if pending.large {
            self.latency_large.record_ns(latency_ns);
        } else {
            self.latency_small.record_ns(latency_ns);
        }
        Some(Completion {
            key: pending.key,
            kind: msg.body.kind(),
            status,
            latency_ns,
            service_ns,
            large: pending.large,
        })
    }

    /// Busy-polls until all outstanding requests complete or `timeout`
    /// elapses; returns true on full completion.
    pub fn drain(&mut self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.totals.outstanding() > 0 {
            self.poll();
            if Instant::now() > deadline {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    }

    /// Latency histogram over all completed requests, measured from
    /// each request's scheduled arrival (coordinated-omission-free).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Latency histogram over small requests only — the tail the paper
    /// protects, and the one the discipline shoot-out compares —
    /// schedule-based like [`Client::latency`].
    pub fn latency_small(&self) -> &LatencyHistogram {
        &self.latency_small
    }

    /// Latency histogram over large requests only (Figure 4's metric),
    /// schedule-based like [`Client::latency`].
    pub fn latency_large(&self) -> &LatencyHistogram {
        &self.latency_large
    }

    /// Service-latency histogram: time from each request's *first
    /// transmission* to its reply, over all completed requests. With an
    /// on-schedule sender this equals [`Client::latency`]; the gap
    /// between the two is the scheduling lag coordinated omission used
    /// to hide.
    pub fn service_latency(&self) -> &LatencyHistogram {
        &self.service_latency
    }

    /// Value bytes copied while reassembling multi-fragment replies.
    /// Each streamed value byte is written exactly once into the buffer
    /// the reply hands out, so this equals the total value bytes
    /// received on the large-GET path — any excess would mean an
    /// intermediate copy crept back in. Reported as
    /// `client.reply_copied_bytes`.
    pub fn reply_copied_bytes(&self) -> u64 {
        self.reply_copied_bytes
    }

    /// Requests currently tracked in the pending table. The counter
    /// identity `sent == completed + outstanding + timed_out` is only
    /// trustworthy if [`ClientTotals::outstanding`] (pure counter
    /// arithmetic) agrees with this (the actual table size); the loadgen
    /// report cross-checks the two and raises `accounting_warnings`
    /// when they diverge.
    pub fn pending_len(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Totals snapshot.
    pub fn totals(&self) -> ClientTotals {
        self.totals
    }
}
