//! The traced run: a single-threaded replay of a workload's request
//! stream through the request path's public functions, in the order the
//! client and the server call them, over a real loopback `UdpTransport`
//! pair and an in-process `Store` configured like that workload's
//! server. Every call into a layer runs under a span named after it.
//!
//! What the replay cannot see — thread hand-off, poll loops finding
//! nothing, the kernel delivering to another thread — is the gap
//! between `replay.small_us_per_op` and the live `unloaded_small_p50_us`
//! (`replay.explained_frac`).

use crate::metrics::Values;
use crate::server::base_port;
use crate::span::{self_times_ns, Lap, Recorder, SpanName, LAYER_SPANS};
use crate::stats::{quantile, sorted};
use crate::workloads::{fill_byte, OpStream, Workload, SERVER_CORES};
use bytes::Bytes;
use minos_core::dispatch::{fragment_key, Discipline, DisciplineKind, PlaceCtx, Placement};
use minos_core::ingest::PutIngest;
use minos_core::ShardingPlan;
use minos_kv::{EvictionPolicy, Store};
use minos_net::{Transport, UdpConfig, UdpTransport};
use minos_stats::LatencyHistogram;
use minos_wire::frag::{
    fragment_frame_with_id, FragHeader, FragmentWriter, Streamed, StreamingReassembler,
};
use minos_wire::message::{Body, Message, ReplyStatus, MSG_HEADER_LEN};
use minos_wire::packet::{synthesize_frame, Endpoint, Packet, TxPacket};
use minos_workload::{OpSpec, Operation, Rng};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Requests the traced replay stops at, whatever time is left: bounds
/// the trace file (about a dozen spans per request).
const MAX_TRACED_OPS: u32 = 50_000;
/// How long one request may wait for its datagrams on loopback.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(2);
/// Port slot of the replay's server-side transport, clear of the live
/// run's servers.
const REPLAY_PORT_SLOT: u16 = 9;

/// Times the ingest calls made from inside a reassembler push, so they
/// can be split out of `wire.req_decode` as a `core.ingest` child.
struct TimedIngest {
    inner: PutIngest,
    /// `None` when spans are off: no clock reads then.
    spent_ns: Option<Rc<Cell<u64>>>,
}

impl FragmentWriter for TimedIngest {
    fn write_at(&mut self, offset: usize, chunk: &[u8]) {
        match &self.spent_ns {
            None => self.inner.write_at(offset, chunk),
            Some(spent) => {
                let t = Instant::now();
                self.inner.write_at(offset, chunk);
                spent.set(spent.get() + t.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// The client's reply sink, re-stated: header bytes aside, value bytes
/// straight into the buffer that becomes the reply's value.
struct ReplySink {
    header: [u8; MSG_HEADER_LEN],
    value: Vec<u8>,
}

impl FragmentWriter for ReplySink {
    fn write_at(&mut self, offset: usize, chunk: &[u8]) {
        let head = chunk.len().min(MSG_HEADER_LEN.saturating_sub(offset));
        if head > 0 {
            self.header[offset..offset + head].copy_from_slice(&chunk[..head]);
        }
        let rest = &chunk[head..];
        if !rest.is_empty() {
            let at = offset + head - MSG_HEADER_LEN;
            self.value[at..at + rest.len()].copy_from_slice(rest);
        }
    }
}

struct Replay {
    client: UdpTransport,
    server: UdpTransport,
    client_ep: Endpoint,
    store: Store,
    evicts: bool,
    discipline: Box<dyn Discipline>,
    plan: ShardingPlan,
    ingest: StreamingReassembler<TimedIngest>,
    replies: StreamingReassembler<ReplySink>,
    clock: Instant,
    rng: Rng,
    pkts: Vec<Packet>,
}

fn endpoint_of(pkt: &Packet) -> Endpoint {
    Endpoint {
        mac: pkt.meta.eth.src,
        ip: pkt.meta.ip.src,
        port: pkt.meta.udp.src_port,
    }
}

impl Replay {
    fn new(w: &Workload, seed: u64) -> Result<Replay, String> {
        let server = UdpTransport::bind(UdpConfig::loopback(
            base_port(REPLAY_PORT_SLOT),
            SERVER_CORES,
        ))
        .map_err(|e| format!("replay server bind: {e}"))?;
        let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST)
            .map_err(|e| format!("replay client bind: {e}"))?;
        let config = w.store_config();
        let evicts = config.capacity.policy != EvictionPolicy::None;
        let store = Store::new(config);
        for op in w.ops(seed).preload() {
            // Over-committed workloads fill to the watermark and evict.
            let _ = store.put(op.key, &vec![fill_byte(op.key); op.item_size as usize]);
            if evicts {
                store.capacity_tick(0, 1, 0);
            }
        }
        Ok(Replay {
            client_ep: client.local_endpoint(0),
            client,
            server,
            store,
            evicts,
            discipline: DisciplineKind::SizeAware.build(),
            plan: ShardingPlan::bootstrap(usize::from(SERVER_CORES)),
            ingest: StreamingReassembler::new(16),
            replies: StreamingReassembler::new(16),
            clock: Instant::now(),
            rng: Rng::new(seed ^ 0x5eed),
            pkts: Vec::new(),
        })
    }

    fn place(&self, rx_core: usize, key: u64, size: u64) -> Placement {
        self.discipline.place(&PlaceCtx {
            rx_core,
            n_cores: usize::from(SERVER_CORES),
            key,
            size: Some(size),
            plan: &self.plan,
            depths: &[0usize; SERVER_CORES as usize],
        })
    }

    /// The capacity housekeeping the server's core loop interleaves
    /// with requests; charged to the kv span it follows.
    fn capacity_tick(&self) {
        if self.evicts {
            self.store
                .capacity_tick(0, 1, self.clock.elapsed().as_nanos() as u64);
        }
    }

    /// One request, client to server and back. Returns the reply.
    fn request(&mut self, rec: &mut Recorder, id: u32, op: &OpSpec) -> Result<Message, String> {
        // The client synthesizes the PUT value before it stamps the
        // first transmission; keep it outside the request's spans too.
        let body = match op.op {
            Operation::Get => Body::Get { key: op.key },
            Operation::Put => Body::Put {
                key: op.key,
                value: Bytes::from(vec![fill_byte(op.key); op.item_size as usize]),
                ttl_ms: 0,
            },
        };
        // §3: GETs go to a random RX queue, PUTs to the keyhash's.
        let queue = match op.op {
            Operation::Get => self.rng.index(usize::from(SERVER_CORES)) as u16,
            Operation::Put => (minos_kv::keyhash(op.key) % u64::from(SERVER_CORES)) as u16,
        };
        let server_ep = self.server.local_endpoint(queue);

        let mut lap = rec.start(id, SpanName::ReqEncode);
        let msg = Message {
            client_id: 0,
            request_id: u64::from(id),
            client_ts_ns: 0,
            body,
        };
        let mut burst: Vec<TxPacket> = fragment_frame_with_id(u64::from(id), &msg.encode_frame())
            .into_iter()
            .map(|frag| synthesize_frame(self.client_ep, server_ep, frag))
            .collect();
        let fragments = burst.len();

        rec.next(&mut lap, SpanName::ClientTx);
        if self.client.tx_frames(0, &mut burst) != fragments {
            return Err(format!("request {id}: client tx dropped fragments"));
        }

        let (reply, reply_to) = self.serve(rec, &mut lap, queue, fragments)?;

        let mut burst: Vec<TxPacket> = fragment_frame_with_id(
            (u64::from(queue) << 48) | u64::from(id),
            &reply.encode_frame(),
        )
        .into_iter()
        .map(|frag| synthesize_frame(server_ep, reply_to, frag))
        .collect();
        let fragments = burst.len();
        rec.next(&mut lap, SpanName::ServerTx);
        if self.server.tx_frames(queue, &mut burst) != fragments {
            return Err(format!("request {id}: server tx dropped fragments"));
        }

        let reply = self.receive_reply(rec, &mut lap, fragments)?;
        rec.finish(lap);
        Ok(reply)
    }

    /// The server side of one request: drain `fragments` datagrams from
    /// RX queue `queue`, decode, place, execute. Leaves the lap in
    /// `wire.reply_encode` and returns the reply message and where it
    /// goes.
    fn serve(
        &mut self,
        rec: &mut Recorder,
        lap: &mut Lap,
        queue: u16,
        fragments: usize,
    ) -> Result<(Message, Endpoint), String> {
        let core = usize::from(queue);
        let deadline = Instant::now() + DELIVERY_TIMEOUT;
        let mut received = 0;
        let mut placed = false;
        // Nanoseconds inside ingest calls since the last `core.ingest`
        // span; the writer opened on the first burst keeps adding to it
        // on the later ones.
        let spent = Rc::new(Cell::new(0u64));
        let timed = rec.enabled().then(|| Rc::clone(&spent));
        rec.next(lap, SpanName::ServerRx);
        loop {
            self.pkts.clear();
            let n = self.server.rx_burst(queue, &mut self.pkts, 32);
            if n == 0 {
                if Instant::now() > deadline {
                    return Err(format!("server saw {received}/{fragments} fragments"));
                }
                continue;
            }
            received += n;
            rec.next(lap, SpanName::ReqDecode);
            let mut pkts = std::mem::take(&mut self.pkts);
            let mut rd = pkts[0].payload.clone();
            let fh = FragHeader::decode(&mut rd).ok_or("bad fragment header")?;
            if fh.count == 1 {
                let reply_to = endpoint_of(&pkts[0]);
                let msg = Message::decode(rd).ok_or("request does not decode")?;
                return Ok((self.execute(rec, lap, core, msg)?, reply_to));
            }

            // A multi-fragment message is a large PUT: the owner core is
            // picked once, from the fragment header alone, and every
            // fragment streams into the value's reserved mempool block.
            if !placed {
                placed = true;
                rec.next(lap, SpanName::Place);
                let size = u64::from(fh.msg_len).saturating_sub(MSG_HEADER_LEN as u64);
                self.discipline.place_fragment(&PlaceCtx {
                    rx_core: core,
                    n_cores: usize::from(SERVER_CORES),
                    key: fragment_key(pkts[0].source_endpoint(), fh.msg_id),
                    size: Some(size),
                    plan: &self.plan,
                    depths: &[0usize; SERVER_CORES as usize],
                });
                rec.next(lap, SpanName::ReqDecode);
            }
            let mut done = None;
            for pkt in pkts.drain(..) {
                let reply_to = endpoint_of(&pkt);
                let src = pkt.source_endpoint();
                let store = &self.store;
                let streamed = self.ingest.push(src, pkt.payload, |fh| {
                    let t = timed.as_ref().map(|_| Instant::now());
                    let inner = PutIngest::open(store, fh)?;
                    if let (Some(t), Some(s)) = (t, &timed) {
                        s.set(s.get() + t.elapsed().as_nanos() as u64);
                    }
                    Some(TimedIngest {
                        inner,
                        spent_ns: timed.clone(),
                    })
                });
                match streamed {
                    Streamed::Complete(ingest) => {
                        let t = Instant::now();
                        let put = ingest
                            .inner
                            .commit(&self.store)
                            .ok_or("streamed PUT does not commit")?;
                        self.capacity_tick();
                        spent.set(spent.get() + t.elapsed().as_nanos() as u64);
                        done = Some((put.reply(), reply_to));
                    }
                    Streamed::Incomplete => {}
                    Streamed::Rejected | Streamed::Duplicate => {
                        return Err("server rejected a request fragment".into())
                    }
                }
            }
            self.pkts = pkts;
            rec.child_ending_now(lap, SpanName::Ingest, spent.replace(0));
            if let Some(done) = done {
                rec.next(lap, SpanName::ReplyEncode);
                return Ok(done);
            }
            rec.next(lap, SpanName::ServerRx);
        }
    }

    /// `handle_message_size_aware` for one decoded request: a GET looks
    /// the item up to learn its size, then places; a PUT places by the
    /// size it carries, then writes. A handed-off GET is read again by
    /// the core it was handed to.
    fn execute(
        &mut self,
        rec: &mut Recorder,
        lap: &mut Lap,
        core: usize,
        msg: Message,
    ) -> Result<Message, String> {
        match &msg.body {
            Body::Get { key } => {
                rec.next(lap, SpanName::KvGet);
                let mut value = self.store.get(*key);
                self.capacity_tick();
                if let Some(v) = &value {
                    rec.next(lap, SpanName::Place);
                    if self.place(core, *key, v.len() as u64) != Placement::Local {
                        rec.next(lap, SpanName::KvGet);
                        value = self.store.get(*key);
                    }
                }
                rec.next(lap, SpanName::ReplyEncode);
                let status = if value.is_some() {
                    ReplyStatus::Ok
                } else {
                    ReplyStatus::NotFound
                };
                Ok(msg.reply(status, value.map(Bytes::from_owner)))
            }
            Body::Put { key, value, ttl_ms } => {
                rec.next(lap, SpanName::Place);
                self.place(core, *key, value.len() as u64);
                rec.next(lap, SpanName::KvPut);
                let status = match self.store.put_with_ttl(*key, value, *ttl_ms) {
                    Ok(()) => ReplyStatus::Ok,
                    Err(_) => ReplyStatus::OutOfMemory,
                };
                self.capacity_tick();
                rec.next(lap, SpanName::ReplyEncode);
                Ok(msg.reply(status, None))
            }
            other => Err(format!("replay sent a {:?}", other.kind())),
        }
    }

    /// The client side of the reply: drain `fragments` datagrams and
    /// decode, single-fragment replies in place, larger ones streamed
    /// into their final buffer as `Client::poll` does.
    fn receive_reply(
        &mut self,
        rec: &mut Recorder,
        lap: &mut Lap,
        fragments: usize,
    ) -> Result<Message, String> {
        let deadline = Instant::now() + DELIVERY_TIMEOUT;
        let mut received = 0;
        rec.next(lap, SpanName::ClientRx);
        loop {
            self.pkts.clear();
            let n = self.client.rx_burst(0, &mut self.pkts, 4096);
            if n == 0 {
                if Instant::now() > deadline {
                    return Err(format!("client saw {received}/{fragments} reply fragments"));
                }
                continue;
            }
            received += n;
            rec.next(lap, SpanName::ReplyDecode);
            let mut reply = None;
            for pkt in self.pkts.drain(..) {
                let src = pkt.source_endpoint();
                let mut rd = pkt.payload.clone();
                let fh = FragHeader::decode(&mut rd).ok_or("bad reply fragment header")?;
                if fh.count == 1 {
                    reply = Message::decode(rd);
                    continue;
                }
                let open = |fh: &FragHeader| {
                    let len = (fh.msg_len as usize).checked_sub(MSG_HEADER_LEN)?;
                    Some(ReplySink {
                        header: [0; MSG_HEADER_LEN],
                        value: vec![0; len],
                    })
                };
                if let Streamed::Complete(sink) = self.replies.push(src, pkt.payload, open) {
                    reply = Message::decode_streamed(&sink.header, Bytes::from(sink.value));
                }
            }
            if let Some(reply) = reply {
                return Ok(reply);
            }
            if received >= fragments {
                return Err("reply does not decode".into());
            }
            rec.next(lap, SpanName::ClientRx);
        }
    }
}

/// Checks a reply against what the generator says the key holds.
fn check_reply(op: &OpSpec, reply: &Message, allow_not_found: bool) -> Result<(), String> {
    let bad = |what: String| Err(format!("replay key {}: {what}", op.key));
    match (&op.op, &reply.body) {
        (
            Operation::Put,
            Body::PutReply {
                status: ReplyStatus::Ok,
                ..
            },
        ) => Ok(()),
        (
            Operation::Get,
            Body::GetReply {
                status: ReplyStatus::Ok,
                value,
                ..
            },
        ) => {
            if value.len() as u64 != op.item_size {
                bad(format!("length {} != {}", value.len(), op.item_size))
            } else if value.iter().any(|&b| b != fill_byte(op.key)) {
                bad("bytes differ from the generator's fill".into())
            } else {
                Ok(())
            }
        }
        (
            Operation::Get,
            Body::GetReply {
                status: ReplyStatus::NotFound,
                ..
            },
        ) if allow_not_found => Ok(()),
        (_, body) => bad(format!("unexpected reply {:?}", body.kind())),
    }
}

struct Pass {
    ops: u32,
    wall_ns: f64,
}

/// Replays `stream` until `secs` have passed or `max_ops` are done.
fn pass(
    replay: &mut Replay,
    rec: &mut Recorder,
    stream: &mut OpStream,
    allow_not_found: bool,
    secs: f64,
    max_ops: u32,
) -> Result<Pass, String> {
    let start = Instant::now();
    let mut ops = 0;
    while ops < max_ops && start.elapsed().as_secs_f64() < secs {
        let op = stream.next_op();
        let reply = replay.request(rec, ops, &op)?;
        check_reply(&op, &reply, allow_not_found)?;
        ops += 1;
    }
    Ok(Pass {
        ops,
        wall_ns: start.elapsed().as_nanos() as f64,
    })
}

/// Median per-call time of `f`, timed in batches so the clock reads do
/// not drown a call of a few nanoseconds.
fn per_call_p50_ns(mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 64;
    let per_call: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    quantile(&sorted(per_call), 0.5).expect("non-empty")
}

pub struct ReplayResult {
    /// The traced half of the per-layer metrics.
    pub layers: Values,
    pub recorder: Recorder,
    pub wall_s: f64,
}

/// The traced replay of `w`, then the same requests again with span
/// recording off. `unloaded_small_p50_us` is the live run's figure the
/// replay's small-request time is set against.
pub fn run(
    w: &Workload,
    seed: u64,
    traced_secs: f64,
    unloaded_small_p50_us: f64,
) -> Result<ReplayResult, String> {
    let started = Instant::now();
    let mut replay = Replay::new(w, seed)?;
    let mut rec = Recorder::new(true);
    let traced = pass(
        &mut replay,
        &mut rec,
        &mut w.ops(seed),
        w.allows_not_found(),
        traced_secs,
        MAX_TRACED_OPS,
    )?;
    if traced.ops == 0 {
        return Err("replay completed no request".into());
    }
    let untraced = pass(
        &mut replay,
        &mut Recorder::new(false),
        &mut w.ops(seed),
        w.allows_not_found(),
        traced_secs * 4.0,
        traced.ops,
    )?;

    let spans = rec.spans();
    let selfs = self_times_ns(spans);
    let ops = f64::from(traced.ops);
    let mut layers = Values::new();
    for name in LAYER_SPANS {
        let mine: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .collect();
        let total: f64 = mine.iter().sum();
        layers.insert(
            format!("{}_p50_ns", name.as_str()),
            quantile(&sorted(mine), 0.5).unwrap_or(0.0),
        );
        layers.insert(format!("{}_ns_per_op", name.as_str()), total / ops);
    }
    let roots: Vec<&crate::span::Span> = spans
        .iter()
        .filter(|s| s.name == SpanName::Request)
        .collect();
    let root_ns: f64 = roots.iter().map(|s| s.duration_ns() as f64).sum();
    // Replay the stream once more, without the server, to learn which
    // request ids were small-class.
    let mut classes = w.ops(seed);
    let small_ns: Vec<f64> = roots
        .iter()
        .filter(|_| !classes.next_op().is_large)
        .map(|s| s.duration_ns() as f64)
        .collect();
    let small_us = small_ns.iter().sum::<f64>() / small_ns.len().max(1) as f64 / 1e3;

    let mut stream = w.ops(seed);
    layers.insert(
        "workload.next_op_p50_ns".into(),
        per_call_p50_ns(|| {
            std::hint::black_box(stream.next_op());
        }),
    );
    let mut hist = LatencyHistogram::new();
    let mut x = 1u64;
    layers.insert(
        "stats.record_p50_ns".into(),
        per_call_p50_ns(|| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record_ns(std::hint::black_box(x >> 40));
        }),
    );
    layers.insert("replay.ops".into(), ops);
    layers.insert("replay.us_per_op".into(), root_ns / ops / 1e3);
    layers.insert("replay.small_us_per_op".into(), small_us);
    layers.insert(
        "replay.explained_frac".into(),
        small_us / unloaded_small_p50_us,
    );
    layers.insert(
        "trace.overhead_frac".into(),
        (traced.wall_ns / ops) / (untraced.wall_ns / f64::from(untraced.ops)) - 1.0,
    );
    Ok(ReplayResult {
        layers,
        recorder: rec,
        wall_s: started.elapsed().as_secs_f64(),
    })
}
