//! Shared plumbing for the baseline engines.

use crossbeam::queue::ArrayQueue;
use minos_core::server::{execute, transmit_reply, ServerRequest};
use minos_kv::{Store, StoreConfig};
use minos_net::Transport;
use minos_nic::{NicConfig, VirtualNic};
use minos_stats::{CoreStats, SharedCoreStats};
use minos_wire::message::Message;
use minos_wire::packet::{Endpoint, Packet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration shared by all baseline engines.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Server cores.
    pub n_cores: usize,
    /// RX batch size (32, same as Minos).
    pub batch_size: usize,
    /// Store geometry.
    pub store: StoreConfig,
    /// NIC ring capacity.
    pub nic_queue_capacity: usize,
    /// Software queue capacity (SHO handoff queues / WS steal queues).
    pub soft_queue_capacity: usize,
}

impl BaselineConfig {
    /// A config sized for functional tests.
    pub fn for_test(n_cores: usize, n_items: usize) -> Self {
        BaselineConfig {
            n_cores,
            batch_size: 32,
            store: StoreConfig::for_items(n_cores * 4, n_items, 1 << 30),
            nic_queue_capacity: 65_536,
            soft_queue_capacity: 65_536,
        }
    }
}

/// State shared by the cores of one baseline engine.
///
/// Generic over the packet [`Transport`] so the same engines run both
/// over the in-process virtual NIC (functional tests, simulation) and
/// over real SO_REUSEPORT UDP sockets (the figures sweep). The default
/// keeps the historical constructor signature compiling unchanged.
pub struct BaseShared<T: Transport = VirtualNic> {
    /// The packet transport (one RX/TX queue pair per core).
    pub transport: Arc<T>,
    /// The store.
    pub store: Arc<Store>,
    /// Per-core counters.
    pub stats: Vec<SharedCoreStats>,
    /// Per-core software queues (usage depends on the engine).
    pub soft_queues: Vec<ArrayQueue<QueueItem>>,
    /// Shutdown flag.
    pub shutdown: AtomicBool,
    /// Malformed-input counter.
    pub malformed: AtomicU64,
    /// Software-queue overflow counter.
    pub soft_drops: AtomicU64,
    /// Per-core reply message ids.
    pub msg_ids: Vec<AtomicU64>,
    /// RX batch size.
    pub batch_size: usize,
    /// Core count.
    pub n_cores: usize,
}

/// Items in baseline software queues.
pub enum QueueItem {
    /// A complete request.
    Request(ServerRequest),
}

impl BaseShared {
    /// Builds the shared state over a fresh virtual NIC.
    pub fn new(config: &BaselineConfig) -> Arc<Self> {
        Self::with_transport(
            config,
            Arc::new(VirtualNic::new(
                NicConfig::new(config.n_cores as u16)
                    .with_queue_capacity(config.nic_queue_capacity),
            )),
        )
    }
}

impl<T: Transport> BaseShared<T> {
    /// Builds the shared state over an externally constructed transport.
    /// The transport must expose exactly one RX/TX queue pair per core.
    pub fn with_transport(config: &BaselineConfig, transport: Arc<T>) -> Arc<Self> {
        assert_eq!(
            transport.num_queues(),
            config.n_cores as u16,
            "transport must have one queue per core"
        );
        Arc::new(BaseShared {
            transport,
            store: Arc::new(Store::new(config.store.clone())),
            stats: (0..config.n_cores)
                .map(|_| SharedCoreStats::new())
                .collect(),
            soft_queues: (0..config.n_cores)
                .map(|_| ArrayQueue::new(config.soft_queue_capacity))
                .collect(),
            shutdown: AtomicBool::new(false),
            malformed: AtomicU64::new(0),
            soft_drops: AtomicU64::new(0),
            msg_ids: (0..config.n_cores).map(|_| AtomicU64::new(0)).collect(),
            batch_size: config.batch_size,
            n_cores: config.n_cores,
        })
    }

    /// The server endpoint answering on `core`'s TX queue.
    pub fn endpoint(&self, core: usize) -> Endpoint {
        self.transport.local_endpoint(core as u16)
    }

    /// The reply endpoint embedded in a request packet.
    pub fn endpoint_of(pkt: &Packet) -> Endpoint {
        Endpoint {
            mac: pkt.meta.eth.src,
            ip: pkt.meta.ip.src,
            port: pkt.meta.udp.src_port,
        }
    }

    /// Executes `req` on `core` and transmits the reply on `core`'s TX
    /// queue — the identical code path Minos uses.
    pub fn execute_and_reply(&self, core: usize, req: ServerRequest) {
        let Some((status, value, was_get, large)) = execute(&self.store, &req.msg) else {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if was_get {
            self.stats[core].record_get(large);
        } else {
            self.stats[core].record_put(large);
        }
        let msg_id = ((core as u64) << 48)
            | (self.msg_ids[core].fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF_FFFF);
        let sent = transmit_reply(
            &*self.transport,
            core as u16,
            self.endpoint(core),
            &req,
            status,
            value,
            msg_id,
        );
        self.stats[core].record_tx(sent.packets, sent.frames, sent.bytes);
    }

    /// Parses one RX packet into a complete request if possible, feeding
    /// `reassembler` with fragments. Returns `None` while a message is
    /// still incomplete (or on malformed input, which is counted).
    pub fn packet_to_request(
        &self,
        core: usize,
        reassembler: &mut minos_wire::frag::Reassembler,
        pkt: Packet,
    ) -> Option<ServerRequest> {
        use minos_wire::frag::Reassembly;
        self.stats[core].record_rx(1, 1, pkt.wire_len() as u64);
        let reply_to = Self::endpoint_of(&pkt);
        match reassembler.push(pkt.source_endpoint(), pkt.payload) {
            Reassembly::Complete(bytes) => match Message::decode(bytes) {
                Some(msg) => Some(ServerRequest {
                    msg,
                    reply_to,
                    accepts_bundles: false,
                    arrival_ns: 0,
                }),
                None => {
                    self.malformed.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            Reassembly::Incomplete => None,
            _ => {
                self.malformed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`Self::packet_to_request`] but against an engine-global
    /// reassembler. Needed under work stealing: packet batches stolen
    /// from another core's RX queue can split one fragmented message
    /// across cores, so fragment state must be shared. Single-fragment
    /// packets (the overwhelming majority) take a lock-free fast path.
    pub fn packet_to_request_shared(
        &self,
        core: usize,
        reassembler: &parking_lot::Mutex<minos_wire::frag::Reassembler>,
        pkt: Packet,
    ) -> Option<ServerRequest> {
        use minos_wire::frag::{FragHeader, Reassembly};
        self.stats[core].record_rx(1, 1, pkt.wire_len() as u64);
        let reply_to = Self::endpoint_of(&pkt);
        let mut rd = pkt.payload.clone();
        let Some(fh) = FragHeader::decode(&mut rd) else {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if fh.count == 1 {
            // Complete in one packet: no shared state touched.
            return match Message::decode(rd) {
                Some(msg) => Some(ServerRequest {
                    msg,
                    reply_to,
                    accepts_bundles: false,
                    arrival_ns: 0,
                }),
                None => {
                    self.malformed.fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
        }
        match reassembler.lock().push(pkt.source_endpoint(), pkt.payload) {
            Reassembly::Complete(bytes) => match Message::decode(bytes) {
                Some(msg) => Some(ServerRequest {
                    msg,
                    reply_to,
                    accepts_bundles: false,
                    arrival_ns: 0,
                }),
                None => {
                    self.malformed.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            Reassembly::Incomplete => None,
            _ => {
                self.malformed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Per-core statistics snapshots.
    pub fn stats_snapshot(&self) -> Vec<CoreStats> {
        self.stats.iter().map(|s| s.snapshot()).collect()
    }
}

/// Spawns one named polling thread per core.
pub fn spawn_cores<F>(n: usize, prefix: &str, f: F) -> Vec<std::thread::JoinHandle<()>>
where
    F: Fn(usize) + Send + Sync + Clone + 'static,
{
    (0..n)
        .map(|core| {
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("{prefix}-{core}"))
                .spawn(move || f(core))
                .expect("spawn core thread")
        })
        .collect()
}
