//! [`UdpTransport`]: real kernel UDP sockets behind the [`Transport`]
//! contract.
//!
//! One `SO_REUSEPORT` UDP socket per simulated RX queue: queue `q` is
//! bound to `base_port + q`, so the kernel's port demultiplexing plays
//! the role of the NIC's Flow-Director dispatch and clients address a
//! specific RX queue by destination port — exactly the paper's §3
//! client-addresses-RX-queue model, with the UDP port plane standing in
//! for queue ids. `SO_REUSEPORT` is set on every socket so multiple
//! server processes (or a restarting one) can share the port plane; with
//! one process per port the option is inert but harmless.
//!
//! On the wire each datagram carries exactly the UDP payload of the
//! virtual world (fragment header + message chunk); Ethernet/IP framing
//! is the kernel's business here. Received datagrams are re-synthesized
//! into [`Packet`]s (real peer address → [`Endpoint`]; the kernel
//! already checked the checksum) so everything above the transport —
//! reassembly, classification, handoff — sees the same payloads on
//! every backend.
//!
//! # Syscall batching and segmentation offload
//!
//! The paper's prototype moves requests in DPDK bursts and sends a
//! large reply as a multi-packet train the NIC takes in one go (§3,
//! §4.1). The kernel-sockets analog has two layers, neither of them a
//! setting:
//!
//! * `recvmmsg`/`sendmmsg` move up to [`BATCH`] messages per syscall
//!   through preallocated per-queue arenas ([`crate::batch`]). They are
//!   the only syscall path: a kernel that refuses them (a seccomp
//!   filter's `ENOSYS`) meets the ordinary error handling, a bounded
//!   skip on receive and a counted tail-drop on send.
//! * On top of that, a *message* need not be one datagram. On send,
//!   every run of same-destination, equal-length frames (the last may
//!   be shorter; at most 44 frames / 65 507 bytes) is one `mmsghdr`
//!   with a `UDP_SEGMENT` record: the kernel walks its stack once per
//!   train and cuts it into datagrams at the bottom. On receive, every
//!   socket sets `UDP_GRO` when it is bound, takes a whole train per
//!   slot, and splits it back into the per-datagram [`Packet`]s
//!   the engine sees on every backend. A single frame goes out exactly
//!   as before, and a peer that never asked for trains receives each
//!   fragment as its own datagram (the kernel segments on its behalf).
//!   Availability is probed: the first train the kernel refuses is
//!   re-sent as plain datagrams and offload stays off for the process
//!   ([`UdpIoStats::offload`]).
//!
//! A 500 KB reply (344 fragments) thus costs 1 `sendmmsg` and 8 stack
//! traversals instead of 11 and 344. [`UdpTransport::io_stats`]
//! reports syscall, datagram and train counts so the savings are
//! observable; `rx_packets`/`tx_packets` keep counting datagrams on
//! the wire.
//!
//! # Scatter-gather TX
//!
//! The primary send method is [`Transport::tx_frames`]: each
//! [`TxPacket`] reaches the kernel as a multi-iovec gather list (inline
//! header iovec + one iovec per refcounted value segment) through
//! `sendmmsg`; a train is the gather lists of its frames back to back.
//! So value bytes flow from the store's mempool to the wire with zero
//! copies in this layer: [`UdpIoStats::tx_copied_bytes`] reads 0 by
//! construction.

use crate::batch::{RxArena, TxArena, RX_SLOT_LEN, RX_SPILL_LEN};
use crate::pool::{BufferPool, PoolStats};
use crate::sys;
use crate::transport::{RxReadiness, Transport, TransportStats};
use minos_wire::frame::MacAddr;
use minos_wire::packet::{synthesize, Endpoint, Packet, TxPacket};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long one `tx_frames` call may retry a send that hits a full
/// socket buffer before tail-dropping. Mirrors a NIC TX ring absorbing
/// a burst.
const SEND_BACKOFF: Duration = Duration::from_millis(20);

/// The paper's burst size `B` (§4.1, "requests are moved in batches"):
/// the most messages one `recvmmsg`/`sendmmsg` call moves, and the
/// engine's per-poll batch (`minos_core::config::BATCH` names this
/// constant).
pub const BATCH: usize = 32;

/// Configuration for [`UdpTransport::bind`].
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Address to bind (the server's IP; `127.0.0.1` for loopback runs).
    pub ip: Ipv4Addr,
    /// Port of queue 0; queue `q` binds `base_port + q`.
    pub base_port: u16,
    /// Number of RX/TX queue pairs (sockets).
    pub num_queues: u16,
    /// Socket send/receive buffer size, bytes. Large fragmented replies
    /// burst hundreds of datagrams; defaults to 4 MiB.
    pub socket_buffer_bytes: usize,
    /// Slots in the RX buffer pool shared by all queues (each slot holds
    /// one MTU-sized datagram). `0` auto-sizes to
    /// `num_queues * BATCH * 16`, floored at 256 — enough for the
    /// in-flight bursts plus payloads the engine briefly holds. An
    /// exhausted pool falls back to per-datagram allocation and counts a
    /// miss ([`UdpIoStats::pool_misses`]); it never fails.
    pub pool_slots: usize,
}

impl UdpConfig {
    /// A loopback server config: `127.0.0.1`, `num_queues` sockets from
    /// `base_port`.
    pub fn loopback(base_port: u16, num_queues: u16) -> Self {
        UdpConfig {
            ip: Ipv4Addr::LOCALHOST,
            base_port,
            num_queues,
            socket_buffer_bytes: 4 << 20,
            pool_slots: 0,
        }
    }

    /// A single-queue client config on an ephemeral port: what
    /// [`UdpTransport::bind_client`] uses, exposed so callers can adjust
    /// the socket buffer or pool size first.
    pub fn client(ip: Ipv4Addr) -> Self {
        UdpConfig {
            ip,
            base_port: 0, // ephemeral
            num_queues: 1,
            socket_buffer_bytes: 4 << 20,
            pool_slots: 0,
        }
    }

    /// The pool size [`UdpConfig::pool_slots`] of `0` resolves to.
    fn effective_pool_slots(&self) -> usize {
        if self.pool_slots > 0 {
            self.pool_slots
        } else {
            (self.num_queues as usize * BATCH * 16).max(256)
        }
    }
}

/// Syscall-level I/O statistics of a [`UdpTransport`]: how many
/// `recvmmsg`/`sendmmsg` calls moved how many datagrams. `rx_packets /
/// rx_syscalls` is the achieved RX batching factor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdpIoStats {
    /// Receive syscalls issued (`recvmmsg`).
    pub rx_syscalls: u64,
    /// Transmit syscalls issued (`sendmmsg`).
    pub tx_syscalls: u64,
    /// Datagrams received (mirror of [`TransportStats::rx_packets`]).
    pub rx_packets: u64,
    /// Datagrams transmitted (mirror of [`TransportStats::tx_packets`]).
    pub tx_packets: u64,
    /// Whether segmentation offload is in use: runs of
    /// equal-length frames leave as one `UDP_SEGMENT` train per
    /// `mmsghdr`, and receive sockets coalesce (`UDP_GRO`). False once
    /// the kernel has refused a train.
    pub offload: bool,
    /// Trains sent (messages of two or more datagrams).
    pub tx_trains: u64,
    /// Datagrams that left inside those trains (a subset of
    /// `tx_packets`).
    pub tx_train_packets: u64,
    /// Trains received (coalesced receives of two or more datagrams).
    pub rx_trains: u64,
    /// Datagrams that arrived inside those trains (a subset of
    /// `rx_packets`).
    pub rx_train_packets: u64,
    /// RX buffer-pool takes served from the preallocated slab.
    pub pool_hits: u64,
    /// RX buffer-pool takes that fell back to a heap allocation.
    pub pool_misses: u64,
    /// Received payloads whose pooled buffer is still checked out
    /// (returns to zero once every received payload has been dropped;
    /// the datagrams of a train share a buffer and each counts until
    /// it is home).
    pub pool_outstanding: u64,
    /// Payload *segment* bytes the TX path had to copy to reach the
    /// wire: 0 by construction, because `sendmmsg` takes every segment
    /// as its own iovec — the asserted "GET replies reach the wire with
    /// zero value-byte copies" invariant, read from the same gauge on
    /// every backend (the in-process ones do gather, and count there).
    pub tx_copied_bytes: u64,
}

impl UdpIoStats {
    /// Fraction of RX buffers served without an allocation, in
    /// `[0, 1]`; 1.0 before any traffic.
    pub fn pool_hit_rate(&self) -> f64 {
        crate::pool::hit_rate(self.pool_hits, self.pool_misses)
    }
}

/// A multi-queue transport over real UDP sockets.
#[derive(Debug)]
pub struct UdpTransport {
    sockets: Vec<UdpSocket>,
    rx_queues: Vec<Mutex<RxQueue>>,
    tx_arenas: Vec<Mutex<TxArena>>,
    /// Slab of RX payload buffers shared by all queues, so the hot path
    /// allocates nothing.
    pool: BufferPool,
    /// Slab of train spill buffers ([`RX_SPILL_LEN`] bytes each): the
    /// second buffer of every `recvmmsg` slot on a coalescing socket.
    /// Its counters are reported summed into the `pool.*` gauges.
    spill_pool: BufferPool,
    ip: Ipv4Addr,
    base_port: u16,
    rx_packets: AtomicU64,
    rx_bytes: AtomicU64,
    tx_packets: AtomicU64,
    tx_bytes: AtomicU64,
    tx_dropped: AtomicU64,
    rx_syscalls: AtomicU64,
    tx_syscalls: AtomicU64,
    tx_trains: AtomicU64,
    tx_train_packets: AtomicU64,
    rx_trains: AtomicU64,
    rx_train_packets: AtomicU64,
}

/// The full-socket-buffer backoff of one `tx_frames` call: up to
/// [`SEND_BACKOFF`] of 50 µs sleeps, counted from the first
/// time the kernel pushes back — a send that never meets back-pressure
/// never reads the clock.
#[derive(Default)]
struct TxBackoff {
    deadline: Option<Instant>,
}

impl TxBackoff {
    /// Sleeps one backoff step; `false` once the budget is spent (the
    /// caller tail-drops).
    fn wait(&mut self) -> bool {
        let now = Instant::now();
        if now >= *self.deadline.get_or_insert(now + SEND_BACKOFF) {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
        true
    }
}

/// The receive state of one queue.
struct RxQueue {
    arena: RxArena,
    /// Datagrams of a train that did not fit the caller's `max`: a
    /// `recvmmsg` slot can deliver a whole train, so a burst may
    /// receive more than it may return. They lead the next burst.
    pending: VecDeque<Packet>,
}

impl std::fmt::Debug for RxQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RxQueue({} pending)", self.pending.len())
    }
}

impl std::fmt::Debug for TxArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TxArena")
    }
}

impl UdpTransport {
    /// Binds `config.num_queues` `SO_REUSEPORT` sockets on consecutive
    /// ports starting at `config.base_port`.
    ///
    /// Fails with `InvalidInput` if the port range would overflow the
    /// u16 port space.
    pub fn bind(config: UdpConfig) -> std::io::Result<Self> {
        assert!(config.num_queues > 0, "at least one queue");
        if config
            .base_port
            .checked_add(config.num_queues - 1)
            .is_none()
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "port range {}+{} queues exceeds 65535",
                    config.base_port, config.num_queues
                ),
            ));
        }
        let mut sockets = Vec::with_capacity(config.num_queues as usize);
        for q in 0..config.num_queues {
            let addr = SocketAddrV4::new(config.ip, config.base_port + q);
            let socket = sys::bind_udp(addr, config.socket_buffer_bytes, true)?;
            socket.set_nonblocking(true)?;
            sockets.push(socket);
        }
        Ok(Self::from_sockets(
            sockets,
            config.ip,
            config.base_port,
            &config,
        ))
    }

    /// Binds a single-queue client transport on an ephemeral port with
    /// default buffering; see [`UdpTransport::bind_client_with`] to
    /// control the socket buffer size.
    pub fn bind_client(ip: Ipv4Addr) -> std::io::Result<Self> {
        Self::bind_client_with(UdpConfig::client(ip))
    }

    /// Binds a single-queue client transport honoring `config`'s socket
    /// buffer size, pool size and bind address (`config.base_port` of 0
    /// picks an ephemeral port; `config.num_queues` must be 1). The
    /// socket shares its port with no other, so every live client owns
    /// its port and receives only its own replies.
    pub fn bind_client_with(config: UdpConfig) -> std::io::Result<Self> {
        assert_eq!(config.num_queues, 1, "client transports are single-queue");
        let socket = sys::bind_udp(
            SocketAddrV4::new(config.ip, config.base_port),
            config.socket_buffer_bytes,
            false,
        )?;
        socket.set_nonblocking(true)?;
        let local = match socket.local_addr()? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(_) => unreachable!("bound v4"),
        };
        let (ip, port) = (*local.ip(), local.port());
        Ok(Self::from_sockets(vec![socket], ip, port, &config))
    }

    fn from_sockets(
        sockets: Vec<UdpSocket>,
        ip: Ipv4Addr,
        base_port: u16,
        config: &UdpConfig,
    ) -> Self {
        // One freelist shard per queue: concurrently polling cores take
        // from (and recycle to) their own shard, stealing on empty.
        let pool = BufferPool::sharded(config.effective_pool_slots(), RX_SLOT_LEN, sockets.len());
        // Every slot of every arena stages one spill buffer, and as many
        // again may be out with the engine. (The slab is address space
        // until a train is written into it; see `pool::Slab`.)
        let spill_pool =
            BufferPool::sharded(sockets.len() * BATCH * 2, RX_SPILL_LEN, sockets.len());
        UdpTransport {
            rx_queues: sockets
                .iter()
                .enumerate()
                .map(|(q, socket)| {
                    let fd = socket.as_raw_fd();
                    Mutex::new(RxQueue {
                        arena: RxArena::new(fd, pool.clone(), spill_pool.clone(), q),
                        pending: VecDeque::new(),
                    })
                })
                .collect(),
            tx_arenas: sockets
                .iter()
                .map(|_| Mutex::new(TxArena::default()))
                .collect(),
            pool,
            spill_pool,
            sockets,
            ip,
            base_port,
            rx_packets: AtomicU64::new(0),
            rx_bytes: AtomicU64::new(0),
            tx_packets: AtomicU64::new(0),
            tx_bytes: AtomicU64::new(0),
            tx_dropped: AtomicU64::new(0),
            rx_syscalls: AtomicU64::new(0),
            tx_syscalls: AtomicU64::new(0),
            tx_trains: AtomicU64::new(0),
            tx_train_packets: AtomicU64::new(0),
            rx_trains: AtomicU64::new(0),
            rx_train_packets: AtomicU64::new(0),
        }
    }

    /// Port of queue 0.
    pub fn base_port(&self) -> u16 {
        self.base_port
    }

    /// The bound IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Syscall-level I/O statistics.
    pub fn io_stats(&self) -> UdpIoStats {
        let pool = self.pool_stats();
        UdpIoStats {
            rx_syscalls: self.rx_syscalls.load(Ordering::Relaxed),
            tx_syscalls: self.tx_syscalls.load(Ordering::Relaxed),
            rx_packets: self.rx_packets.load(Ordering::Relaxed),
            tx_packets: self.tx_packets.load(Ordering::Relaxed),
            offload: sys::offload_available(),
            tx_trains: self.tx_trains.load(Ordering::Relaxed),
            tx_train_packets: self.tx_train_packets.load(Ordering::Relaxed),
            rx_trains: self.rx_trains.load(Ordering::Relaxed),
            rx_train_packets: self.rx_train_packets.load(Ordering::Relaxed),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_outstanding: pool.outstanding,
            tx_copied_bytes: 0,
        }
    }

    /// RX buffer-pool counters (the gauge source behind
    /// [`UdpIoStats::pool_hits`] and friends): the MTU-slot slab and
    /// the train spill slab, summed.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats().merged(self.spill_pool.stats())
    }
}

/// Maps a real IPv4 address + port into the wire stack's [`Endpoint`]
/// plane: the IP becomes both the `Endpoint::ip` and the host id the
/// synthetic MAC derives from. The single source of truth for how real
/// peers appear to the engine — `minos-loadgen` uses it to address a
/// remote server.
pub fn endpoint_for(ip: Ipv4Addr, port: u16) -> Endpoint {
    let ip_u32 = u32::from(ip);
    Endpoint {
        mac: MacAddr::from_host_id(ip_u32),
        ip: ip_u32,
        port,
    }
}

impl Transport for UdpTransport {
    fn num_queues(&self) -> u16 {
        self.sockets.len() as u16
    }

    /// One `recvmmsg` per up-to-[`BATCH`] slots, each slot a datagram
    /// or (on a coalescing socket) a whole train.
    fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        let fd = self.sockets[queue as usize].as_raw_fd();
        let local = self.local_endpoint(queue);
        let mut guard = self.rx_queues[queue as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let RxQueue { arena, pending } = &mut *guard;
        // What an earlier burst received beyond its `max` goes first.
        let mut moved = pending.len().min(max);
        out.extend(pending.drain(..moved));
        let mut received = 0u64;
        let mut bytes = 0u64;
        let mut trains = 0u64;
        let mut train_packets = 0u64;
        // Bound non-datagram outcomes so a persistently erroring socket
        // cannot wedge the polling core inside one burst.
        let mut error_rounds = 0usize;
        while moved < max {
            let want = (max - moved).min(BATCH);
            self.rx_syscalls.fetch_add(1, Ordering::Relaxed);
            let result = arena.recv_batch(fd, want, |peer, payload| {
                // `payload` is a window into the pooled buffer the
                // kernel filled — no copy, no allocation on this path.
                let src = endpoint_for(*peer.ip(), peer.port());
                let pkt = synthesize(src, local, payload);
                received += 1;
                bytes += pkt.wire_len() as u64;
                if moved < max {
                    out.push(pkt);
                    moved += 1;
                } else {
                    pending.push_back(pkt);
                }
            });
            match result {
                Ok(batch) => {
                    trains += batch.trains as u64;
                    train_packets += batch.train_packets as u64;
                    if batch.slots < want {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient ICMP-driven errors (connection refused on
                    // a prior send) surface on recv; skip them, bounded.
                    error_rounds += 1;
                    if error_rounds >= max {
                        break;
                    }
                }
            }
        }
        if received > 0 {
            self.rx_packets.fetch_add(received, Ordering::Relaxed);
            self.rx_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        if trains > 0 {
            self.rx_trains.fetch_add(trains, Ordering::Relaxed);
            self.rx_train_packets
                .fetch_add(train_packets, Ordering::Relaxed);
        }
        moved
    }

    /// One `sendmmsg` per up-to-[`BATCH`] messages — each a datagram
    /// or, with segmentation offload, a train of up to 44 — every frame
    /// carried as a multi-iovec gather list (header iovec + value
    /// iovecs; zero segment-byte copies), with a brief full-buffer
    /// backoff. What the kernel does not take is tail-dropped and
    /// counted in `tx_dropped`.
    fn tx_frames(&self, queue: u16, frames: &mut Vec<TxPacket>) -> usize {
        if frames.is_empty() {
            return 0;
        }
        let fd = self.sockets[queue as usize].as_raw_fd();
        let mut arena = self.tx_arenas[queue as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let total = frames.len();
        let mut sent = 0usize;
        let mut bytes = 0u64;
        let mut trains = 0u64;
        let mut train_packets = 0u64;
        let mut backoff = TxBackoff::default();
        while sent < total {
            self.tx_syscalls.fetch_add(1, Ordering::Relaxed);
            match arena.send_frames(fd, &frames[sent..]) {
                Ok(batch) => {
                    for pkt in &frames[sent..sent + batch.frames] {
                        bytes += pkt.wire_len() as u64;
                    }
                    sent += batch.frames;
                    trains += batch.trains as u64;
                    train_packets += batch.train_packets as u64;
                    // Full socket buffer: the kernel-side analog of a
                    // full TX ring. Back off briefly, then tail-drop.
                    if batch.short && !backoff.wait() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !backoff.wait() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Hard error on the head datagram: tail-drop the rest,
                // preserving FIFO order on the wire.
                Err(_) => break,
            }
        }
        if sent > 0 {
            self.tx_packets.fetch_add(sent as u64, Ordering::Relaxed);
            self.tx_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        if trains > 0 {
            self.tx_trains.fetch_add(trains, Ordering::Relaxed);
            self.tx_train_packets
                .fetch_add(train_packets, Ordering::Relaxed);
        }
        if sent < total {
            self.tx_dropped
                .fetch_add((total - sent) as u64, Ordering::Relaxed);
        }
        frames.clear();
        sent
    }

    fn local_endpoint(&self, queue: u16) -> Endpoint {
        endpoint_for(self.ip, self.base_port + queue)
    }

    /// The socket, which polls readable while datagrams are queued;
    /// due now while an earlier burst left datagrams pending. A burst
    /// holding the queue's lock will take its own pending ones.
    fn rx_readiness(&self, queue: u16) -> RxReadiness {
        let pending = self.rx_queues[queue as usize]
            .try_lock()
            .is_ok_and(|rx| !rx.pending.is_empty());
        RxReadiness {
            fd: Some(self.sockets[queue as usize].as_raw_fd()),
            due_in_ns: pending.then_some(0),
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            rx_packets: self.rx_packets.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_packets: self.tx_packets.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            tx_dropped: self.tx_dropped.load(Ordering::Relaxed),
            tx_copied_bytes: 0,
        }
    }

    fn collect_metrics(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
        crate::metrics::push_transport_stats(out, &self.stats());
        crate::metrics::push_pool_stats(out, &self.pool_stats());
        let io = self.io_stats();
        let counter = |name: &str, v: u64| (name.to_string(), minos_obs::MetricValue::Counter(v));
        let flag = |name: &str, on: bool| {
            let v = if on { 1.0 } else { 0.0 };
            (name.to_string(), minos_obs::MetricValue::Gauge(v))
        };
        out.push(counter("transport.rx_syscalls", io.rx_syscalls));
        out.push(counter("transport.tx_syscalls", io.tx_syscalls));
        out.push(flag("transport.offload", io.offload));
        out.push(counter("transport.tx_trains", io.tx_trains));
        out.push(counter("transport.tx_train_packets", io.tx_train_packets));
        out.push(counter("transport.rx_trains", io.rx_trains));
        out.push(counter("transport.rx_train_packets", io.rx_train_packets));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use minos_wire::packet::synthesize;

    /// Disjoint, PID-salted port ranges per bound server: these are
    /// `SO_REUSEPORT` sockets, so a bind over another live test server
    /// — in this process or a concurrently running suite — would
    /// *succeed* and split its traffic instead of failing the probe.
    static PORTS: crate::testport::TestPorts = crate::testport::TestPorts::new(60_000, 65_000);

    fn bind_free(num_queues: u16) -> UdpTransport {
        loop {
            let base = PORTS.alloc(num_queues.max(8));
            if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, num_queues)) {
                return t;
            }
        }
    }

    #[test]
    fn datagram_roundtrip_addresses_queue_by_port() {
        let server = bind_free(4);
        let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();

        for q in 0..4u16 {
            let pkt = TxPacket::from_packet(synthesize(
                client.local_endpoint(0),
                server.local_endpoint(q),
                Bytes::from(vec![q as u8; 11]),
            ));
            assert_eq!(client.tx_frames(0, &mut vec![pkt]), 1);
        }

        let deadline = Instant::now() + Duration::from_secs(5);
        for q in 0..4u16 {
            let mut out = Vec::new();
            while out.is_empty() {
                assert!(
                    Instant::now() < deadline,
                    "queue {q} never got its datagram"
                );
                server.rx_burst(q, &mut out, 32);
            }
            assert_eq!(out.len(), 1, "port demux must isolate queues");
            assert_eq!(&out[0].payload[..], &[q as u8; 11][..]);
            // The synthesized metadata carries the real peer address.
            assert_eq!(out[0].meta.udp.src_port, client.base_port());
            assert_eq!(out[0].meta.udp.dst_port, server.base_port() + q);
        }
    }

    #[test]
    fn reply_reaches_client_socket() {
        let server = bind_free(2);
        let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();

        let req = TxPacket::from_packet(synthesize(
            client.local_endpoint(0),
            server.local_endpoint(1),
            Bytes::from_static(b"req"),
        ));
        assert_eq!(client.tx_frames(0, &mut vec![req]), 1);

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut inbound = Vec::new();
        while inbound.is_empty() {
            assert!(Instant::now() < deadline);
            server.rx_burst(1, &mut inbound, 32);
        }
        let peer = Endpoint {
            mac: inbound[0].meta.eth.src,
            ip: inbound[0].meta.ip.src,
            port: inbound[0].meta.udp.src_port,
        };
        let reply = TxPacket::from_packet(synthesize(
            server.local_endpoint(1),
            peer,
            Bytes::from_static(b"rep"),
        ));
        assert_eq!(server.tx_frames(1, &mut vec![reply]), 1);

        let mut back = Vec::new();
        while back.is_empty() {
            assert!(Instant::now() < deadline);
            client.rx_burst(0, &mut back, 32);
        }
        assert_eq!(&back[0].payload[..], b"rep");
        assert_eq!(back[0].meta.udp.src_port, server.base_port() + 1);
    }

    #[test]
    fn stats_count_traffic() {
        let server = bind_free(1);
        let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();
        let pkt = TxPacket::from_packet(synthesize(
            client.local_endpoint(0),
            server.local_endpoint(0),
            Bytes::from_static(b"x"),
        ));
        assert_eq!(client.tx_frames(0, &mut vec![pkt]), 1);
        assert_eq!(client.stats().tx_packets, 1);
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.is_empty() {
            assert!(Instant::now() < deadline);
            server.rx_burst(0, &mut out, 8);
        }
        let s = server.stats();
        assert_eq!(s.rx_packets, 1);
        assert!(s.rx_bytes > 0);
    }

    #[test]
    fn tx_frames_moves_whole_batch_and_counts_syscalls() {
        let server = bind_free(1);
        let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();

        const N: usize = 128;
        let mut batch: Vec<TxPacket> = (0..N)
            .map(|i| {
                TxPacket::from_packet(synthesize(
                    client.local_endpoint(0),
                    server.local_endpoint(0),
                    Bytes::from(vec![i as u8; 32]),
                ))
            })
            .collect();
        assert_eq!(client.tx_frames(0, &mut batch), N);
        assert!(batch.is_empty());
        assert_eq!(client.stats().tx_packets, N as u64);

        // Everything queued before the first rx_burst, so recvmmsg
        // must move multiple datagrams per syscall.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut out = Vec::new();
        while out.len() < N {
            assert!(Instant::now() < deadline, "got {} of {N}", out.len());
            server.rx_burst(0, &mut out, N);
        }
        // FIFO order per queue survives batching.
        for (i, pkt) in out.iter().enumerate() {
            assert_eq!(&pkt.payload[..], &[i as u8; 32][..]);
        }
        let io = server.io_stats();
        assert_eq!(io.rx_packets, N as u64);
        assert!(
            io.rx_syscalls < N as u64,
            "recvmmsg must use fewer syscalls than packets ({} vs {N})",
            io.rx_syscalls
        );
        let tx = client.io_stats();
        assert!(tx.tx_syscalls < N as u64, "{} tx syscalls", tx.tx_syscalls);
    }

    #[test]
    fn client_socket_buffer_is_configurable() {
        // A tiny buffer must be honored (the kernel clamps to its
        // minimum, far below the old hardcoded 4 MiB): blast enough
        // traffic at an unpolled tiny-buffer socket and the overflow
        // must be visible as loss, which a 4 MiB buffer would absorb.
        let tiny = UdpTransport::bind_client_with(UdpConfig {
            socket_buffer_bytes: 1,
            ..UdpConfig::client(Ipv4Addr::LOCALHOST)
        })
        .unwrap();
        let sender = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();
        let dst = tiny.local_endpoint(0);
        const N: usize = 512;
        for _ in 0..N {
            let pkt = TxPacket::from_packet(synthesize(
                sender.local_endpoint(0),
                dst,
                Bytes::from(vec![0u8; 1200]),
            ));
            sender.tx_frames(0, &mut vec![pkt]);
        }
        // Give loopback delivery a moment, then drain whatever fit.
        std::thread::sleep(Duration::from_millis(100));
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let before = out.len();
            tiny.rx_burst(0, &mut out, N);
            if tiny.rx_burst(0, &mut out, N) == 0 && out.len() == before {
                break;
            }
            if Instant::now() > deadline {
                break;
            }
        }
        assert!(
            out.len() < N,
            "a ~2 KiB receive buffer cannot hold {N} x 1200B datagrams (got {})",
            out.len()
        );
    }
}
