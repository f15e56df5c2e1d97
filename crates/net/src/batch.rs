//! Preallocated syscall-batching arenas for [`crate::UdpTransport`].
//!
//! One `recvmmsg`/`sendmmsg` call moves a whole burst of messages, but
//! each call needs an array of `mmsghdr`/`iovec`/address/control
//! storage. These arenas allocate that storage once per queue at bind
//! time and reuse it for every burst. They are the transport's only
//! syscall path.
//!
//! A message is one datagram or, with segmentation offload, one train.
//! [`TxArena`] lays the gather lists of a run of equal-length frames
//! back to back under one header and adds a `UDP_SEGMENT` record; a
//! lone frame is staged exactly as without offload.
//!
//! The receive arena's iovecs point straight at slots checked out of a
//! [`crate::pool::BufferPool`]: the kernel writes each datagram into a
//! pooled MTU-sized buffer, which [`RxArena::recv_batch`] freezes into
//! a refcounted [`bytes::Bytes`] (no copy) and replaces with a fresh
//! slot. Whether a socket coalesces (`UDP_GRO`) is decided once, when
//! its arena is built; on a coalescing socket every slot has a second
//! iovec, a pooled 64 KiB spill buffer: a lone datagram still ends in
//! the MTU slot and leaves the spill buffer untouched, a train runs on
//! into it and is handed out as `Bytes` windows of the two buffers —
//! two iovecs per slot however long the train, so an idle poll pays
//! nothing for the capability. Payloads therefore travel through the
//! engine without a per-datagram allocation or copy; a buffer returns
//! to its pool when the last window into it drops.
//!
//! The raw pointers inside the headers only ever target heap storage
//! the arena owns (its tables and its checked-out pooled buffers), so
//! moving an arena between bursts is harmless. A send rebuilds its
//! headers from the caller's frames every time; a receive re-stages
//! only the slots the previous one filled — which resets the
//! kernel-mutated state (`msg_namelen`, `msg_controllen`, `msg_len`)
//! exactly where it was mutated — so an idle poll costs the syscall and
//! nothing else.

use crate::pool::{BufferPool, PooledBuf};
use crate::sys::{self, Cmsg, IoVec, MMsgHdr, MsgHdr, SockaddrIn};
use crate::BATCH;
use bytes::Bytes;
use minos_wire::packet::TxPacket;
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::os::fd::RawFd;

/// Bytes of receive buffer per pool slot: an MTU-sized datagram plus
/// slack.
pub const RX_SLOT_LEN: usize = minos_wire::MTU + 64;

/// Bytes per train spill buffer: [`RX_SLOT_LEN`] of headroom (where the
/// segment straddling the MTU slot and the spill buffer is made whole)
/// plus the most a coalesced receive can return (the kernel caps a
/// train at 64 KiB, however many segments it holds).
pub const RX_SPILL_LEN: usize = RX_SLOT_LEN + (64 << 10);

/// Most frames [`TxArena`] puts in one train: what fits a datagram's
/// 64 KiB at full fragment size (and under the kernel's 64-segment cap
/// at any size).
pub const MAX_TRAIN_SEGMENTS: usize = 44;

/// Most payload bytes in one train: the largest UDP datagram.
pub const MAX_TRAIN_BYTES: usize = 65_507;

/// iovec slots reserved per transmitted frame: one per region — every
/// payload segment, the header bytes ahead of each, and those behind
/// the last.
pub const TX_IOVECS_PER_FRAME: usize = minos_wire::MAX_TX_REGIONS;

/// What one [`RxArena::recv_batch`] call moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxBatch {
    /// `recvmmsg` slots the kernel filled (a slot is one datagram
    /// or one train); fewer than offered means the socket drained.
    pub slots: usize,
    /// Slots that held a train of two or more datagrams.
    pub trains: usize,
    /// Datagrams that arrived inside those trains.
    pub train_packets: usize,
}

/// What one [`TxArena::send_frames`] call moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxBatch {
    /// Leading frames of the burst the kernel accepted.
    pub frames: usize,
    /// The kernel accepted fewer messages than this call offered it
    /// (a full socket buffer) — as opposed to the arena staging
    /// fewer frames than the caller passed, which is not a signal.
    pub short: bool,
    /// Accepted messages that were trains of two or more frames.
    pub trains: usize,
    /// Frames that travelled inside those trains.
    pub train_packets: usize,
}

/// Receive-side arena: [`BATCH`] reusable slots for one `recvmmsg` call,
/// each backed by a pooled buffer the kernel writes into directly.
pub struct RxArena {
    /// Checked-out pool slots; consumed entries are refilled lazily
    /// at the start of the next call.
    slots: Vec<Option<PooledBuf>>,
    pool: BufferPool,
    /// Second buffer of every slot once the socket coalesces: a
    /// train's bytes beyond the MTU slot land here. Staged like
    /// `slots`, but consumed only when a train actually arrives.
    spills: Vec<Option<PooledBuf>>,
    spill_pool: BufferPool,
    /// Pool shard this arena draws from (its queue index), so
    /// concurrently polling queues never contend on one freelist.
    shard: usize,
    /// Whether the socket has `UDP_GRO` set, decided once in `new`.
    gro: bool,
    /// Leading slots the last receive filled: the kernel rewrote
    /// their headers and their buffers went to the sink.
    stale: usize,
    /// Slots `stale..staged` are staged and untouched since: their
    /// headers still say exactly what the kernel must be told.
    staged: usize,
    addrs: Vec<SockaddrIn>,
    /// Two per slot: the MTU slot, then the spill buffer.
    iovecs: Vec<IoVec>,
    cmsgs: Vec<Cmsg>,
    hdrs: Vec<MMsgHdr>,
}

// SAFETY: the raw pointers inside `iovecs`/`hdrs` point into heap
// storage this arena owns — its own tables, never resized after
// `new`, and the pooled buffers parked in `slots`/`spills`, whose
// addresses are stable until `sink_slot` takes them (after which the
// header is stale and re-staged before the kernel sees it again).
// Nothing points at the arena struct itself, and between calls the
// pointers are never dereferenced, so the arena may move between
// threads freely (access is serialized by a Mutex in the transport).
unsafe impl Send for RxArena {}

impl RxArena {
    /// An arena able to receive up to [`BATCH`] datagrams or trains per
    /// syscall from socket `fd`, drawing its MTU buffers from `pool`
    /// and its train spill buffers ([`RX_SPILL_LEN`] bytes each) from
    /// `spill_pool`, both on shard `shard` (the owning queue's
    /// index). The socket coalesces trains (`UDP_GRO`) from here on
    /// if offload is available and the kernel accepts the option.
    pub fn new(fd: RawFd, pool: BufferPool, spill_pool: BufferPool, shard: usize) -> Self {
        assert!(
            spill_pool.slot_len() >= RX_SPILL_LEN,
            "spill slots hold a train"
        );
        RxArena {
            slots: (0..BATCH).map(|_| None).collect(),
            pool,
            spills: (0..BATCH).map(|_| None).collect(),
            spill_pool,
            shard,
            gro: sys::offload_available() && sys::enable_udp_gro(fd).is_ok(),
            stale: 0,
            staged: 0,
            addrs: vec![SockaddrIn::ZERO; BATCH],
            iovecs: vec![IoVec::EMPTY; 2 * BATCH],
            cmsgs: vec![Cmsg::ZERO; BATCH],
            hdrs: vec![MMsgHdr::EMPTY; BATCH],
        }
    }

    /// Points header `i` at its buffers, checking out whichever the
    /// last receive consumed.
    fn stage(&mut self, i: usize) {
        let slot = self.slots[i].get_or_insert_with(|| self.pool.take_on(self.shard));
        self.iovecs[2 * i] = IoVec {
            iov_base: slot.as_mut_ptr(),
            iov_len: slot.len(),
        };
        let mut hdr = MsgHdr {
            msg_name: &mut self.addrs[i],
            msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
            msg_iov: &mut self.iovecs[2 * i],
            msg_iovlen: 1,
            ..MMsgHdr::EMPTY.msg_hdr
        };
        if self.gro {
            let spill = self.spills[i].get_or_insert_with(|| self.spill_pool.take_on(self.shard));
            // The front RX_SLOT_LEN bytes stay free: the head of the
            // segment that straddles the two buffers is moved there,
            // making the spilled train contiguous.
            self.iovecs[2 * i + 1] = IoVec {
                // SAFETY: spill slots are RX_SPILL_LEN > RX_SLOT_LEN
                // bytes (asserted in `new`).
                iov_base: unsafe { spill.as_mut_ptr().add(RX_SLOT_LEN) },
                iov_len: spill.len() - RX_SLOT_LEN,
            };
            hdr.msg_iovlen = 2;
            hdr.msg_control = &mut self.cmsgs[i];
            hdr.msg_controllen = std::mem::size_of::<Cmsg>();
        }
        self.hdrs[i] = MMsgHdr {
            msg_hdr: hdr,
            msg_len: 0,
        };
    }

    /// One non-blocking `recvmmsg` over up to `max` slots.
    ///
    /// Invokes `sink(peer, payload)` for every received IPv4
    /// datagram (other address families are counted but not sunk),
    /// in arrival order. A slot that received a train is split by
    /// the segment size the kernel reported and sunk datagram by
    /// datagram, so `sink` may run more often than `max` — and,
    /// with non-IPv4 traffic, less often than [`RxBatch::slots`].
    /// Every `payload` is a window into the pooled buffer the
    /// kernel wrote; apart from the one segment of a train that
    /// straddles its two buffers, nothing is copied.
    pub fn recv_batch(
        &mut self,
        fd: RawFd,
        max: usize,
        mut sink: impl FnMut(SocketAddrV4, Bytes),
    ) -> io::Result<RxBatch> {
        let want = max.clamp(1, BATCH);
        // Only what the last call consumed (the kernel rewrote those
        // headers, `sink_slot` took those buffers) and what was never
        // staged: an idle poll re-stages nothing.
        for i in (0..self.stale).chain(self.staged..want) {
            self.stage(i);
        }
        self.stale = 0;
        self.staged = self.staged.max(want);
        // SAFETY: all headers point into storage owned by `self`
        // (the pooled buffers live in `self.slots`/`self.spills`),
        // alive across the call.
        let slots = unsafe { sys::recv_mmsg(fd, &mut self.hdrs[..want]) }?;
        let mut batch = RxBatch {
            slots,
            ..RxBatch::default()
        };
        self.stale = self.stale.max(batch.slots);
        for i in 0..batch.slots {
            // Non-IPv4 datagrams leave their buffers in place; the
            // next call reuses them.
            let Some(peer) = self.addrs[i].to_v4() else {
                continue;
            };
            let len = self.hdrs[i].msg_len as usize;
            let segment = self.cmsgs[i]
                .udp_gro_segment(self.hdrs[i].msg_hdr.msg_controllen)
                .filter(|&s| self.gro && s > 0 && s < len)
                .unwrap_or(len);
            let packets = self.sink_slot(i, len, segment, |payload| sink(peer, payload));
            if packets > 1 {
                batch.trains += 1;
                batch.train_packets += packets;
            }
        }
        Ok(batch)
    }

    /// Hands the `len` bytes slot `i` received to `sink` as
    /// datagrams of `segment` bytes (the last may be shorter),
    /// returning how many there were.
    fn sink_slot(
        &mut self,
        i: usize,
        len: usize,
        segment: usize,
        mut sink: impl FnMut(Bytes),
    ) -> usize {
        let packets = len.div_ceil(segment.max(1)).max(1);
        let mut sink_windows = |buf: Bytes, from: usize| {
            if packets == 1 {
                // A lone datagram starts its buffer, spilled or not.
                debug_assert_eq!(from, 0);
                return sink(buf);
            }
            for at in (from..buf.len()).step_by(segment) {
                sink(buf.slice(at..(at + segment).min(buf.len())));
            }
        };
        if len <= RX_SLOT_LEN {
            // The common case, and the only one without UDP_GRO: the
            // MTU slot holds everything.
            let slot = self.slots[i].take().expect("filled above");
            sink_windows(slot.freeze_shared(len, packets as u64), 0);
            return packets;
        }
        // A train that ran into the spill buffer. Whole segments at
        // the front of the MTU slot are served from it; the partial
        // one behind them joins its tail in the spill buffer.
        let whole = RX_SLOT_LEN / segment;
        let stranded = RX_SLOT_LEN - whole * segment;
        let mut spill = self.spills[i].take().expect("staged with UDP_GRO");
        let slot = self.slots[i].as_mut().expect("filled above");
        spill.as_mut_slice()[RX_SLOT_LEN - stranded..RX_SLOT_LEN]
            .copy_from_slice(&slot.as_mut_slice()[whole * segment..]);
        if whole > 0 {
            let slot = self.slots[i].take().expect("checked above");
            sink_windows(slot.freeze_shared(whole * segment, whole as u64), 0);
        }
        // The kernel wrote past the headroom, so the train's tail ends
        // `len` bytes into the spill buffer.
        sink_windows(
            spill.freeze_shared(len, (packets - whole) as u64),
            RX_SLOT_LEN - stranded,
        );
        packets
    }
}

/// Transmit-side arena: [`BATCH`] reusable header slots for one
/// `sendmmsg` call. Payloads are *not* copied — each frame's runs of
/// inline header bytes and refcounted value segments become one
/// iovec each (at most [`TX_IOVECS_PER_FRAME`] per frame), pointing
/// straight at the caller's storage for the duration of the call.
/// With segmentation offload a message is a whole train: the iovecs
/// of up to [`MAX_TRAIN_SEGMENTS`] consecutive frames back to back
/// plus a `UDP_SEGMENT` record telling the kernel where to cut. One
/// syscall thus carries header-iovec + value-iovec pairs for a
/// whole burst: scatter-gather TX end to end.
pub struct TxArena {
    addrs: Vec<SockaddrIn>,
    cmsgs: Vec<Cmsg>,
    hdrs: Vec<MMsgHdr>,
    /// Frames carried by each staged message.
    run_lens: Vec<usize>,
    /// Gather entries of every staged message, back to back; grows
    /// to the largest burst seen and stays there.
    iovecs: Vec<IoVec>,
}

// SAFETY: as for RxArena — pointer state is rebuilt every call.
unsafe impl Send for TxArena {}

impl Default for TxArena {
    /// An arena able to send up to [`BATCH`] datagrams or trains per
    /// syscall.
    fn default() -> Self {
        TxArena {
            addrs: vec![SockaddrIn::ZERO; BATCH],
            cmsgs: vec![Cmsg::ZERO; BATCH],
            hdrs: vec![MMsgHdr::EMPTY; BATCH],
            run_lens: vec![0; BATCH],
            iovecs: Vec::with_capacity(BATCH * TX_IOVECS_PER_FRAME),
        }
    }
}

impl TxArena {
    /// One non-blocking `sendmmsg` over the front of `pkts`, each
    /// frame addressed by its destination metadata and carried as a
    /// multi-iovec gather list (no segment bytes copied). Where the
    /// kernel segments for us (probed; see
    /// [`crate::UdpIoStats::offload`]), every run of
    /// same-destination, equal-length frames (the last may be
    /// shorter) is one message, so up to [`BATCH`] *runs* go out per
    /// call; otherwise up to [`BATCH`] frames do. Should the kernel
    /// refuse the head run's `UDP_SEGMENT`, offload is latched off
    /// and the same frames are sent as plain datagrams before this
    /// returns.
    pub fn send_frames(&mut self, fd: RawFd, pkts: &[TxPacket]) -> io::Result<TxBatch> {
        if pkts.is_empty() {
            return Ok(TxBatch::default());
        }
        let mut offload = sys::offload_available();
        loop {
            let msgs = self.stage(pkts, offload);
            // SAFETY: headers point into `self`-owned storage and
            // the caller's frame regions, all alive across the call.
            match unsafe { sys::send_mmsg(fd, &mut self.hdrs[..msgs]) } {
                Ok(accepted) => {
                    let runs = &self.run_lens[..accepted];
                    let trains = runs.iter().filter(|&&n| n > 1);
                    return Ok(TxBatch {
                        frames: runs.iter().sum(),
                        short: accepted < msgs,
                        trains: trains.clone().count(),
                        train_packets: trains.sum(),
                    });
                }
                Err(e) if self.run_lens[0] > 1 && sys::note_offload_error(&e) => {
                    offload = false;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fills the header tables for the front of `pkts`, one message
    /// per run (`offload`) or per frame; returns the message count.
    fn stage(&mut self, pkts: &[TxPacket], offload: bool) -> usize {
        let per_msg = if offload { MAX_TRAIN_SEGMENTS } else { 1 };
        self.iovecs.clear();
        // Reserved up front so the pointers taken below stay valid
        // while later messages push their entries.
        self.iovecs
            .reserve(pkts.len().min(BATCH * per_msg) * TX_IOVECS_PER_FRAME);
        let mut msgs = 0;
        let mut next = 0;
        while msgs < BATCH && next < pkts.len() {
            let run = if offload { train_len(&pkts[next..]) } else { 1 };
            let head = &pkts[next];
            let dst = SocketAddrV4::new(Ipv4Addr::from(head.meta.ip.dst), head.meta.udp.dst_port);
            self.addrs[msgs] = SockaddrIn::from_v4(dst);
            let first_iov = self.iovecs.len();
            for pkt in &pkts[next..next + run] {
                self.iovecs.extend(frame_iovecs(&pkt.frame));
            }
            let mut hdr = MsgHdr {
                msg_name: &mut self.addrs[msgs],
                msg_namelen: std::mem::size_of::<SockaddrIn>() as u32,
                // SAFETY: `first_iov <= len`, inside the allocation.
                msg_iov: unsafe { self.iovecs.as_mut_ptr().add(first_iov) },
                msg_iovlen: self.iovecs.len() - first_iov,
                ..MMsgHdr::EMPTY.msg_hdr
            };
            if run > 1 {
                // `train_len` keeps segments within a datagram's
                // 65 507 bytes, so the size fits the record's u16.
                self.cmsgs[msgs] = Cmsg::udp_segment(head.frame.len() as u16);
                hdr.msg_control = &mut self.cmsgs[msgs];
                hdr.msg_controllen = std::mem::size_of::<Cmsg>();
            }
            self.hdrs[msgs] = MMsgHdr {
                msg_hdr: hdr,
                msg_len: 0,
            };
            self.run_lens[msgs] = run;
            msgs += 1;
            next += run;
        }
        msgs
    }
}

/// Length of the run at the front of `pkts` that can travel as one
/// train: same destination, every frame as long as the first
/// except that the last may be shorter (never empty), within
/// [`MAX_TRAIN_SEGMENTS`] frames and [`MAX_TRAIN_BYTES`] bytes.
/// At least 1; a run of 1 is a plain datagram.
fn train_len(pkts: &[TxPacket]) -> usize {
    let head = &pkts[0];
    let segment = head.frame.len();
    if segment == 0 || segment > MAX_TRAIN_BYTES {
        return 1;
    }
    let dst = (head.meta.ip.dst, head.meta.udp.dst_port);
    let max = MAX_TRAIN_SEGMENTS
        .min(MAX_TRAIN_BYTES / segment)
        .min(pkts.len());
    let mut run = 1;
    while run < max {
        let pkt = &pkts[run];
        let len = pkt.frame.len();
        if (pkt.meta.ip.dst, pkt.meta.udp.dst_port) != dst || len == 0 || len > segment {
            break;
        }
        run += 1;
        if len < segment {
            break;
        }
    }
    run
}

/// One iovec per region of `frame`, in wire order.
fn frame_iovecs(frame: &minos_wire::TxFrame) -> impl Iterator<Item = IoVec> + '_ {
    frame.regions().map(|region| {
        let bytes = region.as_slice();
        // The kernel only reads through send iovecs; the *mut is an
        // FFI-signature artifact.
        IoVec {
            iov_base: bytes.as_ptr() as *mut u8,
            iov_len: bytes.len(),
        }
    })
}
