//! A `minos-server`'s memory is what its own snapshot says it holds:
//! the handoff rings (`dispatch.queue_bytes`), the store's index
//! (`store.index_bytes`) and, once loaded, the value blocks
//! (`mempool.held_bytes`), plus a small fixed remainder. Spawns the
//! binary with `--json`, reads its peak RSS (`VmHWM`) once it answers
//! (idle) or once every PUT is acked (loaded), then interrupts it and
//! reads the gauges from the exit snapshot. An idle index holds only
//! what is built before the first item arrives.

use minos::net::testport::TestPorts;
use minos::obs::Snapshot;
use minos::wire::frag::{fragment_with_id, FragHeader};
use minos::wire::message::{Body, Message, ReplyStatus};
use std::collections::HashMap;
use std::net::UdpSocket;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// Disjoint from every other suite's range.
static PORTS: TestPorts = TestPorts::new(20_000, 21_000);

const CORES: usize = 4;

const ITEMS: usize = 200_000;

/// The index an idle server has built, per `--items` slot: the primary
/// buckets, their locks and the item bitmaps. Item slots and overflow
/// buckets are built as items arrive.
const IDLE_INDEX_BYTES_PER_ITEM: f64 = 28.0;

/// Everything an idle server holds beyond its rings and its index:
/// code, thread stacks, the touched part of the RX pools.
const REMAINDER: f64 = (24 << 20) as f64;

/// Pings core 0's queue with a GET until an answer arrives: the rings
/// and the store are allocated before the first core thread starts.
fn wait_until_serving(port: u16) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind the probe socket");
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let msg = Message {
        client_id: 1,
        request_id: 1,
        client_ts_ns: 0,
        body: Body::Get { key: 1 },
    };
    let datagram = fragment_with_id(1, &msg.encode()).remove(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut buf = [0u8; 2048];
    loop {
        socket.send_to(&datagram, ("127.0.0.1", port)).unwrap();
        if socket.recv_from(&mut buf).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "the server never answered");
    }
}

/// Peak resident set of process `pid`, in bytes.
fn vm_hwm(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status");
    kb * 1024.0
}

/// Spawns `minos-server --cores cores --items ITEMS --json` with
/// `extra` arguments; returns it and its port.
fn spawn_server(cores: usize, extra: &[&str]) -> (Child, u16) {
    let port = PORTS.alloc(cores as u16);
    let child = Command::new(env!("CARGO_BIN_EXE_minos-server"))
        .args(["--cores", &cores.to_string(), "--items", &ITEMS.to_string()])
        .args(["--port", &port.to_string(), "--duration", "60", "--json"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn minos-server");
    (child, port)
}

/// Interrupts the server and returns a reader of its exit snapshot's
/// gauges and counters.
fn stop_server(child: Child) -> impl Fn(&str) -> f64 {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    assert_eq!(unsafe { kill(child.id() as i32, SIGINT) }, 0);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "minos-server exited {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let snap = Snapshot::parse_json_line(&stdout).expect("the --json exit snapshot");
    move |name| {
        snap.gauge(name)
            .or_else(|| snap.counter(name).map(|n| n as f64))
            .unwrap_or_else(|| panic!("{name} missing"))
    }
}

/// Runs an idle server under `discipline`; returns its peak RSS and its
/// `(dispatch.queue_bytes, store.index_bytes)`.
fn idle_footprint(discipline: &str) -> (f64, f64, f64) {
    let (child, port) = spawn_server(CORES, &["--discipline", discipline]);
    wait_until_serving(port);
    let hwm = vm_hwm(child.id());
    let gauge = stop_server(child);
    (
        hwm,
        gauge("dispatch.queue_bytes"),
        gauge("store.index_bytes"),
    )
}

/// Slots of a ring of `capacity`: its own and its 64 spare-box slots,
/// each a 16-byte box handle and sequence word.
fn ring_bytes(capacity: usize) -> usize {
    (capacity + 64) * 16
}

fn assert_footprint(discipline: &str, shared_queue: bool) {
    let (hwm, queue_bytes, index_bytes) = idle_footprint(discipline);
    let soft = 1 << 16;
    let rings = CORES * ring_bytes(soft) + usize::from(shared_queue) * ring_bytes(CORES * soft);
    assert_eq!(queue_bytes, rings as f64, "{discipline}");
    assert!(
        index_bytes <= IDLE_INDEX_BYTES_PER_ITEM * ITEMS as f64,
        "{discipline}: an idle index of {index_bytes} B for {ITEMS} items"
    );
    assert!(
        hwm <= queue_bytes + index_bytes + REMAINDER,
        "{discipline}: VmHWM {hwm} B over rings {queue_bytes} + index {index_bytes} + {REMAINDER}"
    );
}

#[test]
fn size_aware_holds_only_its_soft_rings_and_index() {
    assert_footprint("size-aware", false);
}

#[test]
fn cfcfs_adds_the_shared_ring() {
    assert_footprint("cfcfs", true);
}

/// Distinct keys the loaded server stores.
const LOADED_KEYS: u64 = 20_000;

/// A value length whose charge (2 048 B, its power of two) and block
/// (1 040 B: itself, a multiple of the 16 B block step) differ.
const LOADED_VALUE: usize = 1_040;

/// The block each loaded value is held in.
const LOADED_BLOCK: f64 = 1_040.0;

/// What a stored item holds beyond its block: the block's 24 B header
/// and the allocator's 8 B chunk header, rounded up to 16 B, in the
/// block's own allocation, and its 32 B item slot.
const PER_ITEM_BYTES: f64 = 64.0;

/// A PUT unanswered for this long is sent again.
const RESEND_AFTER: Duration = Duration::from_millis(50);

/// PUTs in flight at once.
const WINDOW: usize = 64;

/// Stores `LOADED_KEYS` distinct values of `LOADED_VALUE` bytes through
/// core 0's queue, resending any PUT unanswered after `RESEND_AFTER`
/// until every key is acked. Returns how many PUTs were resent.
fn put_every_key(port: u16) -> u64 {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind the client socket");
    socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let value = bytes::Bytes::from(vec![0xa5u8; LOADED_VALUE]);
    let mut msg_id = 0u64;
    let mut send = |key: u64| {
        let msg = Message {
            client_id: 1,
            request_id: key,
            client_ts_ns: 0,
            body: Body::Put {
                key,
                value: value.clone(),
                ttl_ms: 0,
            },
        };
        msg_id += 1;
        for datagram in fragment_with_id(msg_id, &msg.encode()) {
            socket.send_to(&datagram, ("127.0.0.1", port)).unwrap();
        }
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut next, mut acked, mut resent) = (0u64, 0u64, 0u64);
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut buf = [0u8; 2048];
    while acked < LOADED_KEYS {
        assert!(
            Instant::now() < deadline,
            "{acked} of {LOADED_KEYS} PUTs acked"
        );
        while in_flight.len() < WINDOW && next < LOADED_KEYS {
            send(next);
            in_flight.insert(next, Instant::now());
            next += 1;
        }
        if let Ok((len, _)) = socket.recv_from(&mut buf) {
            let mut rest = bytes::Bytes::copy_from_slice(&buf[..len]);
            let header = FragHeader::decode(&mut rest).expect("a fragment header");
            assert_eq!(header.count, 1, "a PUT reply is one datagram");
            match Message::decode(rest).expect("a reply").body {
                Body::PutReply {
                    status: ReplyStatus::Ok,
                    key,
                } => acked += u64::from(in_flight.remove(&key).is_some()),
                other => panic!("not an acked PUT: {other:?}"),
            }
        }
        let now = Instant::now();
        for (&key, sent) in in_flight.iter_mut() {
            if now - *sent >= RESEND_AFTER {
                send(key);
                *sent = now;
                resent += 1;
            }
        }
    }
    resent
}

/// A loaded server charges each value its power of two but holds it in
/// a block sized to it, and its peak RSS is what the snapshot says it
/// holds: rings, index, blocks, and a bounded cost per item.
#[test]
fn a_loaded_server_holds_blocks_sized_to_its_values() {
    let (child, port) = spawn_server(2, &[]);
    wait_until_serving(port);
    let resent = put_every_key(port);
    let hwm = vm_hwm(child.id());
    let gauge = stop_server(child);
    let (used, held, free) = (
        gauge("mempool.used_bytes"),
        gauge("mempool.held_bytes"),
        gauge("mempool.free_bytes"),
    );
    let keys = LOADED_KEYS as f64;
    assert_eq!(used, keys * 2048.0, "each value is charged 2 048 B");
    // A resent PUT that had already landed replaces its value: the new
    // block is fresh and the old one waits on a freelist. Live blocks
    // are exactly one per key either way.
    assert_eq!(
        held - free,
        keys * LOADED_BLOCK,
        "each value is held in 1 040 B"
    );
    assert!(
        free <= resent as f64 * LOADED_BLOCK,
        "{free} B free after {resent} resends"
    );
    if resent == 0 {
        assert_eq!(held, keys * LOADED_BLOCK);
    }
    assert_eq!(
        gauge("mempool.allocs") - gauge("mempool.frees"),
        gauge("store.items"),
        "one live block per stored item"
    );
    let (queue_bytes, index_bytes) = (gauge("dispatch.queue_bytes"), gauge("store.index_bytes"));
    let bound = queue_bytes + index_bytes + held + keys * PER_ITEM_BYTES + REMAINDER;
    assert!(
        hwm <= bound,
        "VmHWM {hwm} B over rings {queue_bytes} + index {index_bytes} + blocks {held} \
         + {PER_ITEM_BYTES} B x {LOADED_KEYS} items + {REMAINDER}"
    );
}
