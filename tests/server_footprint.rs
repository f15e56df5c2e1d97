//! An idle `minos-server`'s memory is what its own snapshot says it
//! preallocated: the handoff rings (`dispatch.queue_bytes`) and the
//! store's index (`store.index_bytes`), plus a small fixed remainder.
//! Spawns the binary with `--cores 4 --items 200000 --json`, reads its
//! peak RSS (`VmHWM`) once it answers, then interrupts it and reads the
//! gauges from the exit snapshot. The index holds only what is built
//! before the first item arrives.
#![cfg(target_os = "linux")]

use minos::net::testport::TestPorts;
use minos::obs::Snapshot;
use minos::wire::frag::fragment_with_id;
use minos::wire::message::{Body, Message};
use std::net::UdpSocket;
use std::process::{Command, Stdio};
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

/// Runs an idle server under `discipline`; returns its peak RSS and its
/// `(dispatch.queue_bytes, store.index_bytes)`.
fn idle_footprint(discipline: &str) -> (f64, f64, f64) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    let port = PORTS.alloc(CORES as u16);
    let child = Command::new(env!("CARGO_BIN_EXE_minos-server"))
        .args(["--cores", &CORES.to_string(), "--items", &ITEMS.to_string()])
        .args(["--port", &port.to_string(), "--discipline", discipline])
        .args(["--duration", "60", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn minos-server");
    wait_until_serving(port);
    let hwm = vm_hwm(child.id());
    assert_eq!(unsafe { kill(child.id() as i32, SIGINT) }, 0);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "minos-server exited {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let snap = Snapshot::parse_json_line(&stdout).expect("the --json exit snapshot");
    let gauge = |name| snap.gauge(name).unwrap_or_else(|| panic!("{name} missing"));
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
