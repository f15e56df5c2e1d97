//! Churn stress over real UDP: the dataset outgrows the mempool.
//!
//! A working set at least 4x the server's mempool is churned through a
//! live threaded server over UDP, once per eviction policy. With
//! capacity tiering on, the server must shed cold items instead of
//! failing writes:
//!
//! * **zero OutOfMemory PUT replies** — eviction runs at reservation
//!   time, so even the fill phase never bounces a write (there is no
//!   warm-up exemption to hide behind);
//! * the eviction (or expiry) machinery demonstrably ran;
//! * the accounting invariant holds after the dust settles — bytes
//!   charged to live items equal the pool's used bytes, with zero
//!   `accounting_warnings`;
//! * the hot-path invariants survive the churn: a zero-copy TX path and
//!   a bounded, allocation-free RX pool.

use minos_core::client::Client;
use minos_core::server::{MinosServer, ServerConfig};
use minos_driver::RunConfig;
use minos_kv::{CapacityConfig, EvictionPolicy, StoreConfig};
use minos_net::{UdpConfig, UdpTransport};
use minos_wire::message::{OpKind, ReplyStatus};
use minos_workload::access::Operation;
use minos_workload::{ChurnConfig, ChurnGenerator, Rng};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::{Duration, Instant};

static PORTS: minos_net::testport::TestPorts = minos_net::testport::TestPorts::new(37_000, 39_900);

const QUEUES: u16 = 2;
const MEMPOOL_BYTES: usize = 256 << 10;
const NUM_KEYS: u64 = 1024;
const OPS: u64 = 4_000;

fn bind_server() -> Arc<UdpTransport> {
    loop {
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(PORTS.alloc(QUEUES), QUEUES)) {
            return Arc::new(t);
        }
    }
}

fn udp_client(server: &UdpTransport) -> Client {
    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, server.base_port());
    let run = RunConfig {
        seed: 0xC4A9,
        ..RunConfig::new(target, QUEUES)
    };
    run.client(11, false).unwrap().client
}

/// Polls completions down to `window` outstanding, counting OutOfMemory
/// PUT replies (GET `NotFound` is expected churn — an evicted or
/// expired key — and is not counted here).
fn pump(client: &mut Client, window: u64, oom_puts: &mut u64) {
    while client.totals().outstanding() > window {
        for c in client.poll() {
            if c.kind == OpKind::PutReply && c.status == ReplyStatus::OutOfMemory {
                *oom_puts += 1;
            }
        }
    }
}

/// Like [`Client::drain`], but keeps counting PUT OOMs.
fn drain_counting(client: &mut Client, timeout: Duration, oom_puts: &mut u64) -> bool {
    let deadline = Instant::now() + timeout;
    while client.totals().outstanding() > 0 {
        pump(client, 0, oom_puts);
        if Instant::now() > deadline {
            return false;
        }
    }
    true
}

/// One churn run: `OPS` zipfian operations drawn from `seed` over a
/// working set >= 4x the mempool, under the given eviction policy.
fn churn_run(seed: u64, policy: EvictionPolicy, ttl_ms: u64) {
    let generator = ChurnGenerator::new(ChurnConfig {
        num_keys: NUM_KEYS,
        value_min: 64,
        value_max: 2048,
        ttl_ms,
        salt: 0xC0FFEE,
        ..ChurnConfig::default()
    });
    assert!(
        generator.working_set_bytes() >= 4 * MEMPOOL_BYTES as u64,
        "the working set ({} B) must be at least 4x the mempool ({} B)",
        generator.working_set_bytes(),
        MEMPOOL_BYTES
    );

    let transport = bind_server();
    let mut config = ServerConfig::for_test(QUEUES as usize, NUM_KEYS as usize);
    config.store = StoreConfig::for_items(QUEUES as usize * 4, NUM_KEYS as usize, MEMPOOL_BYTES);
    config.store.capacity = CapacityConfig {
        policy,
        ..CapacityConfig::default()
    };
    let mut server = MinosServer::start_with_transport(config, Arc::clone(&transport));
    let mut client = udp_client(&transport);

    let mut rng = Rng::new(seed);
    let mut oom_puts = 0u64;
    for _ in 0..OPS {
        let op = generator.next_op(&mut rng);
        match op.op {
            Operation::Put => {
                let value = vec![(op.key % 251) as u8; op.item_size as usize];
                client.send_put_with_ttl(op.key, &value, op.is_large, op.ttl_ms);
            }
            Operation::Get => client.send_get(op.key, op.is_large),
        }
        pump(&mut client, 32, &mut oom_puts);
    }
    assert!(
        drain_counting(&mut client, Duration::from_secs(60), &mut oom_puts),
        "{policy:?}: churn lost replies"
    );
    let totals = client.totals();
    assert_eq!(totals.outstanding(), 0, "{policy:?}: zero loss");
    assert_eq!(
        oom_puts, 0,
        "{policy:?}: capacity tiering must absorb every PUT \
         ({oom_puts} OutOfMemory replies over {OPS} ops)"
    );
    assert!(server.drain(Duration::from_secs(10)));

    let snap = server.registry().snapshot();
    // The pressure was real: the store had to shed items to stay OOM-free.
    let evictions = snap.counter("store.evictions").unwrap_or(0);
    let expired = snap.counter("store.expired_keys").unwrap_or(0);
    assert!(
        evictions + expired > 0,
        "{policy:?}: a 4x-overcommitted run must evict or expire \
         (evictions {evictions}, expired {expired})"
    );
    if ttl_ms == 0 {
        assert!(evictions > 0, "{policy:?}: pure-eviction run must evict");
    }
    assert_eq!(
        snap.counter("store.accounting_warnings")
            .unwrap_or(u64::MAX),
        0,
        "{policy:?}: watermark enforcement never claimed an undrainable pool"
    );
    // The accounting invariant, cross-checked against the store once
    // its cores have stopped: a TTL sweep still running between the two
    // reads would free an item the audit had already counted.
    server.shutdown();
    let store = server.store();
    assert_eq!(
        store.audit_charged_bytes(),
        store.mempool().used_bytes(),
        "{policy:?}: bytes charged to live items == pool used bytes"
    );
    assert_eq!(store.audit_item_bitmaps(), Ok(store.len()), "{policy:?}");
    assert!(
        store.mempool().used_bytes() <= MEMPOOL_BYTES,
        "{policy:?}: the pool never overcommits"
    );

    // Hot-path invariants under churn: zero-copy TX, allocation-free RX.
    let io = transport.io_stats();
    assert_eq!(
        io.tx_copied_bytes, 0,
        "{policy:?}: eviction churn must not reintroduce TX copies"
    );
    assert!(
        io.pool_hit_rate() >= 0.95,
        "{policy:?}: RX pool stays warm under churn (hits {}, misses {}, rate {:.4})",
        io.pool_hits,
        io.pool_misses,
        io.pool_hit_rate()
    );
    assert_eq!(
        io.pool_outstanding, 0,
        "{policy:?}: every RX slot is home after the drain"
    );
}

/// Size-aware CLOCK, no TTLs: pure eviction absorbs a
/// 4x-overcommitted working set.
#[test]
fn churn_4x_mempool_batched_path_size_aware() {
    churn_run(0x5EED ^ 32, EvictionPolicy::SizeAwareClock, 0);
}

/// Plain CLOCK with 25 ms TTLs riding on every PUT: expiry and eviction
/// share the shedding.
#[test]
fn churn_4x_mempool_clock_with_ttl() {
    churn_run(0x5EED ^ 1, EvictionPolicy::Clock, 25);
}
