//! Loopback stress: socket-buffer pressure, honest loss accounting,
//! retry convergence, and the syscall economics of `recvmmsg`.
//!
//! The paper only reports zero-loss runs (§5.4) and leaves
//! retransmission to the client (§4.1). These tests pin down both
//! contracts against a real multi-queue UDP server: without retries a
//! lossy run must be reported as lossy; with timeout-and-retry enabled
//! the same pressure must converge to zero loss.

use minos_core::client::{Client, RetryPolicy};
use minos_core::server::{MinosServer, ServerConfig};
use minos_driver::RunConfig;
use minos_net::{Transport, UdpConfig, UdpTransport};
use minos_wire::packet::{synthesize, TxPacket};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VALUE_LEN: usize = 1_200;

/// Disjoint, PID-salted port ranges per bound server: these are
/// `SO_REUSEPORT` sockets, so a bind over another live test server —
/// in this process or a concurrently running suite — would *succeed*
/// and split its traffic instead of failing the probe.
static PORTS: minos_net::testport::TestPorts = minos_net::testport::TestPorts::new(21_000, 24_900);

fn alloc_base(span: u16) -> u16 {
    PORTS.alloc(span)
}

fn bind_server(num_queues: u16) -> Arc<UdpTransport> {
    loop {
        let base = alloc_base(num_queues);
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, num_queues)) {
            return Arc::new(t);
        }
    }
}

/// A client over its own UDP socket with `sockbuf` bytes of buffering.
fn udp_client(
    server: &UdpTransport,
    queues: u16,
    id: u16,
    sockbuf: usize,
    retry: Option<RetryPolicy>,
) -> Client {
    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, server.base_port());
    let run = RunConfig {
        socket_buffer_bytes: sockbuf,
        seed: 0xACE0,
        retry,
        ..RunConfig::new(target, queues)
    };
    run.client(id, false).unwrap().client
}

/// Preloads `keys` keys of `VALUE_LEN` bytes through a well-buffered
/// client so GET replies have real payloads to overflow buffers with.
fn preload(server: &Arc<UdpTransport>, queues: u16, keys: u64) {
    let mut loader = udp_client(server, queues, 90, 4 << 20, None);
    for key in 0..keys {
        loader.send_put(key, &vec![(key % 251) as u8; VALUE_LEN], false);
        while loader.totals().outstanding() > 64 {
            loader.poll();
        }
    }
    assert!(
        loader.drain(Duration::from_secs(30)),
        "preload must complete losslessly"
    );
}

/// Blasts `n` GETs without polling, then parks long enough for the
/// replies to flood the client's receive buffer. With a minimum-size
/// buffer (the kernel clamps `socket_buffer_bytes: 1` up to its floor,
/// a few KiB) the overwhelming majority of replies are dropped.
fn blast_unpolled(client: &mut Client, n: u64, keys: u64) {
    for i in 0..n {
        client.send_get(i % keys, false);
    }
    std::thread::sleep(Duration::from_secs(2));
}

#[test]
fn no_retry_mode_reports_loss_honestly() {
    const QUEUES: u16 = 2;
    const KEYS: u64 = 64;
    const N: u64 = 400;
    let transport = bind_server(QUEUES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );
    preload(&transport, QUEUES, KEYS);

    let mut client = udp_client(&transport, QUEUES, 1, 1, None);
    blast_unpolled(&mut client, N, KEYS);

    // Whatever survived in the tiny buffer completes; the rest is gone
    // and, without retries, must stay visibly outstanding.
    let drained = client.drain(Duration::from_secs(3));
    let totals = client.totals();
    assert_eq!(totals.sent, N);
    assert_eq!(
        totals.completed + totals.outstanding(),
        N,
        "accounting must balance"
    );
    assert!(
        !drained && totals.outstanding() > 0,
        "a minimum-size receive buffer cannot absorb {N} x {VALUE_LEN}B replies \
         (completed {}, outstanding {})",
        totals.completed,
        totals.outstanding()
    );
    assert_eq!(totals.retransmits, 0, "no-retry mode never resends");
    server.shutdown();
}

#[test]
fn retry_mode_converges_to_zero_loss_under_the_same_pressure() {
    const QUEUES: u16 = 2;
    const KEYS: u64 = 64;
    const N: u64 = 256;
    let transport = bind_server(QUEUES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );
    preload(&transport, QUEUES, KEYS);

    let policy = RetryPolicy::new(Duration::from_millis(50), 1_000);
    let mut client = udp_client(&transport, QUEUES, 2, 1, Some(policy));
    blast_unpolled(&mut client, N, KEYS);

    // Actively polling now keeps the tiny buffer drained, so each retry
    // round completes a slice of the outstanding set.
    let deadline = Instant::now() + Duration::from_secs(120);
    while client.totals().outstanding() > 0 {
        assert!(
            Instant::now() < deadline,
            "retries did not converge: {} outstanding after {} retransmits",
            client.totals().outstanding(),
            client.totals().retransmits
        );
        client.poll();
    }
    let totals = client.totals();
    assert_eq!(totals.completed, N, "every request eventually completed");
    assert!(
        totals.retransmits > 0,
        "the lossy burst must have forced retransmissions"
    );
    server.shutdown();
}

#[test]
fn many_client_threads_converge_against_a_multi_queue_server() {
    const QUEUES: u16 = 2;
    const CLIENTS: u16 = 4;
    const KEYS: u64 = 64;
    const OPS: u64 = 400;
    let transport = bind_server(QUEUES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );
    preload(&transport, QUEUES, KEYS);

    // Small client buffers + unpaced sending forces buffer pressure;
    // the retry policy must still converge every thread to zero loss.
    let policy = RetryPolicy::new(Duration::from_millis(100), 1_000);
    let reports: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let transport = &transport;
                scope.spawn(move || {
                    let mut client = udp_client(transport, QUEUES, 10 + c, 64 << 10, Some(policy));
                    for i in 0..OPS {
                        // 1:7 PUT:GET mix over the preloaded keys.
                        let key = (i * u64::from(c + 1)) % KEYS;
                        if i % 8 == 0 {
                            client.send_put(key, &vec![c as u8; VALUE_LEN], false);
                        } else {
                            client.send_get(key, false);
                        }
                        // Bursty but bounded: a shallow window keeps the
                        // run finite while still slamming the buffers.
                        while client.totals().outstanding() > 128 {
                            client.poll();
                        }
                    }
                    let deadline = Instant::now() + Duration::from_secs(120);
                    while client.totals().outstanding() > 0 && Instant::now() < deadline {
                        client.poll();
                    }
                    let t = client.totals();
                    (t.completed, t.outstanding(), t.retransmits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, (completed, outstanding, retransmits)) in reports.iter().enumerate() {
        assert_eq!(
            *outstanding, 0,
            "client {c}: {outstanding} lost after {retransmits} retransmits"
        );
        assert_eq!(*completed, OPS, "client {c} completed everything");
    }
    let stats = transport.stats();
    assert!(stats.rx_packets >= u64::from(CLIENTS) * OPS);
    server.shutdown();
}

/// The acceptance demonstration: on loopback, `recvmmsg` moves a
/// backlog at zero loss in a fraction of a syscall per datagram, and
/// its throughput is printed.
#[test]
fn batched_path_cuts_syscalls_at_equal_loss() {
    const N: usize = 4_096;
    const CHUNK: usize = 256;
    let server = bind_server(1);
    let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();
    let src = client.local_endpoint(0);
    let dst = server.local_endpoint(0);
    let start = Instant::now();
    let mut received = Vec::with_capacity(N);
    // Interleave sends and drains so the receive buffer never
    // overflows: zero loss by construction.
    for chunk_base in (0..N).step_by(CHUNK) {
        let mut burst: Vec<TxPacket> = (chunk_base..chunk_base + CHUNK)
            .map(|i| synthesize(src, dst, bytes::Bytes::from(vec![i as u8; 64])))
            .map(TxPacket::from_packet)
            .collect();
        assert_eq!(client.tx_frames(0, &mut burst), CHUNK, "no tx loss");
        let deadline = Instant::now() + Duration::from_secs(10);
        while received.len() < chunk_base + CHUNK {
            assert!(Instant::now() < deadline, "rx stalled");
            server.rx_burst(0, &mut received, CHUNK);
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(received.len(), N, "zero loss");
    let io = server.io_stats();
    assert_eq!(io.rx_packets, N as u64);
    println!(
        "{N} datagrams in {:>9.3?} ({:>7.0} pkts/s), {} rx syscalls ({:.1} pkts/syscall)",
        elapsed,
        N as f64 / elapsed.as_secs_f64(),
        io.rx_syscalls,
        io.rx_packets as f64 / io.rx_syscalls as f64,
    );
    assert!(
        io.rx_syscalls * 4 <= io.rx_packets,
        "recvmmsg must average >= 4 datagrams per syscall under backlog \
         ({} syscalls for {} packets)",
        io.rx_syscalls,
        io.rx_packets
    );
}

/// The zero-allocation acceptance gate: under sustained backlog the RX
/// pool serves (essentially) every datagram from the slab — a hit rate
/// of at least 99% — and once every received payload is dropped the
/// outstanding gauge returns to zero: no slot leaks across heavy
/// churn.
#[test]
fn rx_pool_sustains_backlog_without_allocating() {
    const N: usize = 8_192;
    const CHUNK: usize = 256;
    let server = bind_server(1);
    let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();

    let src = client.local_endpoint(0);
    let dst = server.local_endpoint(0);
    // Interleave sends and drains: the receiver always has a backlog
    // of a full chunk, and every received payload is dropped at the
    // end of its chunk — steady-state churn through the slab.
    for chunk_base in (0..N).step_by(CHUNK) {
        let mut burst: Vec<TxPacket> = (chunk_base..chunk_base + CHUNK)
            .map(|i| synthesize(src, dst, bytes::Bytes::from(vec![i as u8; 128])))
            .map(TxPacket::from_packet)
            .collect();
        assert_eq!(client.tx_frames(0, &mut burst), CHUNK, "no tx loss");
        let mut received = Vec::with_capacity(CHUNK);
        let deadline = Instant::now() + Duration::from_secs(10);
        while received.len() < CHUNK {
            assert!(Instant::now() < deadline, "rx stalled");
            server.rx_burst(0, &mut received, CHUNK);
        }
        for (i, pkt) in received.iter().enumerate() {
            assert_eq!(&pkt.payload[..], &[(chunk_base + i) as u8; 128][..]);
        }
        // `received` drops here: all slots return to the slab.
    }

    let io = server.io_stats();
    assert_eq!(io.rx_packets, N as u64);
    assert!(
        io.pool_hit_rate() >= 0.99,
        "steady-state RX must be allocation-free \
         ({} hits, {} misses = {:.4} hit rate)",
        io.pool_hits,
        io.pool_misses,
        io.pool_hit_rate()
    );
    assert_eq!(
        io.pool_outstanding, 0,
        "every dropped payload must return its slot"
    );
}

/// The scatter-gather acceptance gate: GET replies of every size class
/// — small single-datagram and large fragmented — reach the wire with
/// **zero value-byte copies** over UDP. A full Minos
/// server serves real GETs over loopback; afterwards the server
/// transport's `tx_copied_bytes` gauge (which counts every segment byte
/// the TX path had to gather) must still read zero: the value went from
/// the store's mempool into the kernel's iovec gather list untouched.
#[test]
fn get_replies_are_zero_copy_on_both_syscall_paths() {
    const QUEUES: u16 = 2;
    const SMALL_KEYS: u64 = 32;
    // Large values fragment into ~5 datagrams each, so the reply path
    // exercises multi-fragment frames with sliced value segments.
    const LARGE_LEN: usize = 7_000;
    const LARGE_KEYS: u64 = 8;
    let transport = bind_server(QUEUES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );

    let mut client = udp_client(&transport, QUEUES, 42, 4 << 20, None);
    for key in 0..SMALL_KEYS {
        client.send_put(key, &vec![(key % 251) as u8; VALUE_LEN], false);
        while client.totals().outstanding() > 16 {
            client.poll();
        }
    }
    for key in 0..LARGE_KEYS {
        client.send_put(1_000 + key, &vec![(key % 251) as u8; LARGE_LEN], true);
        while client.totals().outstanding() > 4 {
            client.poll();
        }
    }
    assert!(
        client.drain(Duration::from_secs(30)),
        "preload lost replies"
    );

    // GET-heavy measured phase over both size classes.
    let mut completions = 0u64;
    for i in 0..400u64 {
        if i % 4 == 3 {
            client.send_get(1_000 + (i % LARGE_KEYS), true);
        } else {
            client.send_get(i % SMALL_KEYS, false);
        }
        while client.totals().outstanding() > 32 {
            completions += client.poll().len() as u64;
        }
    }
    assert!(client.drain(Duration::from_secs(30)), "GET replies lost");
    completions += client.poll().len() as u64;
    let _ = completions;

    let io = transport.io_stats();
    assert!(io.tx_packets > 400, "replies actually went out");
    // sendmmsg is scatter-gather: not one value byte may have been
    // copied by the transport.
    assert_eq!(io.tx_copied_bytes, 0, "the reply path copied value bytes");
    assert_eq!(transport.stats().tx_copied_bytes, 0);
    server.shutdown();
}

/// The streaming-ingest acceptance gate: many concurrently
/// reassembling large PUTs must NOT accumulate pooled RX buffers. Each
/// fragment's slot is released the moment its chunk is streamed into
/// the store-mempool reservation. Fragments arrive in rounds that keep
/// every message open until the last one; once the server has received
/// a round, the `outstanding` gauge must fall to at most one round's
/// fragments, whereas a hold-until-complete reassembler would keep
/// every delivered fragment of every open partial (96 after the second
/// round, ~hundreds by the end). The steady-state hit rate stays
/// >= 99 % and every slot returns after the run.
#[test]
fn fragmented_puts_keep_rx_pool_bounded() {
    use minos_wire::frag::fragment_with_id;
    use minos_wire::message::{Body, Message};

    const QUEUES: u16 = 2;
    const MESSAGES: u64 = 6;
    const LARGE_LEN: usize = 100_000; // 69 fragments per PUT
    /// Fragments sent per message per round.
    const PACE: usize = 8;
    /// One round's fragments, 6 x 8: what the server may still hold
    /// once it has received everything sent so far.
    const ROUND: u64 = PACE as u64 * MESSAGES;
    let transport = bind_server(QUEUES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );
    let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();
    let src = client.local_endpoint(0);

    // Pre-fragment 6 large PUTs, one per key, distinct msg ids.
    let fragment_sets: Vec<Vec<bytes::Bytes>> = (0..MESSAGES)
        .map(|m| {
            let msg = Message {
                client_id: 1,
                request_id: m,
                client_ts_ns: 0,
                body: Body::Put {
                    key: 5_000 + m,
                    value: bytes::Bytes::from(vec![(5_000 + m) as u8 % 251; LARGE_LEN]),
                    ttl_ms: 0,
                },
            };
            fragment_with_id(0xF00 + m, &msg.encode())
        })
        .collect();
    let per_message = fragment_sets[0].len();
    assert!(per_message * MESSAGES as usize > ROUND as usize * 2);

    // 8 fragments of EVERY message per round, so all 6 reassemblies
    // stay open until the last round.
    let evictions = server.registry().counter("ingest.reassembly_evictions");
    let mut sent = 0u64;
    for round in 0..per_message.div_ceil(PACE) {
        let mut burst: Vec<TxPacket> = Vec::with_capacity(PACE * MESSAGES as usize);
        for (m, frags) in fragment_sets.iter().enumerate() {
            let dst = transport.local_endpoint((m % QUEUES as usize) as u16);
            let lo = round * PACE;
            for frag in &frags[lo.min(frags.len())..(lo + PACE).min(frags.len())] {
                burst.push(TxPacket::from_packet(synthesize(src, dst, frag.clone())));
            }
        }
        let n = burst.len();
        assert_eq!(client.tx_frames(0, &mut burst), n, "no tx loss");
        sent += n as u64;
        // The server has received every datagram sent so far ...
        let deadline = Instant::now() + Duration::from_secs(30);
        while transport.stats().rx_packets < sent {
            assert!(Instant::now() < deadline, "round {round} never arrived");
            std::thread::sleep(Duration::from_micros(50));
        }
        // ... and streams them into their reservations: what it holds
        // falls to at most one round, however late its cores ran — and
        // not because it gave up on open partials (the stale-partial
        // rule would release a hoarding reassembler's buffers too).
        loop {
            let outstanding = transport.io_stats().pool_outstanding;
            assert_eq!(
                evictions.get(),
                0,
                "after round {round}, open partials were evicted ({outstanding} \
                 pooled buffers held): streaming must release fragments, \
                 not the stale-partial rule"
            );
            if outstanding <= ROUND {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "streaming reassembly must not hold fragments: after round \
                 {round}, {outstanding} pooled buffers > {ROUND} with all \
                 {sent} sent fragments received"
            );
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    // All fragments sent: every message must now commit.
    let store = server.store();
    let deadline = Instant::now() + Duration::from_secs(30);
    for m in 0..MESSAGES {
        while store.get(5_000 + m).is_none() {
            assert!(Instant::now() < deadline, "PUT {m} never committed");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    let io = transport.io_stats();
    assert!(
        io.pool_hit_rate() >= 0.99,
        "fragmented-PUT ingest must stay allocation-free \
         ({} hits, {} misses = {:.4} hit rate)",
        io.pool_hits,
        io.pool_misses,
        io.pool_hit_rate()
    );
    // Values arrived intact through the streaming path, nothing was
    // evicted, and once the engine quiesces every slot is home.
    let store = server.store();
    for m in 0..MESSAGES {
        let v = store.get(5_000 + m).expect("stored");
        assert_eq!(v.len(), LARGE_LEN);
        assert!(v.iter().all(|&b| b == (5_000 + m) as u8 % 251));
    }
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter("ingest.reassembly_evictions"), Some(0));
    server.drain(Duration::from_secs(10));
    assert_eq!(
        transport.io_stats().pool_outstanding,
        0,
        "every fragment slot must be back in the slab"
    );
    server.shutdown();
}

/// Pool exhaustion is graceful: with a deliberately tiny slab and every
/// payload held alive, overflow takes fall back to plain allocations
/// (counted as misses), the delivered bytes are identical either way,
/// and dropping the payloads brings the outstanding gauge back to zero.
#[test]
fn rx_pool_exhaustion_falls_back_and_recovers() {
    const SLOTS: usize = 8;
    const N: usize = 64;
    let server = loop {
        let config = UdpConfig {
            pool_slots: SLOTS,
            ..UdpConfig::loopback(alloc_base(1), 1)
        };
        if let Ok(t) = UdpTransport::bind(config) {
            break t;
        }
    };
    let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();
    let src = client.local_endpoint(0);
    let dst = server.local_endpoint(0);

    let mut burst: Vec<TxPacket> = (0..N)
        .map(|i| synthesize(src, dst, bytes::Bytes::from(vec![i as u8; 200])))
        .map(TxPacket::from_packet)
        .collect();
    assert_eq!(client.tx_frames(0, &mut burst), N, "no tx loss");

    // Hold every received packet so no slot can recycle.
    let mut held = Vec::with_capacity(N);
    let deadline = Instant::now() + Duration::from_secs(10);
    while held.len() < N {
        assert!(Instant::now() < deadline, "rx stalled");
        server.rx_burst(0, &mut held, N);
    }
    let io = server.io_stats();
    assert!(
        io.pool_misses > 0,
        "holding {N} payloads over a {SLOTS}-slot pool must exhaust it"
    );
    assert_eq!(io.pool_outstanding, N as u64);
    // Fallback-allocated payloads are byte-identical to pooled ones.
    for (i, pkt) in held.iter().enumerate() {
        assert_eq!(&pkt.payload[..], &[i as u8; 200][..]);
    }
    drop(held);
    assert_eq!(
        server.io_stats().pool_outstanding,
        0,
        "dropping the payloads must return every slot"
    );
}
