//! Criterion microbenchmarks of the substrates on the datapath:
//! KV GET/PUT (replacements of one length, of lengths that cross
//! block classes, and of lengths whose own class is empty), zipfian
//! sampling, histogram updates, a transmit frame's construction, NIC
//! ring bursts, a handoff through a software queue, a 500 KB GET
//! reply's two user-space ends (a core staging it, a client
//! reassembling it) and real-UDP loopback sends and receives (one
//! datagram; eight small replies sent one by one, as one burst and as
//! one burst of bundles; a 500 KB reply's 344 fragments).
//!
//! `tools/bench_micro.sh` runs them into `BENCH_micro.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use crossbeam::queue::ArrayQueue;
use minos_core::client::Client;
use minos_core::server::{transmit_message, Handoff, ServerRequest, TxBurst};
use minos_kv::{CapacityConfig, EvictionPolicy, Store, StoreConfig};
use minos_net::{Transport, UdpConfig, UdpTransport};
use minos_nic::{NicConfig, VirtualNic};
use minos_stats::SizeHistogram;
use minos_wire::frag::{fragment_frame_with_id, fragment_with_id};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{synthesize, synthesize_frame, Endpoint, Packet, TxPacket};
use minos_wire::TxFrame;
use minos_workload::{Rng, Zipf};
use std::hint::black_box;
use std::sync::Arc;

fn bench_kv(c: &mut Criterion) {
    let store = Store::new(StoreConfig::for_items(8, 100_000, 256 << 20));
    for k in 0..50_000u64 {
        store.put(k, &k.to_le_bytes()).unwrap();
    }
    let mut g = c.benchmark_group("kv");
    let mut key = 0u64;
    g.bench_function("get_hit", |b| {
        b.iter(|| {
            key = (key + 1) % 50_000;
            black_box(store.get(black_box(key)))
        })
    });
    g.bench_function("get_miss", |b| {
        b.iter(|| black_box(store.get(black_box(999_999_999))))
    });
    let value = vec![0xAAu8; 100];
    g.bench_function("put_replace_100b", |b| {
        b.iter(|| {
            key = (key + 1) % 50_000;
            store.put(black_box(key), black_box(&value)).unwrap()
        })
    });
    // Replacements whose lengths cycle through 14–1 400 B, so a key's
    // new block is mostly of another class than its old one. Seventeen
    // lengths against 50 000 keys: each pass gives a key the next one.
    let lengths = [
        14, 20, 28, 40, 56, 80, 112, 160, 224, 320, 448, 640, 900, 1000, 1100, 1250, 1400,
    ];
    let bytes = vec![0x5Au8; 1400];
    let mut i = 0usize;
    g.bench_function("put_replace_mixed", |b| {
        b.iter(|| {
            i += 1;
            let value = &bytes[..lengths[i % lengths.len()]];
            store
                .put(black_box((i % 50_000) as u64), black_box(value))
                .unwrap()
        })
    });
    g.finish();
}

/// PUTs whose own block class is always empty while the next class up
/// holds free blocks: each replacement borrows a 1 120 B block through
/// the freelist bitmap, and the replaced value's 1 120 B block goes back
/// to its own class. Five lengths (1 030–1 100 B, classes 1 040–1 104 B)
/// against 10 000 keys, with 64 spare blocks freed up front.
fn bench_kv_bestfit(c: &mut Criterion) {
    const KEYS: u64 = 10_000;
    let store = Store::new(StoreConfig::for_items(8, 20_000, 256 << 20));
    let bytes = vec![0xA5u8; 1120];
    for k in 0..KEYS + 64 {
        store.put(k, &bytes).unwrap();
    }
    for k in KEYS..KEYS + 64 {
        store.delete(k);
    }
    let lengths = [1030, 1050, 1070, 1090, 1100];
    let reuses = store.mempool().stats().reuses;
    let mut i = 0usize;
    let mut g = c.benchmark_group("kv");
    g.bench_function("put_bestfit_mixed", |b| {
        b.iter(|| {
            i += 1;
            let value = &bytes[..lengths[i % lengths.len()]];
            store
                .put(black_box(i as u64 % KEYS), black_box(value))
                .unwrap()
        })
    });
    g.finish();
    let s = store.mempool().stats();
    assert_eq!(s.reuses - reuses, i as u64, "every PUT borrowed a block");
    assert_eq!(
        s.held_bytes,
        (KEYS as usize + 64) * 1120,
        "no block allocated"
    );
}

/// One housekeeping eviction pass (`VICTIMS_PER_TICK` = 64 victims) over a
/// single partition of `slots` item slots holding `live` 1 KiB items,
/// in the state a read-heavy store keeps it in: every item referenced
/// except the 64 the last pass made room for.
fn bench_evict_pass(c: &mut Criterion, name: &str, slots: usize, live: u64) {
    let store = Store::new(StoreConfig {
        items_per_partition: slots,
        capacity: CapacityConfig {
            policy: EvictionPolicy::SizeAwareClock,
            ..CapacityConfig::default()
        },
        ..StoreConfig::for_items(1, live as usize, live as usize * 1024)
    });
    let value = [0x55u8; 1024];
    let mut g = c.benchmark_group("kv");
    g.bench_function(name, |b| {
        b.iter_batched(
            || {
                // Touch every key, writing back the evicted ones: the
                // pool is exactly full again, over its high watermark.
                for key in 0..live {
                    if store.get(key).is_none() {
                        store.put(key, &value).unwrap();
                    }
                }
            },
            |()| store.capacity_tick(0, 1, 1),
            BatchSize::PerIteration,
        )
    });
    g.finish();
    assert_eq!(store.stats().evict_passes_reserve, 0, "only ticks evict");
    assert_eq!(store.stats().evictions % 64, 0, "every pass is 64 victims");
}

fn bench_kv_evict(c: &mut Criterion) {
    bench_evict_pass(c, "evict_pass_sparse", 200_000, 10_000);
    bench_evict_pass(c, "evict_pass_dense", 10_000, 10_000);
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(16_000_000, 0.99);
    let mut rng = Rng::new(1);
    c.bench_function("workload/zipf_16M", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

fn bench_hist(c: &mut Criterion) {
    let mut h = SizeHistogram::new();
    let mut x = 1u64;
    c.bench_function("stats/size_hist_record", |b| {
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(x % 500_000));
        })
    });
    for v in 0..100_000u64 {
        h.record(v % 500_000);
    }
    c.bench_function("stats/size_hist_p99", |b| {
        b.iter(|| black_box(h.percentile(99.0)))
    });
}

fn bench_wire(c: &mut Criterion) {
    // Every request and every reply fragment starts from one of these.
    c.bench_function("wire/txframe_new", |b| b.iter(|| black_box(TxFrame::new())));
}

/// A transport that accepts and drops every frame it is handed, as a
/// socket does once `sendmmsg` returns, and hands every RX burst a copy
/// of `replay` (refcount bumps, no byte copies).
struct Loop {
    replay: Vec<Packet>,
}

impl Transport for Loop {
    fn num_queues(&self) -> u16 {
        1
    }

    fn rx_burst(&self, _queue: u16, out: &mut Vec<Packet>, _max: usize) -> usize {
        out.extend(self.replay.iter().cloned());
        self.replay.len()
    }

    fn tx_frames(&self, _queue: u16, frames: &mut Vec<TxPacket>) -> usize {
        let sent = frames.len();
        frames.clear();
        sent
    }

    fn local_endpoint(&self, _queue: u16) -> Endpoint {
        Endpoint::host(1, 9000)
    }
}

/// The user-space ends of a 500 KB GET reply, with no kernel between
/// them: a core staging the reply as a store hands it over
/// (`TxBurst::stage`: the encode, 344 fragments and their datagrams,
/// plus dropping them after a flush, as a send does), and a client
/// taking its 344 datagrams in one `Client::poll` (frame walk,
/// streaming reassembly into the value buffer, decode). Divide by 344
/// for the cost per fragment.
fn bench_large_reply(c: &mut Criterion) {
    const FRAGMENTS: usize = 344;
    let store = Store::new(StoreConfig::for_items(1, 16, 8 << 20));
    let value: Vec<u8> = (0..500_000u32).map(|i| i as u8).collect();
    store.put(1, &value).unwrap();
    let reply = Message {
        client_id: 1,
        request_id: 1,
        client_ts_ns: 0,
        body: Body::GetReply {
            status: ReplyStatus::Ok,
            key: 1,
            value: bytes::Bytes::from_owner(store.get(1).expect("stored")),
        },
    };
    let (server, client_at) = (Endpoint::host(1, 9000), Endpoint::host(100, 20_001));
    let sent = Loop { replay: Vec::new() };
    let mut burst = TxBurst::with_capacity(512);
    c.bench_function("core/tx_stage_500k_get", |b| {
        b.iter(|| {
            let datagrams = burst.stage(server, client_at, black_box(&reply), 1, true);
            assert_eq!(datagrams, FRAGMENTS);
            burst.flush(&sent, 0)
        })
    });

    let replay: Vec<Packet> = fragment_frame_with_id(1, &reply.encode_frame())
        .iter()
        .map(|frag| synthesize(server, client_at, frag.to_contiguous().0))
        .collect();
    assert_eq!(replay.len(), FRAGMENTS);
    let mut client = Client::with_transport(Arc::new(Loop { replay }), client_at, server, 1, 1, 7);
    // One untimed poll reassembles the whole value (and, with no
    // request pending, counts the reply unmatched); so does every
    // timed one.
    client.poll();
    assert_eq!(client.reply_copied_bytes(), value.len() as u64);
    c.bench_function("core/client_reassemble_500k_get", |b| {
        b.iter(|| black_box(client.poll()))
    });
    assert!(client
        .reply_copied_bytes()
        .is_multiple_of(value.len() as u64));
    assert_eq!(client.reassembly_evictions(), 0);
}

/// Polls `t` until `want` datagrams arrived. Loopback loses nothing
/// that fits the receive buffer, so a stall is a bug, not noise.
fn rx_exactly(t: &UdpTransport, want: usize) -> Vec<Packet> {
    let mut out = Vec::with_capacity(want);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while out.len() < want {
        let room = want - out.len();
        t.rx_burst(0, &mut out, room);
        assert!(
            std::time::Instant::now() < deadline,
            "{} of {want}",
            out.len()
        );
    }
    out
}

/// Real kernel UDP over loopback, the path every request and reply
/// takes: one small datagram there (send + receive together), and the
/// 344 fragments of a 500 KB GET reply with the send and the receive
/// half timed separately.
fn bench_net_loopback(c: &mut Criterion) {
    static PORTS: minos_net::testport::TestPorts =
        minos_net::testport::TestPorts::new(40_000, 41_600);
    let server = UdpTransport::bind(UdpConfig::loopback(PORTS.alloc(8), 1)).expect("bind");
    let client = UdpTransport::bind_client(std::net::Ipv4Addr::LOCALHOST).expect("bind");
    let (src, dst) = (client.local_endpoint(0), server.local_endpoint(0));
    let fragments = |value_len: usize| -> Vec<TxPacket> {
        let reply = Message {
            client_id: 1,
            request_id: 1,
            client_ts_ns: 0,
            body: Body::GetReply {
                status: ReplyStatus::Ok,
                key: 1,
                value: vec![0x5Au8; value_len].into(),
            },
        };
        fragment_frame_with_id(1, &reply.encode_frame())
            .into_iter()
            .map(|frag| synthesize_frame(src, dst, frag))
            .collect()
    };

    let single = fragments(64);
    assert_eq!(single.len(), 1);
    c.bench_function("net/loopback_single", |b| {
        b.iter(|| {
            assert_eq!(client.tx_frames(0, &mut single.clone()), 1);
            black_box(rx_exactly(&server, 1))
        })
    });

    // Eight small GET replies of unequal lengths to one peer, encoded,
    // sent and received: a `tx_frames` call (so a `sendmmsg`) per reply,
    // against a core's reply burst — stage all eight, flush once. With
    // offload the burst's runs (300, 120, 120, 64), (300, 300, 90) and
    // the lone 512 are three stack traversals to send instead of eight
    // (and still eight datagrams to receive) ...
    let replies: Vec<Message> = [300usize, 120, 120, 64, 300, 300, 90, 512]
        .iter()
        .map(|&len| Message {
            client_id: 1,
            request_id: 1,
            client_ts_ns: 0,
            body: Body::GetReply {
                status: ReplyStatus::Ok,
                key: 1,
                value: vec![0x5Au8; len].into(),
            },
        })
        .collect();
    c.bench_function("net/loopback_burst8/per_reply", |b| {
        b.iter(|| {
            for (id, reply) in replies.iter().enumerate() {
                transmit_message(&client, 0, src, dst, reply, id as u64);
            }
            black_box(rx_exactly(&server, replies.len()))
        })
    });
    // ... and to a peer that accepts bundles, where the eight replies
    // share datagrams (four frames each at most, so two of them): what
    // is sent and what is received both shrink from eight stack
    // traversals to two, whatever the lengths.
    let mut burst = TxBurst::with_capacity(replies.len());
    for (name, accepts_bundles, datagrams) in [("one_burst", false, 8), ("bundled", true, 2)] {
        c.bench_function(&format!("net/loopback_burst8/{name}"), |b| {
            b.iter(|| {
                for (id, reply) in replies.iter().enumerate() {
                    burst.stage(src, dst, reply, id as u64, accepts_bundles);
                }
                let sent = burst.flush(&client, 0);
                assert_eq!((sent.packets, sent.frames), (datagrams, 8));
                black_box(rx_exactly(&server, datagrams as usize))
            })
        });
    }

    let message = fragments(500_000);
    let n = message.len();
    assert_eq!(n, 344);
    c.bench_function("net/loopback_msg_500k/tx", |b| {
        b.iter_batched(
            || {
                // The previous message must be out of the receive
                // buffer, or this one is (cheaply) dropped into it.
                let mut sink = Vec::new();
                while server.rx_burst(0, &mut sink, 512) > 0 {
                    sink.clear();
                }
                message.clone()
            },
            |mut burst| assert_eq!(client.tx_frames(0, &mut burst), n),
            BatchSize::PerIteration,
        );
    });
    c.bench_function("net/loopback_msg_500k/rx", |b| {
        b.iter_batched(
            || assert_eq!(client.tx_frames(0, &mut message.clone()), n),
            |()| black_box(rx_exactly(&server, n)),
            BatchSize::PerIteration,
        )
    });
}

/// One request handed off through a 65 536-slot software queue, pushed
/// and popped: the ring holding the `Handoff` inline (120-byte slots)
/// against boxed (16-byte slots, plus an allocation and a free per
/// handoff). On one thread the free never crosses cores, which is what
/// makes the server's rings reuse their boxes instead.
fn bench_handoff_ring(c: &mut Criterion) {
    let handoff = || {
        Handoff::Request(ServerRequest {
            msg: Message {
                client_id: 1,
                request_id: 1,
                client_ts_ns: 0,
                body: Body::Get { key: 1 },
            },
            reply_to: Endpoint::host(1, 100),
            accepts_bundles: true,
            arrival_ns: 0,
        })
    };
    let inline = ArrayQueue::new(1 << 16);
    c.bench_function("core/handoff_ring/inline", |b| {
        b.iter(|| {
            inline.push(black_box(handoff())).unwrap();
            black_box(inline.pop())
        })
    });
    let boxed = ArrayQueue::new(1 << 16);
    c.bench_function("core/handoff_ring/boxed", |b| {
        b.iter(|| {
            boxed.push(Box::new(black_box(handoff()))).unwrap();
            black_box(boxed.pop())
        })
    });
}

fn bench_nic(c: &mut Criterion) {
    let nic = VirtualNic::new(NicConfig::new(8));
    // A 64-byte payload: a fragment header and 48 bytes.
    let payload = fragment_with_id(1, &[0u8; 48]).remove(0);
    let pkt = synthesize(Endpoint::host(1, 100), Endpoint::host(2, 9003), payload);
    c.bench_function("nic/deliver_and_burst", |b| {
        b.iter_batched(
            || pkt.clone(),
            |p| {
                nic.deliver_packet(p);
                let mut out = Vec::with_capacity(1);
                nic.rx_burst(3, &mut out, 1);
                black_box(out)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kv, bench_kv_bestfit, bench_zipf, bench_hist, bench_wire, bench_large_reply, bench_nic, bench_handoff_ring, bench_net_loopback
);
// Only the routine is timed, and the eviction benches' untimed setup is
// a hundred times their routine: 20 ms of passes is ~2 s of wall time.
criterion_group!(
    name = evict;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(20)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_kv_evict
);
criterion_main!(micro, evict);
