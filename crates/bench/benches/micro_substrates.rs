//! Criterion microbenchmarks of the substrates on the datapath:
//! KV GET/PUT, RSS hashing, zipfian sampling, histogram updates,
//! fragmentation round trips and NIC ring bursts.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use minos_kv::{CapacityConfig, EvictionPolicy, Store, StoreConfig};
use minos_nic::{NicConfig, RssHasher, VirtualNic};
use minos_stats::SizeHistogram;
use minos_wire::frag::fragment_with_id;
use minos_wire::packet::{build_frame, parse_frame, Endpoint};
use minos_workload::{Rng, Zipf};
use std::hint::black_box;

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
    g.finish();
}

/// One housekeeping eviction pass (`tick_victims` = 64 victims) over a
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

fn bench_rss(c: &mut Criterion) {
    let rss = RssHasher::new(8);
    let t = minos_wire::packet::FiveTuple {
        src_ip: 0x0A000001,
        dst_ip: 0x0A000002,
        src_port: 12345,
        dst_port: 9003,
        protocol: 17,
    };
    c.bench_function("rss/toeplitz", |b| {
        b.iter(|| black_box(rss.queue_for(black_box(&t))))
    });
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
    let src = Endpoint::host(1, 100);
    let dst = Endpoint::host(2, 9000);
    c.bench_function("wire/frame_roundtrip_small", |b| {
        b.iter(|| {
            let f = build_frame(black_box(src), black_box(dst), black_box(b"hello world!"));
            black_box(parse_frame(f))
        })
    });
    let big = vec![0u8; 100_000];
    c.bench_function("wire/fragment_100kb", |b| {
        b.iter(|| black_box(fragment_with_id(black_box(1), black_box(&big))))
    });
}

fn bench_nic(c: &mut Criterion) {
    let nic = VirtualNic::new(NicConfig::new(8));
    let frame = build_frame(Endpoint::host(1, 100), Endpoint::host(2, 9003), &[0u8; 64]);
    let pkt = parse_frame(frame).unwrap();
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
    targets = bench_kv, bench_rss, bench_zipf, bench_hist, bench_wire, bench_nic
);
// Only the routine is timed, and the eviction benches' untimed setup is
// a hundred times their routine: 20 ms of passes is ~2 s of wall time.
criterion_group!(
    name = evict;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(20)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_kv_evict
);
criterion_main!(micro, evict);
