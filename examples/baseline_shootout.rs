//! Every queue discipline — the paper's size-aware sharding, its HKH,
//! HKH+WS and SHO baselines, and its cFCFS and dFCFS models — serves the
//! same mixed-size burst on one Minos server, through the same client,
//! store and wire stack: the functional counterpart of the paper's
//! "same codebase" comparison (absolute timing on a laptop is not the
//! point; identical behaviour is).
//!
//! Run with: `cargo run --release --example baseline_shootout`

use minos::core::client::Client;
use minos::core::dispatch::DisciplineKind;
use minos::core::server::{MinosServer, ServerConfig};
use std::time::Duration;

fn exercise(discipline: DisciplineKind, steal: bool) {
    let mut config = ServerConfig::for_test(3, 10_000);
    config.minos.discipline = discipline;
    config.minos.steal = steal;
    let mut server = MinosServer::start(config);
    let mut client = Client::new(&server, 1, 1234);

    let t0 = std::time::Instant::now();
    // A burst of small writes, a few large ones, then reads of all.
    for i in 0..200u64 {
        client.send_put(
            i,
            &vec![(i % 251) as u8; 64 + (i as usize * 7) % 1_300],
            false,
        );
        if i % 32 == 31 {
            assert!(client.drain(Duration::from_secs(60)));
        }
    }
    for i in 0..4u64 {
        client.send_put(1_000 + i, &vec![b'X'; 40_000], true);
        assert!(client.drain(Duration::from_secs(60)));
    }
    for i in 0..200u64 {
        client.send_get(i, false);
        if i % 32 == 31 {
            assert!(client.drain(Duration::from_secs(60)));
        }
    }
    for i in 0..4u64 {
        client.send_get(1_000 + i, true);
    }
    assert!(client.drain(Duration::from_secs(60)));

    let totals = client.totals();
    let stats = server.core_stats();
    let handoffs: u64 = stats.iter().map(|s| s.handoffs).sum();
    let steals: u64 = stats.iter().map(|s| s.steals).sum();
    let name = format!(
        "{}{}",
        discipline.name(),
        if steal { " --steal" } else { "" }
    );
    println!(
        "{name:>13}: {} ops ok, errors={}, handoffs={handoffs}, steals={steals}, wall={:?}",
        totals.completed,
        totals.errors,
        t0.elapsed()
    );
    println!(
        "               latency {}",
        client.latency().quantiles().unwrap()
    );
    server.shutdown();
}

fn main() {
    println!("== every discipline, one server, one workload ==\n");
    for discipline in DisciplineKind::ALL {
        exercise(discipline, false);
    }
    // HKH+WS: hardware dispatch plus ZygOS-style stealing.
    exercise(DisciplineKind::Hkh, true);
    println!(
        "\nEvery discipline served the identical workload through the \
         identical client, store and wire stack."
    );
}
