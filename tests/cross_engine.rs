//! Cross-crate integration tests: the paper's designs (Minos, HKH,
//! HKH+WS, SHO) as disciplines of the one server, one workload
//! generator, one client, one store substrate.

use minos::core::client::Client;
use minos::core::dispatch::DisciplineKind;
use minos::core::server::{MinosServer, ServerConfig};
use minos::net::VirtualTransport;
use minos::workload::{AccessGenerator, Dataset, Operation, Rng};
use std::time::Duration;

fn start(kind: DisciplineKind, steal: bool) -> MinosServer<VirtualTransport> {
    let mut config = ServerConfig::for_test(4, 2_000);
    config.minos.discipline = kind;
    config.minos.steal = steal;
    MinosServer::start(config)
}

/// Runs a small generated workload against a server; returns
/// (completed, errors).
fn run_workload(
    server: &MinosServer<VirtualTransport>,
    queue_limit: Option<u16>,
    seed: u64,
) -> (u64, u64) {
    let mut client = Client::new(server, 1, seed);
    if let Some(limit) = queue_limit {
        client = client.with_target_queues(0..limit);
    }
    // A scaled dataset with small s_L so the test is quick but still
    // exercises fragmentation.
    let dataset = Dataset::new(500, 5, 0.4, 20_000, seed);
    let gen = AccessGenerator::new(dataset.clone(), 0.01, 0.5, 0.99);
    let mut rng = Rng::new(seed);

    // Preload everything the generator can touch.
    for key in 0..dataset.num_keys() {
        let value = vec![(key % 256) as u8; dataset.size_of(key) as usize];
        client.send_put(key, &value, dataset.is_large_key(key));
        if key % 32 == 31 {
            assert!(client.drain(Duration::from_secs(60)), "preload");
        }
    }
    assert!(client.drain(Duration::from_secs(60)), "preload drain");

    for i in 0..400u64 {
        let spec = gen.next_op(&mut rng);
        match spec.op {
            Operation::Get => client.send_get(spec.key, spec.is_large),
            Operation::Put => {
                let value = vec![(spec.key % 256) as u8; spec.item_size as usize];
                client.send_put(spec.key, &value, spec.is_large);
            }
        }
        if i % 32 == 31 {
            assert!(client.drain(Duration::from_secs(60)), "batch {i}");
        }
    }
    assert!(client.drain(Duration::from_secs(60)), "final drain");
    let t = client.totals();
    assert_eq!(t.outstanding(), 0, "zero loss required");
    (t.completed, t.errors)
}

fn serves_generated_workload(kind: DisciplineKind, steal: bool, queues: Option<u16>, seed: u64) {
    let mut server = start(kind, steal);
    let (completed, errors) = run_workload(&server, queues, seed);
    assert_eq!(completed, 900, "{} (steal {steal})", kind.name());
    assert_eq!(errors, 0, "{} (steal {steal})", kind.name());
    server.shutdown();
}

#[test]
fn minos_serves_generated_workload() {
    serves_generated_workload(DisciplineKind::SizeAware, false, None, 11);
}

#[test]
fn hkh_serves_generated_workload() {
    serves_generated_workload(DisciplineKind::Hkh, false, None, 12);
}

#[test]
fn hkh_ws_serves_generated_workload() {
    serves_generated_workload(DisciplineKind::Hkh, true, None, 13);
}

#[test]
fn sho_serves_generated_workload() {
    // Clients target only the two dispatch cores' RX queues.
    serves_generated_workload(DisciplineKind::Sho { handoff: 2 }, false, Some(2), 14);
}

#[test]
fn engines_agree_on_final_store_state() {
    // The same deterministic op sequence must leave identical KV state
    // under Minos and HKH (placement must not affect semantics).
    let mut minos = start(DisciplineKind::SizeAware, false);
    let mut hkh = start(DisciplineKind::Hkh, false);
    run_workload(&minos, None, 77);
    run_workload(&hkh, None, 77);

    let dataset = Dataset::new(500, 5, 0.4, 20_000, 77);
    for key in 0..dataset.num_keys() {
        let a = minos.store().get(key).map(|v| v.len());
        let b = hkh.store().get(key).map(|v| v.len());
        assert_eq!(a, b, "key {key} differs between engines");
    }
    minos.shutdown();
    hkh.shutdown();
}
