//! The four workloads: what each sends, how its server is configured,
//! and why it is in the set. Everything random derives from the seed;
//! the server only ever sees the generated requests.

use minos_kv::{CapacityConfig, EvictionPolicy, StoreConfig};
use minos_workload::{
    AccessGenerator, ChurnConfig, ChurnGenerator, Dataset, OpSpec, Operation, Rng,
};

/// Server cores (and RX queues) in every workload.
pub const SERVER_CORES: u16 = 2;
/// `--items` of every server.
pub const SERVER_ITEMS: usize = 200_000;

const ETC_KEYS: u64 = 100_000;
const ETC_LARGE_KEYS: u64 = 64;
const ETC_TINY_FRAC: f64 = 0.4;
const ETC_LARGE_MAX: u64 = 500_000;
const ETC_MEM: usize = 256 << 20;
const ZIPF_S: f64 = 0.99;
/// Salt of the per-key size hash. The population is the same under
/// every seed — the seed orders the requests, it does not pick which
/// sizes the hot keys have. Under zipf 0.99 the ten hottest keys carry a
/// quarter of the traffic, and re-drawing their sizes per seed moved
/// the loaded small-class median by 20 % between seeds.
const POPULATION_SALT: u64 = 42;

const CHURN_KEYS: u64 = 20_000;
/// About half the churn working set (≈ 41.6 MB): 2× overcommit.
const CHURN_MEM: usize = 20_000_000;

/// Keys the verify pass samples, on top of every large key.
const VERIFY_SAMPLES: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// The paper's ETC-like dataset (§5.3) at the given large-request
    /// share and GET share.
    Etc { p_large: f64, get_ratio: f64 },
    /// A working set twice the mempool, evicted by size-aware CLOCK.
    Churn,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers it stresses.
    pub why: &'static str,
    kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "etc_read",
        why: "paper default, 95:5 GET:PUT, 0.125% large: net syscalls and core dispatch dominate, kv and wire fragmentation nearly idle",
        kind: Kind::Etc {
            p_large: 0.00125,
            get_ratio: 0.95,
        },
    },
    Workload {
        name: "etc_write",
        why: "paper write-intensive mix, 50:50 GET:PUT: same layers as etc_read plus kv writes (CREW locks, mempool alloc/free, one-copy ingest)",
        kind: Kind::Etc {
            p_large: 0.00125,
            get_ratio: 0.5,
        },
    },
    Workload {
        name: "large_heavy",
        why: "95:5 with 2% large requests: wire fragment/reassemble, net batching, the core handoff queue and the large core; small-class latency is the isolation claim",
        kind: Kind::Etc {
            p_large: 0.02,
            get_ratio: 0.95,
        },
    },
    Workload {
        name: "churn_evict",
        why: "50:50 over a working set 2x the mempool with size-aware-clock eviction: kv eviction, CLOCK and mempool reuse; the plan runs in standby",
        kind: Kind::Churn,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn mem_bytes(&self) -> usize {
        match self.kind {
            Kind::Etc { .. } => ETC_MEM,
            Kind::Churn => CHURN_MEM,
        }
    }

    fn eviction(&self) -> EvictionPolicy {
        match self.kind {
            Kind::Etc { .. } => EvictionPolicy::None,
            Kind::Churn => EvictionPolicy::SizeAwareClock,
        }
    }

    /// The workload-specific `minos-server` flags.
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = vec!["--mem".to_string(), self.mem_bytes().to_string()];
        if self.eviction() != EvictionPolicy::None {
            flags.push("--eviction-policy".to_string());
            flags.push(self.eviction().name().to_string());
        }
        flags
    }

    /// The store `minos-server` builds from [`Workload::server_flags`],
    /// for the in-process replay.
    pub fn store_config(&self) -> StoreConfig {
        let mut config = StoreConfig::for_items(
            usize::from(SERVER_CORES) * 4,
            SERVER_ITEMS,
            self.mem_bytes(),
        );
        config.capacity = CapacityConfig {
            policy: self.eviction(),
            ..CapacityConfig::default()
        };
        config
    }

    /// A GET may miss only where eviction is the point.
    pub fn allows_not_found(&self) -> bool {
        self.kind == Kind::Churn
    }

    pub fn ops(&self, seed: u64) -> OpStream {
        let gen = match self.kind {
            Kind::Etc { p_large, get_ratio } => Gen::Etc(AccessGenerator::new(
                Dataset::new(
                    ETC_KEYS,
                    ETC_LARGE_KEYS,
                    ETC_TINY_FRAC,
                    ETC_LARGE_MAX,
                    POPULATION_SALT,
                ),
                p_large,
                get_ratio,
                ZIPF_S,
            )),
            Kind::Churn => Gen::Churn(ChurnGenerator::new(ChurnConfig {
                num_keys: CHURN_KEYS,
                value_min: 64,
                value_max: 4096,
                zipf_s: ZIPF_S,
                get_ratio: 0.5,
                ttl_ms: 0,
                salt: POPULATION_SALT,
            })),
        };
        OpStream {
            gen,
            rng: Rng::new(seed),
        }
    }
}

enum Gen {
    Etc(AccessGenerator),
    Churn(ChurnGenerator),
}

/// A workload's seeded request stream plus its key population.
pub struct OpStream {
    gen: Gen,
    rng: Rng,
}

impl OpStream {
    pub fn next_op(&mut self) -> OpSpec {
        match &self.gen {
            Gen::Etc(g) => g.next_op(&mut self.rng),
            Gen::Churn(g) => g.next_op(&mut self.rng),
        }
    }

    fn num_keys(&self) -> u64 {
        match &self.gen {
            Gen::Etc(g) => g.dataset().num_keys(),
            Gen::Churn(g) => g.config().num_keys,
        }
    }

    /// The class and size the generator gives `key`, as a PUT.
    fn put_of(&self, key: u64) -> OpSpec {
        let (item_size, is_large) = match &self.gen {
            Gen::Etc(g) => (g.dataset().size_of(key), g.dataset().is_large_key(key)),
            // Same rule as `ChurnGenerator::next_op`: values that need
            // more than one datagram are that workload's large class.
            Gen::Churn(g) => {
                let size = g.size_of(key);
                (size, size >= minos_workload::sizes::LARGE_MIN)
            }
        };
        OpSpec {
            key,
            op: Operation::Put,
            item_size,
            is_large,
            ttl_ms: 0,
        }
    }

    /// One PUT per key of the population, in key order.
    pub fn preload(&self) -> impl Iterator<Item = OpSpec> + '_ {
        (0..self.num_keys()).map(|key| self.put_of(key))
    }

    /// What the verify pass reads back: [`VERIFY_SAMPLES`] keys drawn
    /// from the population plus every large key of a dataset workload,
    /// each with its expected value length.
    pub fn verify_keys(&mut self) -> Vec<(u64, usize)> {
        let n = self.num_keys();
        let mut keys: Vec<u64> = (0..VERIFY_SAMPLES)
            .map(|_| self.rng.range_u64(0, n - 1))
            .collect();
        if let Gen::Etc(g) = &self.gen {
            let d = g.dataset();
            keys.extend((0..d.num_large()).map(|i| d.large_key(i)));
        }
        keys.into_iter()
            .map(|key| (key, self.put_of(key).item_size as usize))
            .collect()
    }
}

/// The byte every value of `key` is filled with — the rule
/// `minos_core::client::Client` synthesizes PUT values by.
pub fn fill_byte(key: u64) -> u8 {
    (key % 251) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        for w in &WORKLOADS {
            let take = |seed| {
                let mut s = w.ops(seed);
                (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(take(3), take(3), "{}", w.name);
            assert_ne!(take(3), take(4), "{}", w.name);
        }
    }

    #[test]
    fn preload_covers_the_population_once() {
        let etc = Workload::by_name("etc_read").unwrap().ops(1);
        assert_eq!(etc.preload().count() as u64, ETC_KEYS);
        assert_eq!(
            etc.preload().filter(|op| op.is_large).count() as u64,
            ETC_LARGE_KEYS
        );
        let churn = Workload::by_name("churn_evict").unwrap().ops(1);
        let bytes: u64 = churn.preload().map(|op| op.item_size).sum();
        assert!(
            bytes > 2 * CHURN_MEM as u64,
            "churn must overcommit 2x: {bytes}"
        );
    }

    #[test]
    fn verify_set_holds_every_large_key() {
        let mut etc = Workload::by_name("large_heavy").unwrap().ops(9);
        let keys = etc.verify_keys();
        assert_eq!(keys.len(), VERIFY_SAMPLES + ETC_LARGE_KEYS as usize);
        assert!(keys.iter().filter(|(_, len)| *len >= 1500).count() >= ETC_LARGE_KEYS as usize);
    }
}
