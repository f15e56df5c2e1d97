//! Dataset preload: one PUT per key, paced so that it cannot overrun
//! the socket buffers between client and server. Runs on the clean
//! client [`crate::RunConfig::preloader`] builds.

use minos_core::client::Client;
use minos_workload::Dataset;
use std::time::{Duration, Instant};

/// Most value bytes in flight. The dataset's large keys are contiguous
/// ids of up to `s_L` = 500 KB each; bounding only the request count
/// queues tens of megabytes of fragments into 4 MiB socket buffers,
/// and the kernel drops what does not fit. Same rule as the benchmark
/// harness (`benchmark/src/live.rs`).
pub const PRELOAD_MAX_BYTES: u64 = 512 << 10;
/// Most requests in flight.
pub const PRELOAD_MAX_REQUESTS: u64 = 256;
/// A preload that sees no reply for this long has lost them: a large
/// `--keys` preload against a healthy server may take minutes, but a
/// dead target should be diagnosed in seconds.
const STALL: Duration = Duration::from_secs(5);

/// The preload stopped making progress with this many replies missing.
#[derive(Debug, PartialEq, Eq)]
pub struct PreloadStalled {
    /// Requests sent and never answered.
    pub outstanding: u64,
}

/// PUTs every key of `dataset` through `client`, with at most
/// [`PRELOAD_MAX_REQUESTS`] requests and [`PRELOAD_MAX_BYTES`] value
/// bytes (or one value, if larger) in flight, and waits for every
/// reply. Error replies still count as replies; check
/// `client.totals().errors`.
pub fn preload(client: &mut Client, dataset: &Dataset) -> Result<(), PreloadStalled> {
    // Bytes sent since the pipe was last empty: an upper bound on the
    // bytes in flight.
    let mut window_bytes = 0u64;
    for key in 0..dataset.num_keys() {
        let size = dataset.size_of(key);
        if window_bytes > 0 && window_bytes + size > PRELOAD_MAX_BYTES {
            wait_for_outstanding(client, 0)?;
            window_bytes = 0;
        }
        let value = vec![(key % 251) as u8; size as usize];
        client.send_put(key, &value, size as usize > minos_wire::MAX_FRAG_CHUNK);
        window_bytes += size;
        wait_for_outstanding(client, PRELOAD_MAX_REQUESTS)?;
    }
    wait_for_outstanding(client, 0)
}

/// Polls until at most `limit` requests are outstanding.
fn wait_for_outstanding(client: &mut Client, limit: u64) -> Result<(), PreloadStalled> {
    if client.totals().outstanding() <= limit {
        return Ok(());
    }
    let mut last_progress = Instant::now();
    while client.totals().outstanding() > limit {
        if !client.poll().is_empty() {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            return Err(PreloadStalled {
                outstanding: client.totals().outstanding(),
            });
        }
    }
    Ok(())
}
