//! Thread-to-core pinning.
//!
//! The paper's deployment pins one busy-polling thread per physical core
//! (§5.1); without pinning, the scheduler migrates pollers between cores
//! and the per-core cache/queue affinity the dispatch model assumes is
//! lost. `minos-server --pin` and `minos-loadgen --pin` both route here.

use std::io;

/// Pins the calling thread to `cpu` (`sched_setaffinity`). Callers
/// treat failure as best-effort: an unpinned poller is slower, not
/// wrong.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    crate::sys::pin_current_thread(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_to_cpu0_succeeds() {
        // CPU 0 exists on every machine.
        pin_current_thread(0).expect("pin to cpu 0");
    }

    #[test]
    fn pin_out_of_range_fails() {
        assert!(pin_current_thread(1 << 20).is_err());
    }
}
