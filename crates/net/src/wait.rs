//! [`PollSet`]: blocking until one of several fds is readable — a
//! server core's RX sockets or virtual-NIC doorbells
//! ([`crate::Transport::rx_readiness`]) and its own wake [`EventFd`] —
//! or a timeout passes, in one `ppoll(2)`.

use crate::sys::{self, PollFd, POLLIN};
use std::os::fd::RawFd;
use std::time::Duration;

pub use minos_nic::EventFd;

/// A reusable set of fds to wait on. Its table is allocated once, at
/// [`PollSet::with_capacity`]; filling and waiting allocate nothing
/// while it stays within that capacity.
#[derive(Debug)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set with room for `capacity` fds.
    pub fn with_capacity(capacity: usize) -> Self {
        PollSet {
            fds: Vec::with_capacity(capacity),
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Adds `fd`, watched for readability, and returns its index.
    pub fn watch(&mut self, fd: RawFd) -> usize {
        self.fds.push(PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Blocks until some fd in the set is readable or `timeout` passes;
    /// returns how many are readable (0: the timeout, a signal or a
    /// failed call ended the wait).
    pub fn wait(&mut self, timeout: Duration) -> usize {
        sys::poll_fds(&mut self.fds, timeout)
    }

    /// Whether the fd at `index` read readable in the last
    /// [`PollSet::wait`].
    pub fn is_ready(&self, index: usize) -> bool {
        self.fds[index].revents != 0
    }
}

#[cfg(test)]
mod tests {
    use super::{EventFd, PollSet};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn a_wait_ends_at_a_notify_or_the_timeout() {
        let (a, b) = (EventFd::new().unwrap(), EventFd::new().unwrap());
        let mut set = PollSet::with_capacity(2);
        set.watch(a.as_raw_fd());
        set.watch(b.as_raw_fd());
        let t0 = Instant::now();
        assert_eq!(set.wait(Duration::from_millis(5)), 0, "nothing notified");
        assert!(
            t0.elapsed() >= Duration::from_millis(5),
            "waited out the timeout"
        );
        b.notify();
        assert_eq!(set.wait(Duration::from_secs(60)), 1);
        assert!(!set.is_ready(0) && set.is_ready(1));
        assert!(b.drain());
        assert_eq!(set.wait(Duration::ZERO), 0, "drained");
    }
}
