//! [`EventFd`]: a Linux `eventfd(2)` counter, the in-process stand-in
//! for an interrupt line. A thread blocked in `poll(2)` on its fd wakes
//! when another thread [`EventFd::notify`]s it. The virtual NIC rings
//! one per RX queue when a packet lands on an idle ring
//! ([`crate::VirtualNic::rx_doorbell`]), and a server core blocks on
//! one of its own that its peers write to wake it.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

extern "C" {
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// A non-blocking `eventfd`: readable (`POLLIN`) from a
/// [`EventFd::notify`] until the next [`EventFd::drain`]. Neither call
/// allocates or blocks.
#[derive(Debug)]
pub struct EventFd(File);

impl EventFd {
    /// A fresh counter at zero.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; on success we own the returned fd.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor nothing else owns.
        Ok(EventFd(unsafe { File::from_raw_fd(fd) }))
    }

    /// Makes the fd readable. The counter saturating (`EAGAIN` after
    /// 2^64 - 2 notifies with no drain) leaves it readable, so the
    /// error is moot.
    pub fn notify(&self) {
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }

    /// Resets the counter; returns whether it was notified since the
    /// last drain.
    pub fn drain(&self) -> bool {
        let mut count = [0u8; 8];
        (&self.0).read(&mut count).is_ok_and(|n| n == 8)
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::EventFd;

    #[test]
    fn a_notify_is_drained_once() {
        let efd = EventFd::new().unwrap();
        assert!(!efd.drain(), "fresh counter");
        efd.notify();
        efd.notify();
        assert!(efd.drain(), "notified");
        assert!(!efd.drain(), "one drain resets every notify");
    }
}
