//! Raw kernel plumbing for the UDP backend: socket creation with
//! `SO_REUSEPORT` (which `std` cannot express), the batched
//! `recvmmsg`/`sendmmsg` syscalls (the kernel-sockets analog of DPDK RX/TX
//! bursts, paper §4.1 "requests are moved in batches to further limit
//! overhead"), and UDP segmentation offload (`UDP_SEGMENT` / `UDP_GRO`,
//! the analog of the NIC sending a large reply as one multi-packet
//! train).
//!
//! Everything speaks to the C library directly — the toolchain links libc
//! anyway, so no external crate is needed in this offline build
//! environment. Linux is the only target, and the batched calls are
//! the only data path: there is no one-datagram syscall to fall back
//! to.

#[cfg(not(target_os = "linux"))]
compile_error!("minos-net needs Linux: recvmmsg, sendmmsg and UDP_SEGMENT");

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::os::fd::FromRawFd;
use std::sync::atomic::{AtomicBool, Ordering};

const AF_INET: i32 = 2;
const SOCK_DGRAM: i32 = 2;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;
const SO_REUSEPORT: i32 = 15;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const UDP_GRO: i32 = 104;

/// Non-blocking flag for one `recvmmsg`/`sendmmsg` call.
pub const MSG_DONTWAIT: i32 = 0x40;

const EIO: i32 = 5;
const EINVAL: i32 = 22;
const ENOPROTOOPT: i32 = 92;
const EOPNOTSUPP: i32 = 95;

/// IPv4 socket address in kernel layout (`struct sockaddr_in`).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

impl SockaddrIn {
    /// The all-zero address (used to pre-fill receive arenas).
    pub const ZERO: SockaddrIn = SockaddrIn {
        sin_family: 0,
        sin_port: 0,
        sin_addr: 0,
        sin_zero: [0; 8],
    };

    /// Kernel-layout encoding of `addr`.
    pub fn from_v4(addr: SocketAddrV4) -> Self {
        SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        }
    }

    /// Decodes back to a socket address; `None` unless `AF_INET`.
    pub fn to_v4(self) -> Option<SocketAddrV4> {
        if self.sin_family != AF_INET as u16 {
            return None;
        }
        Some(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(self.sin_addr)),
            u16::from_be(self.sin_port),
        ))
    }
}

/// `struct iovec`.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct IoVec {
    /// Buffer base address.
    pub iov_base: *mut u8,
    /// Buffer length in bytes.
    pub iov_len: usize,
}

impl IoVec {
    /// A null entry (arenas pre-fill their tables with it).
    pub const EMPTY: IoVec = IoVec {
        iov_base: std::ptr::null_mut(),
        iov_len: 0,
    };
}

/// `struct msghdr`.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct MsgHdr {
    /// Peer address in/out slot.
    pub msg_name: *mut SockaddrIn,
    /// Size of the address slot (updated by the kernel on receive).
    pub msg_namelen: u32,
    /// Scatter/gather array.
    pub msg_iov: *mut IoVec,
    /// Number of iovec entries.
    pub msg_iovlen: usize,
    /// Ancillary data: null, or one [`Cmsg`].
    pub msg_control: *mut Cmsg,
    /// Ancillary data length.
    pub msg_controllen: usize,
    /// Flags on the received message.
    pub msg_flags: i32,
}

/// One ancillary-data record carrying a single integer: `struct
/// cmsghdr` plus its payload, padded to `CMSG_SPACE`. Sends use it
/// for `UDP_SEGMENT` (a `u16` segment size), receives get
/// `UDP_GRO` back in it (an `int` segment size).
#[derive(Clone, Copy)]
#[repr(C)]
pub struct Cmsg {
    cmsg_len: usize,
    cmsg_level: i32,
    cmsg_type: i32,
    data: [u8; 8],
}

impl Cmsg {
    /// An empty record (receive slots start from this).
    pub const ZERO: Cmsg = Cmsg {
        cmsg_len: 0,
        cmsg_level: 0,
        cmsg_type: 0,
        data: [0; 8],
    };

    /// `CMSG_LEN(0)`: the header alone.
    const HDR_LEN: usize = std::mem::size_of::<usize>() + 2 * std::mem::size_of::<i32>();

    /// The `UDP_SEGMENT` record asking the kernel to cut this
    /// message's payload into datagrams of `segment` bytes (the
    /// last may be shorter).
    pub fn udp_segment(segment: u16) -> Cmsg {
        let mut data = [0u8; 8];
        data[..2].copy_from_slice(&segment.to_ne_bytes());
        Cmsg {
            cmsg_len: Self::HDR_LEN + 2,
            cmsg_level: SOL_UDP,
            cmsg_type: UDP_SEGMENT,
            data,
        }
    }

    /// The segment size a `UDP_GRO` receive reported, if the kernel
    /// wrote one (`controllen` is the header's `msg_controllen`
    /// after the call): the payload is then a train of datagrams
    /// of that many bytes each, the last possibly shorter.
    pub fn udp_gro_segment(&self, controllen: usize) -> Option<usize> {
        let int = std::mem::size_of::<i32>();
        if controllen < Self::HDR_LEN + int
            || self.cmsg_len < Self::HDR_LEN + int
            || self.cmsg_level != SOL_UDP
            || self.cmsg_type != UDP_GRO
        {
            return None;
        }
        let size = i32::from_ne_bytes(self.data[..int].try_into().expect("4 bytes"));
        usize::try_from(size).ok()
    }
}

/// `struct mmsghdr`: one slot of a `recvmmsg`/`sendmmsg` vector.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct MMsgHdr {
    /// The per-message header.
    pub msg_hdr: MsgHdr,
    /// Bytes received/sent for this slot (kernel out-param).
    pub msg_len: u32,
}

impl MMsgHdr {
    /// An all-null slot (arenas pre-fill their tables with it).
    pub const EMPTY: MMsgHdr = MMsgHdr {
        msg_hdr: MsgHdr {
            msg_name: std::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: std::ptr::null_mut(),
            msg_iovlen: 0,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        },
        msg_len: 0,
    };
}

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    fn bind(fd: i32, addr: *const SockaddrIn, addrlen: u32) -> i32;
    fn close(fd: i32) -> i32;
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut u8, // struct timespec*; always null here
    ) -> i32;
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8, // sigset_t*; always null here
    ) -> i32;
}

/// `struct pollfd`.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct PollFd {
    /// The watched descriptor.
    pub fd: i32,
    /// Requested events.
    pub events: i16,
    /// Returned events (kernel out-param).
    pub revents: i16,
}

/// Readable-data event of [`PollFd`].
pub const POLLIN: i16 = 0x1;

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// One `ppoll` over `fds`, waiting at most `timeout`; returns how many
/// entries have events. A timeout, an interrupting signal and a failed
/// call all return 0: the caller can only poll again.
pub fn poll_fds(fds: &mut [PollFd], timeout: std::time::Duration) -> usize {
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, writable slice for the whole call.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
    usize::try_from(rc).unwrap_or(0)
}

/// One non-blocking `recvmmsg` call over `hdrs`.
///
/// # Safety
///
/// Every `msg_hdr` in `hdrs` must point at live, writable name/iovec
/// storage for the duration of the call.
pub unsafe fn recv_mmsg(fd: i32, hdrs: &mut [MMsgHdr]) -> io::Result<usize> {
    let rc = recvmmsg(
        fd,
        hdrs.as_mut_ptr(),
        hdrs.len() as u32,
        MSG_DONTWAIT,
        std::ptr::null_mut(),
    );
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc as usize)
    }
}

/// One non-blocking `sendmmsg` call over `hdrs`; returns how many
/// messages the kernel accepted (an error is returned only when the
/// *first* message fails).
///
/// # Safety
///
/// Every `msg_hdr` in `hdrs` must point at live name/iovec storage
/// for the duration of the call.
pub unsafe fn send_mmsg(fd: i32, hdrs: &mut [MMsgHdr]) -> io::Result<usize> {
    let rc = sendmmsg(fd, hdrs.as_mut_ptr(), hdrs.len() as u32, MSG_DONTWAIT);
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc as usize)
    }
}

/// Set once the kernel refuses a `UDP_SEGMENT` send (pre-4.18
/// kernels, devices without checksum offload, some sandboxes):
/// every transport then sends one datagram per `mmsghdr` again and
/// stops asking receive sockets to coalesce.
static OFFLOAD_UNAVAILABLE: AtomicBool = AtomicBool::new(false);

/// Whether UDP segmentation offload is believed available.
/// Optimistic until proven otherwise at runtime.
pub fn offload_available() -> bool {
    !OFFLOAD_UNAVAILABLE.load(Ordering::Relaxed)
}

/// Classifies the error of a `sendmmsg` whose head message carried
/// `UDP_SEGMENT`: `true` means segmentation offload is refused here
/// (now remembered globally) and the run must go out as plain
/// datagrams, not that this particular send failed.
pub fn note_offload_error(err: &io::Error) -> bool {
    let refused = matches!(
        err.raw_os_error(),
        Some(EINVAL) | Some(EIO) | Some(ENOPROTOOPT) | Some(EOPNOTSUPP)
    );
    if refused {
        OFFLOAD_UNAVAILABLE.store(true, Ordering::Relaxed);
    }
    refused
}

/// Test hook on the same latch: `false` is what a refusing kernel
/// leaves behind, `true` re-arms the probe. Not an option — tests
/// use it to run the one-datagram-per-`mmsghdr` path on kernels
/// that do support offload.
#[doc(hidden)]
pub fn set_offload_available(available: bool) {
    OFFLOAD_UNAVAILABLE.store(!available, Ordering::Relaxed);
}

/// Asks the kernel to hand `fd` whole trains (`UDP_GRO`): one
/// receive may then return several coalesced datagrams plus their
/// segment size in a [`Cmsg`]. Only sockets read with a buffer big
/// enough for a train may set this.
pub fn enable_udp_gro(fd: i32) -> io::Result<()> {
    set_opt(fd, SOL_UDP, UDP_GRO, 1)
}

/// Pins the calling thread to `cpu` via `sched_setaffinity` (the
/// paper pins one polling thread per physical core).
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    const CPU_SETSIZE: usize = 1024;
    if cpu >= CPU_SETSIZE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu {cpu} outside the {CPU_SETSIZE}-cpu affinity mask"),
        ));
    }
    let mut mask = [0u64; CPU_SETSIZE / 64];
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    // pid 0 = the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set_opt(fd: i32, level: i32, opt: i32, value: i32) -> io::Result<()> {
    let rc = unsafe { setsockopt(fd, level, opt, &value, std::mem::size_of::<i32>() as u32) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Creates, configures and binds a UDP socket; `share_port` sets
/// `SO_REUSEADDR` and `SO_REUSEPORT`, which a server queue socket wants
/// (several processes may share its port) and a client socket must not
/// have (the kernel could then hand two live clients one ephemeral port
/// and deliver one's replies to the other).
pub fn bind_udp(
    addr: SocketAddrV4,
    buffer_bytes: usize,
    share_port: bool,
) -> io::Result<UdpSocket> {
    let fd = unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let result = (|| {
        if share_port {
            set_opt(fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
            set_opt(fd, SOL_SOCKET, SO_REUSEPORT, 1)?;
        }
        // Best-effort buffer sizing: the kernel clamps to
        // net.core.{r,w}mem_max, which is fine.
        let bytes = buffer_bytes.min(i32::MAX as usize) as i32;
        let _ = set_opt(fd, SOL_SOCKET, SO_SNDBUF, bytes);
        let _ = set_opt(fd, SOL_SOCKET, SO_RCVBUF, bytes);
        let raw = SockaddrIn::from_v4(addr);
        let rc = unsafe { bind(fd, &raw, std::mem::size_of::<SockaddrIn>() as u32) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    })();
    match result {
        Ok(()) => Ok(unsafe { UdpSocket::from_raw_fd(fd) }),
        Err(e) => {
            unsafe { close(fd) };
            Err(e)
        }
    }
}
