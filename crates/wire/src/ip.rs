//! IPv4 addressing.
//!
//! Only the addresses are modelled: there are no options and no
//! IP-level fragmentation (fragmentation happens at the UDP layer per
//! the paper), and the kernel, or the NIC, owns the rest of the header.

/// The addresses of a fixed-size (20-byte) IPv4 header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address (host order).
    pub src: u32,
    /// Destination address (host order).
    pub dst: u32,
}

impl Ipv4Header {
    /// Size on the wire in bytes.
    pub const LEN: usize = 20;
}
