//! Wire protocol for the Minos key-value store.
//!
//! Minos communicates over **UDP on top of IP and Ethernet** (paper §4.1):
//! clients address a specific NIC RX queue through the UDP destination
//! port, requests and replies that exceed one MTU (large PUT requests and
//! large GET replies) are *fragmented and reassembled at the UDP level*,
//! and retransmission is left to the client.
//!
//! This crate implements the layers above the NIC; framing and
//! checksums are the NIC's job, here the kernel's:
//!
//! * [`frame`], [`ip`], [`udp`] — the addresses of a datagram's
//!   Ethernet, IPv4 and UDP headers; the UDP destination port doubles
//!   as the RX-queue selector (`UdpHeader::target_queue`, the virtual
//!   NIC's one steering rule; see `minos-nic`).
//! * [`frag`] — a datagram as a sequence of frames: fragmentation of
//!   application messages into MTU-sized datagrams, small messages
//!   sharing one, and a reassembler with bounded memory.
//! * [`message`] — the KV application protocol: GET/PUT/DELETE requests
//!   and replies, with the client send-timestamp piggybacked on replies
//!   exactly as the paper's measurement methodology requires (§5.4).
//! * [`packet`] — a datagram's addressing plus its payload, on the
//!   receive ([`Packet`]) and the transmit ([`TxPacket`]) path.
//! * [`txframe`] — the scatter-gather transmit frame ([`TxFrame`]):
//!   inline header region plus refcounted value segments, so encoding
//!   and fragmentation never copy value bytes on the send path.
//!
//! # Cost model hook
//!
//! The paper's cost function for core allocation is "the number of network
//! packets handled to serve the request". [`packets_for_payload`] is the
//! single source of truth for that number: both the real datapath
//! (fragmentation) and the Minos controller use it, so the controller's
//! cost model can never drift from what the network actually does.

#![warn(missing_docs)]

pub mod frag;
pub mod frame;
pub mod ip;
pub mod message;
pub mod packet;
pub mod txframe;
pub mod udp;

pub use frag::{FragHeader, FragmentWriter, Streamed, StreamingReassembler};
pub use frame::{EthernetHeader, MacAddr};
pub use ip::Ipv4Header;
pub use message::{Message, OpKind, ReplyStatus};
pub use packet::{Packet, PacketMeta, TxPacket};
pub use txframe::{Region, TxFrame, MAX_TX_REGIONS, MAX_TX_SEGMENTS, TX_INLINE_CAP};
pub use udp::UdpHeader;

/// Ethernet MTU in bytes: the largest IP packet carried by one frame.
pub const MTU: usize = 1500;

/// Bytes of IPv4 header.
pub const IP_HEADER_LEN: usize = 20;

/// Bytes of UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// Bytes of Ethernet II header.
pub const ETH_HEADER_LEN: usize = 14;

/// Bytes of the Ethernet frame check sequence (CRC-32 trailer), which
/// NIC byte accounting charges to every frame.
pub const ETH_FCS_LEN: usize = 4;

/// Maximum UDP payload per datagram under the MTU.
pub const MAX_UDP_PAYLOAD: usize = MTU - IP_HEADER_LEN - UDP_HEADER_LEN; // 1472

/// Maximum application chunk per fragment (UDP payload minus the
/// fragmentation header).
pub const MAX_FRAG_CHUNK: usize = MAX_UDP_PAYLOAD - frag::FRAG_HEADER_LEN; // 1456

/// Number of network packets needed to carry `payload_len` application
/// bytes — the paper's per-request cost function.
///
/// Every message occupies at least one packet; payloads beyond
/// [`MAX_FRAG_CHUNK`] bytes fragment into `ceil(len / MAX_FRAG_CHUNK)`
/// packets.
#[inline]
pub fn packets_for_payload(payload_len: usize) -> u32 {
    if payload_len <= MAX_FRAG_CHUNK {
        1
    } else {
        payload_len.div_ceil(MAX_FRAG_CHUNK) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_cost_boundaries() {
        assert_eq!(packets_for_payload(0), 1);
        assert_eq!(packets_for_payload(1), 1);
        assert_eq!(packets_for_payload(MAX_FRAG_CHUNK), 1);
        assert_eq!(packets_for_payload(MAX_FRAG_CHUNK + 1), 2);
        assert_eq!(packets_for_payload(2 * MAX_FRAG_CHUNK), 2);
        assert_eq!(
            packets_for_payload(500_000),
            500_000u32.div_ceil(MAX_FRAG_CHUNK as u32)
        );
    }

    #[test]
    fn header_length_budget() {
        // An MTU-sized IP packet plus Ethernet framing fits a classic
        // 1514-byte frame.
        assert_eq!(MTU + ETH_HEADER_LEN, 1514);
        assert_eq!(MAX_UDP_PAYLOAD, 1472);
        assert_eq!(MAX_FRAG_CHUNK, 1456);
    }
}
