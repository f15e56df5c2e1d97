//! Packets: the addressing of an Ethernet + IPv4 + UDP datagram plus
//! its payload.
//!
//! A [`Packet`] is the currency between the NIC and the cores: header
//! metadata plus the UDP payload (which itself carries a sequence of
//! frames of application [`crate::Message`]s).

use crate::frame::{EthernetHeader, MacAddr};
use crate::ip::Ipv4Header;
use crate::txframe::TxFrame;
use crate::udp::UdpHeader;
use bytes::Bytes;

/// The headers of a datagram: who sent it and where it goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketMeta {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
}

/// A received (or to-be-sent) datagram: header metadata plus UDP payload.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Headers (addressing).
    pub meta: PacketMeta,
    /// UDP payload (fragment header + application chunk).
    pub payload: Bytes,
}

impl Packet {
    /// Total on-wire size of this packet in bytes (Ethernet framing and
    /// FCS included) — what NIC bandwidth accounting charges.
    pub fn wire_len(&self) -> usize {
        EthernetHeader::LEN
            + Ipv4Header::LEN
            + UdpHeader::LEN
            + self.payload.len()
            + crate::ETH_FCS_LEN
    }

    /// A stable identifier of the sending endpoint, used to key
    /// reassembly state: IP and port combined.
    pub fn source_endpoint(&self) -> u64 {
        (u64::from(self.meta.ip.src) << 16) | u64::from(self.meta.udp.src_port)
    }
}

/// Everything needed to address frames between two endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// MAC address.
    pub mac: MacAddr,
    /// IPv4 address (host order).
    pub ip: u32,
    /// UDP port.
    pub port: u16,
}

impl Endpoint {
    /// A deterministic endpoint for host number `host` using `port`.
    pub fn host(host: u32, port: u16) -> Self {
        Endpoint {
            mac: MacAddr::from_host_id(host),
            ip: 0x0A00_0000 | host, // 10.x.y.z
            port,
        }
    }

    /// The identifier a receiver derives for frames sent *from* this
    /// endpoint — equal to [`Packet::source_endpoint`] on arrival.
    pub fn source_key(&self) -> u64 {
        (u64::from(self.ip) << 16) | u64::from(self.port)
    }
}

/// Builds a [`Packet`] from endpoints and a UDP payload: the in-process
/// wire hands packets from sender to receiver as-is, exactly like DPDK
/// hands descriptors around without copying, and the kernel-UDP backend
/// describes each datagram it received this way.
pub fn synthesize(src: Endpoint, dst: Endpoint, payload: Bytes) -> Packet {
    Packet {
        meta: synthesized_meta(src, dst),
        payload,
    }
}

/// The headers of a datagram from `src` to `dst`.
fn synthesized_meta(src: Endpoint, dst: Endpoint) -> PacketMeta {
    PacketMeta {
        eth: EthernetHeader {
            dst: dst.mac,
            src: src.mac,
        },
        ip: Ipv4Header {
            src: src.ip,
            dst: dst.ip,
        },
        udp: UdpHeader {
            src_port: src.port,
            dst_port: dst.port,
        },
    }
}

/// A packet on the *transmit* path: parsed headers plus a
/// scatter-gather [`TxFrame`] payload. The RX-side [`Packet`] carries a
/// contiguous payload because that is what arrives off the wire; the TX
/// side keeps header and value regions separate all the way to the
/// socket so value bytes are never copied (the UDP backend hands the
/// regions to `sendmmsg` as iovecs).
#[derive(Clone, Debug)]
pub struct TxPacket {
    /// Headers (addressing).
    pub meta: PacketMeta,
    /// Scatter-gather UDP payload.
    pub frame: TxFrame,
}

impl TxPacket {
    /// Wraps a contiguous packet as a single-segment transmit packet —
    /// no bytes are copied. This is how [`Packet`]-based senders ride
    /// the scatter-gather transmit path unchanged.
    pub fn from_packet(pkt: Packet) -> TxPacket {
        TxPacket {
            meta: pkt.meta,
            frame: TxFrame::from_payload(pkt.payload),
        }
    }

    /// Total on-wire size in bytes (Ethernet framing and FCS included),
    /// mirroring [`Packet::wire_len`].
    pub fn wire_len(&self) -> usize {
        EthernetHeader::LEN
            + Ipv4Header::LEN
            + UdpHeader::LEN
            + self.frame.len()
            + crate::ETH_FCS_LEN
    }

    /// Appends `frame` behind this datagram's payload and says so —
    /// `false`, with nothing changed, when the payload would outgrow
    /// [`crate::MAX_UDP_PAYLOAD`] or the [`TxFrame`]'s own capacity
    /// ([`TxFrame::try_append`]).
    pub fn try_append(&mut self, frame: &TxFrame) -> bool {
        self.frame.len() + frame.len() <= crate::MAX_UDP_PAYLOAD && self.frame.try_append(frame)
    }
}

/// Builds a [`TxPacket`] from endpoints and a scatter-gather payload —
/// the transmit analog of [`synthesize`], with the same headers as
/// `synthesize(src, dst, gather(frame))` (tested).
pub fn synthesize_frame(src: Endpoint, dst: Endpoint, frame: TxFrame) -> TxPacket {
    TxPacket {
        meta: synthesized_meta(src, dst),
        frame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_addresses_every_layer() {
        let src = Endpoint::host(1, 5555);
        let dst = Endpoint::host(2, UdpHeader::port_for_queue(3));
        let pkt = synthesize(src, dst, Bytes::from_static(b"payload"));
        assert_eq!(&pkt.payload[..], b"payload");
        assert_eq!(pkt.meta.ip.src, src.ip);
        assert_eq!(pkt.meta.ip.dst, dst.ip);
        assert_eq!(pkt.meta.udp.src_port, 5555);
        assert_eq!(pkt.meta.udp.target_queue(8), Some(3));
        assert_eq!(pkt.meta.eth.src, src.mac);
    }

    #[test]
    fn wire_len_accounts_all_layers() {
        let pkt = synthesize(
            Endpoint::host(1, 1),
            Endpoint::host(2, 2),
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(pkt.wire_len(), 14 + 20 + 8 + 100 + 4);
    }

    #[test]
    fn source_endpoint_distinguishes_ports() {
        let from = |port| synthesize(Endpoint::host(1, port), Endpoint::host(2, 1), Bytes::new());
        assert_ne!(from(10).source_endpoint(), from(11).source_endpoint());
        assert_eq!(
            from(10).source_endpoint(),
            Endpoint::host(1, 10).source_key()
        );
    }
}
