//! Full-frame construction and parsing: Ethernet + IPv4 + UDP + payload.
//!
//! A [`Packet`] is the currency between the virtual NIC and the cores:
//! parsed header metadata plus the UDP payload (which itself carries a
//! fragment of an application [`crate::Message`]).

use crate::frame::{EtherType, EthernetHeader, MacAddr};
use crate::ip::{Ipv4Header, PROTO_UDP};
use crate::txframe::TxFrame;
use crate::udp::UdpHeader;
use bytes::{BufMut, Bytes, BytesMut};

/// Parsed headers of a received frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketMeta {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
}

/// A received (or to-be-sent) frame: parsed metadata plus UDP payload.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Parsed headers.
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

/// Builds a parsed [`Packet`] directly from endpoints and a UDP payload,
/// skipping wire encoding — the zero-copy TX path: the server transmits
/// parsed packets into its TX rings and the in-process "wire" hands them
/// to the peer as-is, exactly like DPDK hands descriptors around without
/// copying. Equivalent to `parse_frame(build_frame(src, dst, payload))`.
pub fn synthesize(src: Endpoint, dst: Endpoint, payload: Bytes) -> Packet {
    let udp = UdpHeader::for_payload(src.port, dst.port, &payload);
    Packet {
        meta: synthesized_meta(src, dst, udp),
        payload,
    }
}

/// The headers a frame from `src` to `dst` carrying `udp` parses to.
fn synthesized_meta(src: Endpoint, dst: Endpoint, udp: UdpHeader) -> PacketMeta {
    PacketMeta {
        eth: EthernetHeader {
            dst: dst.mac,
            src: src.mac,
            ethertype: EtherType::Ipv4,
        },
        ip: Ipv4Header::udp(src.ip, dst.ip, udp.length as usize),
        udp,
    }
}

/// [`synthesize`] for a payload that arrived through a NIC which
/// already verified its checksum — the kernel-UDP backend, where the
/// kernel checked the real datagram before handing it over. Identical
/// metadata except that the UDP checksum is recorded as offloaded
/// ([`UdpHeader::checksum_offloaded`]) instead of recomputed over the
/// whole payload, which nothing downstream would ever check.
pub fn synthesize_rx_verified(src: Endpoint, dst: Endpoint, payload: Bytes) -> Packet {
    let udp = UdpHeader::checksum_offloaded(src.port, dst.port, payload.len());
    Packet {
        meta: synthesized_meta(src, dst, udp),
        payload,
    }
}

/// A packet on the *transmit* path: parsed headers plus a
/// scatter-gather [`TxFrame`] payload. The RX-side [`Packet`] carries a
/// contiguous payload because that is what arrives off the wire; the TX
/// side keeps header and value regions separate all the way to the
/// socket so value bytes are never copied (the UDP backend hands the
/// regions to `sendmsg`/`sendmmsg` as iovecs).
#[derive(Clone, Debug)]
pub struct TxPacket {
    /// Parsed headers (addressing; the UDP checksum is left to whoever
    /// serializes the frame — see [`synthesize_frame`]).
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

    /// Appends `frame` behind this datagram's payload, keeping the
    /// length fields of the headers in step, and says so — `false`,
    /// with nothing changed, when the payload would outgrow
    /// [`crate::MAX_UDP_PAYLOAD`] or the [`TxFrame`]'s own capacity
    /// ([`TxFrame::try_append`]).
    pub fn try_append(&mut self, frame: &TxFrame) -> bool {
        let added = frame.len();
        if self.frame.len() + added > crate::MAX_UDP_PAYLOAD || !self.frame.try_append(frame) {
            return false;
        }
        // At most MAX_UDP_PAYLOAD in all: far inside the u16 fields.
        self.meta.udp.length += added as u16;
        self.meta.ip.total_len += added as u16;
        true
    }
}

/// Builds a parsed [`TxPacket`] from endpoints and a scatter-gather
/// payload — the frame analog of [`synthesize`], except that the UDP
/// checksum is recorded as offloaded
/// ([`UdpHeader::checksum_offloaded`]), the transmit half of
/// [`synthesize_rx_verified`]: whoever puts the frame on a wire
/// checksums it there — the kernel for a real datagram,
/// [`build_frame_into_frame`] while it gathers for the virtual NIC — so
/// a pass over the payload here (500 KB per large GET reply) would be
/// computed and never read. Every other header field equals
/// `synthesize(src, dst, gather(f))`'s (tested).
pub fn synthesize_frame(src: Endpoint, dst: Endpoint, frame: TxFrame) -> TxPacket {
    let udp = UdpHeader::checksum_offloaded(src.port, dst.port, frame.len());
    TxPacket {
        meta: synthesized_meta(src, dst, udp),
        frame,
    }
}

/// Encodes one full frame (with FCS trailer) carrying `udp_payload` from
/// `src` to `dst`.
pub fn build_frame(src: Endpoint, dst: Endpoint, udp_payload: &[u8]) -> Bytes {
    let udp = UdpHeader::for_payload(src.port, dst.port, udp_payload);
    let ip = Ipv4Header::udp(src.ip, dst.ip, UdpHeader::LEN + udp_payload.len());
    let eth = EthernetHeader {
        dst: dst.mac,
        src: src.mac,
        ethertype: EtherType::Ipv4,
    };
    let mut buf = BytesMut::with_capacity(
        EthernetHeader::LEN
            + Ipv4Header::LEN
            + UdpHeader::LEN
            + udp_payload.len()
            + crate::ETH_FCS_LEN,
    );
    eth.encode(&mut buf);
    ip.encode(&mut buf);
    udp.encode(&mut buf);
    buf.extend_from_slice(udp_payload);
    let fcs = crate::checksum::crc32(&buf);
    buf.extend_from_slice(&fcs.to_be_bytes());
    buf.freeze()
}

/// Encodes one full frame (with FCS trailer) into `out` without
/// allocating — the pooled-buffer analog of [`build_frame`]. Returns
/// the frame length, or `None` when `out` is too small to hold it.
pub fn build_frame_into(
    src: Endpoint,
    dst: Endpoint,
    udp_payload: &[u8],
    out: &mut [u8],
) -> Option<usize> {
    let body_len = EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN + udp_payload.len();
    let total = body_len + crate::ETH_FCS_LEN;
    if out.len() < total {
        return None;
    }
    let udp = UdpHeader::for_payload(src.port, dst.port, udp_payload);
    let ip = Ipv4Header::udp(src.ip, dst.ip, UdpHeader::LEN + udp_payload.len());
    let eth = EthernetHeader {
        dst: dst.mac,
        src: src.mac,
        ethertype: EtherType::Ipv4,
    };
    let mut cursor = &mut out[..body_len];
    eth.encode(&mut cursor);
    ip.encode(&mut cursor);
    udp.encode(&mut cursor);
    cursor.put_slice(udp_payload);
    debug_assert!(cursor.is_empty(), "body length accounts for every field");
    let fcs = crate::checksum::crc32(&out[..body_len]);
    out[body_len..total].copy_from_slice(&fcs.to_be_bytes());
    Some(total)
}

/// Encodes one full Ethernet frame (with FCS trailer) carrying a
/// scatter-gather `payload` into `out` — the [`TxFrame`] analog of
/// [`build_frame_into`], gathering the payload's regions exactly once
/// while serializing. Returns the frame length, or `None` when `out` is
/// too small. Byte-identical to `build_frame_into` over the gathered
/// payload (tested).
pub fn build_frame_into_frame(
    src: Endpoint,
    dst: Endpoint,
    payload: &TxFrame,
    out: &mut [u8],
) -> Option<usize> {
    let body_len = EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN + payload.len();
    let total = body_len + crate::ETH_FCS_LEN;
    if out.len() < total {
        return None;
    }
    let udp = UdpHeader::for_frame(src.port, dst.port, payload);
    let ip = Ipv4Header::udp(src.ip, dst.ip, UdpHeader::LEN + payload.len());
    let eth = EthernetHeader {
        dst: dst.mac,
        src: src.mac,
        ethertype: EtherType::Ipv4,
    };
    let mut cursor = &mut out[..body_len];
    eth.encode(&mut cursor);
    ip.encode(&mut cursor);
    udp.encode(&mut cursor);
    for region in payload.regions() {
        cursor.put_slice(region.as_slice());
    }
    debug_assert!(cursor.is_empty(), "body length accounts for every field");
    let fcs = crate::checksum::crc32(&out[..body_len]);
    out[body_len..total].copy_from_slice(&fcs.to_be_bytes());
    Some(total)
}

/// Parses and validates a full frame. Returns `None` for anything that is
/// not a well-formed UDP-in-IPv4-in-Ethernet frame with an intact FCS and
/// intact checksums — exactly what NIC hardware silently discards.
pub fn parse_frame(frame: Bytes) -> Option<Packet> {
    // FCS check first, as the hardware does.
    if frame.len() < crate::ETH_FCS_LEN {
        return None;
    }
    let (body, trailer) = frame.split_at(frame.len() - crate::ETH_FCS_LEN);
    let stored = u32::from_be_bytes(trailer.try_into().unwrap());
    if crate::checksum::crc32(body) != stored {
        return None;
    }
    let mut rd = frame.slice(0..frame.len() - crate::ETH_FCS_LEN);
    let eth = EthernetHeader::decode(&mut rd)?;
    let ip = Ipv4Header::decode(&mut rd)?;
    if ip.protocol != PROTO_UDP {
        return None;
    }
    let udp = UdpHeader::decode(&mut rd)?;
    let payload_len = (udp.length as usize).checked_sub(UdpHeader::LEN)?;
    if rd.len() < payload_len {
        return None;
    }
    let payload = rd.slice(0..payload_len);
    if !udp.verify_payload(&payload) {
        return None;
    }
    Some(Packet {
        meta: PacketMeta { eth, ip, udp },
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let src = Endpoint::host(1, 5555);
        let dst = Endpoint::host(2, UdpHeader::port_for_queue(3));
        let frame = build_frame(src, dst, b"payload");
        let pkt = parse_frame(frame).unwrap();
        assert_eq!(&pkt.payload[..], b"payload");
        assert_eq!(pkt.meta.ip.src, src.ip);
        assert_eq!(pkt.meta.ip.dst, dst.ip);
        assert_eq!(pkt.meta.udp.src_port, 5555);
        assert_eq!(pkt.meta.udp.target_queue(8), Some(3));
        assert_eq!(pkt.meta.eth.src, src.mac);
    }

    #[test]
    fn wire_len_accounts_all_layers() {
        let src = Endpoint::host(1, 1);
        let dst = Endpoint::host(2, 2);
        let frame = build_frame(src, dst, &[0u8; 100]);
        let pkt = parse_frame(frame.clone()).unwrap();
        assert_eq!(pkt.wire_len(), frame.len());
        assert_eq!(pkt.wire_len(), 14 + 20 + 8 + 100 + 4);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let src = Endpoint::host(1, 1);
        let dst = Endpoint::host(2, 2);
        let frame = build_frame(src, dst, b"data!");
        let mut raw = frame.to_vec();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        assert!(parse_frame(Bytes::from(raw)).is_none());
    }

    #[test]
    fn source_endpoint_distinguishes_ports() {
        let a = parse_frame(build_frame(
            Endpoint::host(1, 10),
            Endpoint::host(2, 1),
            b"",
        ))
        .unwrap();
        let b = parse_frame(build_frame(
            Endpoint::host(1, 11),
            Endpoint::host(2, 1),
            b"",
        ))
        .unwrap();
        assert_ne!(a.source_endpoint(), b.source_endpoint());
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_frame(Bytes::from_static(&[0u8; 10])).is_none());
        assert!(parse_frame(Bytes::from_static(&[0xFFu8; 60])).is_none());
    }

    #[test]
    fn synthesize_equals_encode_parse() {
        let src = Endpoint::host(3, 1111);
        let dst = Endpoint::host(4, 9002);
        let payload = Bytes::from_static(b"synthesized payload");
        let direct = synthesize(src, dst, payload.clone());
        let parsed = parse_frame(build_frame(src, dst, &payload)).unwrap();
        assert_eq!(direct.meta, parsed.meta);
        assert_eq!(direct.payload, parsed.payload);
        assert_eq!(direct.wire_len(), parsed.wire_len());
    }

    #[test]
    fn rx_verified_skips_only_the_checksum() {
        let src = Endpoint::host(3, 1111);
        let dst = Endpoint::host(4, 9002);
        let payload = Bytes::from_static(b"the kernel checked this one");
        let full = synthesize(src, dst, payload.clone());
        let verified = synthesize_rx_verified(src, dst, payload);
        assert_eq!(verified.meta.udp.checksum, 0);
        assert_eq!(verified.meta.eth, full.meta.eth);
        assert_eq!(verified.meta.ip, full.meta.ip);
        assert_eq!(verified.meta.udp.length, full.meta.udp.length);
        assert_eq!(verified.payload, full.payload);
        assert_eq!(verified.wire_len(), full.wire_len());
        assert_eq!(verified.source_endpoint(), full.source_endpoint());
    }

    #[test]
    fn build_frame_into_matches_build_frame() {
        let src = Endpoint::host(7, 4242);
        let dst = Endpoint::host(8, 9003);
        let payload = b"no-alloc frame encoding";
        let allocated = build_frame(src, dst, payload);
        let mut buf = [0u8; 256];
        let len = build_frame_into(src, dst, payload, &mut buf).unwrap();
        assert_eq!(&buf[..len], &allocated[..]);
        // And an undersized buffer is refused, not truncated.
        let mut tiny = [0u8; 16];
        assert_eq!(build_frame_into(src, dst, payload, &mut tiny), None);
    }
}
