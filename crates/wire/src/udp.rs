//! UDP header.
//!
//! Clients "use the UDP header to specify the target RX queue for a given
//! packet" (paper §4.1): the NIC steers on [`UdpHeader::dst_port`]
//! ([`UdpHeader::target_queue`]), so the port *is* the queue selector.
//! The base port is [`QUEUE_PORT_BASE`]; queue `q` listens on
//! `QUEUE_PORT_BASE + q`.

use bytes::{Buf, BufMut};

/// First UDP port mapped to an RX queue: port `QUEUE_PORT_BASE + q`
/// steers to queue `q`.
pub const QUEUE_PORT_BASE: u16 = 9000;

/// An 8-byte UDP header. The checksum covers the payload (the
/// pseudo-header is omitted for simplicity; corruption of the IP header
/// is caught by the IP checksum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port (identifies the client thread).
    pub src_port: u16,
    /// Destination port (selects the server RX queue).
    pub dst_port: u16,
    /// Header + payload length in bytes.
    pub length: u16,
    /// Payload checksum.
    pub checksum: u16,
}

impl UdpHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 8;

    /// Builds a header for `payload`, computing its checksum.
    pub fn for_payload(src_port: u16, dst_port: u16, payload: &[u8]) -> Self {
        let length = Self::LEN + payload.len();
        assert!(length <= u16::MAX as usize, "UDP datagram too large");
        UdpHeader {
            src_port,
            dst_port,
            length: length as u16,
            checksum: crate::checksum::internet_checksum(payload),
        }
    }

    /// Builds a header for a payload of `payload_len` bytes whose
    /// checksum is the NIC's business (here: the kernel's UDP stack) —
    /// checksum offload in both directions: on receive the kernel
    /// already verified and stripped it, on transmit whoever serializes
    /// the datagram computes it. The field carries 0, RFC 768's "no
    /// checksum carried", and no pass over the payload is made. Only
    /// [`crate::packet::parse_frame`] ever verifies a checksum, and it
    /// only sees wire images, never these.
    pub fn checksum_offloaded(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        let length = Self::LEN + payload_len;
        assert!(length <= u16::MAX as usize, "UDP datagram too large");
        UdpHeader {
            src_port,
            dst_port,
            length: length as u16,
            checksum: 0,
        }
    }

    /// Builds a header for a scatter-gather [`crate::TxFrame`] payload,
    /// checksumming its logical byte stream without materializing it.
    /// Byte-identical to [`UdpHeader::for_payload`] over the gathered
    /// frame.
    pub fn for_frame(src_port: u16, dst_port: u16, frame: &crate::TxFrame) -> Self {
        let length = Self::LEN + frame.len();
        assert!(length <= u16::MAX as usize, "UDP datagram too large");
        let chunks = frame.regions().map(|region| region.as_slice());
        UdpHeader {
            src_port,
            dst_port,
            length: length as u16,
            checksum: crate::checksum::internet_checksum_chunks(chunks),
        }
    }

    /// The UDP destination port that steers to RX queue `queue`.
    pub fn port_for_queue(queue: u16) -> u16 {
        QUEUE_PORT_BASE + queue
    }

    /// The RX queue this datagram targets, if its destination port is in
    /// the queue-steering range `[QUEUE_PORT_BASE, QUEUE_PORT_BASE + n)`.
    pub fn target_queue(&self, num_queues: u16) -> Option<u16> {
        let q = self.dst_port.checked_sub(QUEUE_PORT_BASE)?;
        (q < num_queues).then_some(q)
    }

    /// Appends the encoded header to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(self.length);
        buf.put_u16(self.checksum);
    }

    /// Decodes a header from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Option<Self> {
        if buf.remaining() < Self::LEN {
            return None;
        }
        Some(UdpHeader {
            src_port: buf.get_u16(),
            dst_port: buf.get_u16(),
            length: buf.get_u16(),
            checksum: buf.get_u16(),
        })
    }

    /// Verifies `payload` against the stored checksum.
    pub fn verify_payload(&self, payload: &[u8]) -> bool {
        crate::checksum::internet_checksum(payload) == self.checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn roundtrip() {
        let payload = b"minos";
        let h = UdpHeader::for_payload(1234, UdpHeader::port_for_queue(3), payload);
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut rd = buf.freeze();
        let parsed = UdpHeader::decode(&mut rd).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.verify_payload(payload));
        assert!(!parsed.verify_payload(b"wrong"));
    }

    #[test]
    fn queue_steering() {
        let h = UdpHeader::for_payload(1, UdpHeader::port_for_queue(5), b"");
        assert_eq!(h.target_queue(8), Some(5));
        assert_eq!(h.target_queue(4), None); // out of range for 4 queues
        let other = UdpHeader::for_payload(1, 80, b"");
        assert_eq!(other.target_queue(8), None); // below the base port
    }

    #[test]
    fn target_queue_inverts_port_for_queue() {
        let to = |port| UdpHeader::for_payload(1, port, b"").target_queue(8);
        for q in 0..8u16 {
            assert_eq!(to(UdpHeader::port_for_queue(q)), Some(q));
        }
        assert_eq!(to(QUEUE_PORT_BASE - 1), None);
        assert_eq!(to(UdpHeader::port_for_queue(8)), None);
    }

    #[test]
    fn offloaded_header_differs_only_in_the_checksum() {
        let payload = [7u8; 300];
        let full = UdpHeader::for_payload(5, UdpHeader::port_for_queue(1), &payload);
        let offloaded = UdpHeader::checksum_offloaded(5, UdpHeader::port_for_queue(1), 300);
        assert_eq!(offloaded.checksum, 0);
        assert_eq!(
            UdpHeader {
                checksum: full.checksum,
                ..offloaded
            },
            full
        );
    }

    #[test]
    fn length_counts_header() {
        let h = UdpHeader::for_payload(1, 2, &[0u8; 100]);
        assert_eq!(h.length as usize, UdpHeader::LEN + 100);
    }
}
