//! UDP addressing.
//!
//! Clients "use the UDP header to specify the target RX queue for a given
//! packet" (paper §4.1): the NIC steers on [`UdpHeader::dst_port`]
//! ([`UdpHeader::target_queue`]), so the port *is* the queue selector.
//! The base port is [`QUEUE_PORT_BASE`]; queue `q` listens on
//! `QUEUE_PORT_BASE + q`. Length and checksum are the NIC's business,
//! here the kernel's, and are not modelled.

/// First UDP port mapped to an RX queue: port `QUEUE_PORT_BASE + q`
/// steers to queue `q`.
pub const QUEUE_PORT_BASE: u16 = 9000;

/// The ports of an 8-byte UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port (identifies the client thread).
    pub src_port: u16,
    /// Destination port (selects the server RX queue).
    pub dst_port: u16,
}

impl UdpHeader {
    /// Size on the wire in bytes.
    pub const LEN: usize = 8;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to(dst_port: u16) -> UdpHeader {
        UdpHeader {
            src_port: 1,
            dst_port,
        }
    }

    #[test]
    fn queue_steering() {
        let h = to(UdpHeader::port_for_queue(5));
        assert_eq!(h.target_queue(8), Some(5));
        assert_eq!(h.target_queue(4), None); // out of range for 4 queues
        assert_eq!(to(80).target_queue(8), None); // below the base port
    }

    #[test]
    fn target_queue_inverts_port_for_queue() {
        for q in 0..8u16 {
            assert_eq!(to(UdpHeader::port_for_queue(q)).target_queue(8), Some(q));
        }
        assert_eq!(to(QUEUE_PORT_BASE - 1).target_queue(8), None);
        assert_eq!(to(UdpHeader::port_for_queue(8)).target_queue(8), None);
    }
}
