//! Ethernet addressing.

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A locally-administered unicast address derived from a host id,
    /// mirroring the `02-00-00-00-00-xx` convention used in the guides'
    /// examples.
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// The addresses of an Ethernet II header (14 bytes on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
}

impl EthernetHeader {
    /// Size on the wire in bytes.
    pub const LEN: usize = 14;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([0, 1, 2, 0xab, 0xcd, 0xef]).to_string(),
            "00:01:02:ab:cd:ef"
        );
        assert_eq!(
            MacAddr::from_host_id(0x01020304).to_string(),
            "02:00:01:02:03:04"
        );
    }
}
