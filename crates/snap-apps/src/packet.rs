//! Rust-side packet encode/decode matching the MAC layer's wire format.
//!
//! A packet is a sequence of 16-bit words:
//!
//! ```text
//! w0           w1            w2 .. w1+len   last
//! dst:8|src:8  type:8|len:8  payload        checksum (sum of all prior words)
//! ```
//!
//! Total length is `2 + len + 1` words. The checksum is the wrapping sum
//! of the header and payload words, verified by the MAC receive handler.

use snap_isa::Word;

/// Packet types understood by the routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    /// Application data.
    Data,
    /// AODV route request.
    RouteRequest,
    /// AODV route reply.
    RouteReply,
    /// Route-discovery request (flooded; extension).
    DiscoveryRequest,
    /// Route-discovery reply (unicast back; extension).
    DiscoveryReply,
}

impl PacketType {
    /// Wire code (must match the `PKT_*` equates in the prelude).
    pub fn code(self) -> u8 {
        match self {
            PacketType::Data => 1,
            PacketType::RouteRequest => 2,
            PacketType::RouteReply => 3,
            PacketType::DiscoveryRequest => 4,
            PacketType::DiscoveryReply => 5,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<PacketType> {
        match code {
            1 => Some(PacketType::Data),
            2 => Some(PacketType::RouteRequest),
            3 => Some(PacketType::RouteReply),
            4 => Some(PacketType::DiscoveryRequest),
            5 => Some(PacketType::DiscoveryReply),
            _ => None,
        }
    }
}

/// A decoded MAC packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Destination node (8-bit address).
    pub dst: u8,
    /// Source node (8-bit address).
    pub src: u8,
    /// Packet type.
    pub ptype: PacketType,
    /// Payload words (max 255, though MAC buffers bound this lower).
    pub payload: Vec<Word>,
}

impl Packet {
    /// A data packet.
    pub fn data(dst: u8, src: u8, payload: Vec<Word>) -> Packet {
        Packet {
            dst,
            src,
            ptype: PacketType::Data,
            payload,
        }
    }

    /// An AODV route request for `target`.
    pub fn route_request(dst: u8, src: u8, target: u8) -> Packet {
        Packet {
            dst,
            src,
            ptype: PacketType::RouteRequest,
            payload: vec![target as Word],
        }
    }

    /// Encode to wire words, appending the checksum.
    pub fn encode(&self) -> Vec<Word> {
        let mut words = Vec::with_capacity(self.payload.len() + 3);
        words.push(((self.dst as Word) << 8) | self.src as Word);
        words.push(((self.ptype.code() as Word) << 8) | self.payload.len() as Word);
        words.extend_from_slice(&self.payload);
        let csum = words.iter().fold(0u16, |acc, &w| acc.wrapping_add(w));
        words.push(csum);
        words
    }

    /// Decode wire words (checksum verified).
    ///
    /// Returns `None` for short frames, bad checksums, length mismatches
    /// or unknown types.
    pub fn decode(words: &[Word]) -> Option<Packet> {
        if words.len() < 3 {
            return None;
        }
        let len = (words[1] & 0xff) as usize;
        if words.len() != len + 3 {
            return None;
        }
        let body = &words[..words.len() - 1];
        let csum = body.iter().fold(0u16, |acc, &w| acc.wrapping_add(w));
        if csum != words[words.len() - 1] {
            return None;
        }
        Some(Packet {
            dst: (words[0] >> 8) as u8,
            src: (words[0] & 0xff) as u8,
            ptype: PacketType::from_code((words[1] >> 8) as u8)?,
            payload: words[2..2 + len].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let p = Packet::data(5, 2, vec![0x1111, 0x2222]);
        let words = p.encode();
        assert_eq!(words.len(), 5);
        assert_eq!(words[0], 0x0502);
        assert_eq!(words[1], 0x0102);
        assert_eq!(Packet::decode(&words), Some(p));
    }

    #[test]
    fn rreq_round_trip() {
        let p = Packet::route_request(9, 1, 7);
        let back = Packet::decode(&p.encode()).unwrap();
        assert_eq!(back.ptype, PacketType::RouteRequest);
        assert_eq!(back.payload, vec![7]);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut words = Packet::data(1, 2, vec![3]).encode();
        words[2] ^= 1;
        assert_eq!(Packet::decode(&words), None);
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut words = Packet::data(1, 2, vec![3, 4]).encode();
        words.pop();
        assert_eq!(Packet::decode(&words), None);
        assert_eq!(Packet::decode(&[1, 2]), None);
    }

    #[test]
    fn checksum_wraps() {
        let p = Packet::data(0xff, 0xff, vec![0xffff, 0xffff]);
        let words = p.encode();
        assert_eq!(Packet::decode(&words), Some(p));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut words = Packet::data(1, 2, vec![]).encode();
        // Patch type to 9 and fix checksum.
        words[1] = 9 << 8;
        let csum = words[..2].iter().fold(0u16, |a, &w| a.wrapping_add(w));
        words[2] = csum;
        assert_eq!(Packet::decode(&words), None);
    }
}
