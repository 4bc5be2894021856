//! The Packet Header Vector (PHV).
//!
//! RMT pipelines (Figure 3b) operate not on raw bytes but on a fixed
//! vector of parsed header fields — the PHV — produced by the
//! programmable parser and consumed/rewritten by match+action stages,
//! then written back to bytes by the deparser. We model the PHV as a
//! dense array indexed by [`Field`], each slot holding an optional
//! `u64` value (absent = the parser never reached that header).
//!
//! The field set covers every header the simulator's parse graphs know
//! about plus a handful of *metadata* fields (ingress port, computed
//! slack, selected queue) that real RMT designs also carry in the PHV.

use std::fmt;

/// Every field an RMT program in this simulator can match on or set.
///
/// The `Meta*` entries are intra-NIC metadata, not wire bytes; the
/// deparser ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Field {
    /// Ethernet destination MAC (lower 48 bits used).
    EthDst,
    /// Ethernet source MAC.
    EthSrc,
    /// EtherType.
    EthType,
    /// IPv4 TOS/DSCP.
    IpTos,
    /// IPv4 total length.
    IpTotalLen,
    /// IPv4 identification.
    IpIdent,
    /// IPv4 TTL.
    IpTtl,
    /// IPv4 protocol.
    IpProto,
    /// IPv4 source address.
    IpSrc,
    /// IPv4 destination address.
    IpDst,
    /// L4 (TCP/UDP) source port.
    L4SrcPort,
    /// L4 destination port.
    L4DstPort,
    /// TCP flags.
    TcpFlags,
    /// ESP SPI.
    EspSpi,
    /// ESP sequence number.
    EspSeq,
    /// KVS opcode.
    KvsOp,
    /// KVS tenant.
    KvsTenant,
    /// KVS key.
    KvsKey,
    /// KVS request id.
    KvsRequestId,
    /// Metadata: NIC port / engine the message arrived from.
    MetaIngress,
    /// Metadata: scheduler slack computed by the pipeline (§3.1.3).
    MetaSlack,
    /// Metadata: receive descriptor queue selected for DMA.
    MetaRxQueue,
    /// Metadata: priority class assigned by policy.
    MetaPriority,
    /// Metadata: number of pipeline passes this message has made —
    /// drives the one-pass/two-pass accounting of §3.1.2.
    MetaPasses,
}

impl Field {
    /// Number of distinct fields — the PHV array length.
    pub const COUNT: usize = 24;

    /// All fields, for iteration.
    pub const ALL: [Field; Field::COUNT] = [
        Field::EthDst,
        Field::EthSrc,
        Field::EthType,
        Field::IpTos,
        Field::IpTotalLen,
        Field::IpIdent,
        Field::IpTtl,
        Field::IpProto,
        Field::IpSrc,
        Field::IpDst,
        Field::L4SrcPort,
        Field::L4DstPort,
        Field::TcpFlags,
        Field::EspSpi,
        Field::EspSeq,
        Field::KvsOp,
        Field::KvsTenant,
        Field::KvsKey,
        Field::KvsRequestId,
        Field::MetaIngress,
        Field::MetaSlack,
        Field::MetaRxQueue,
        Field::MetaPriority,
        Field::MetaPasses,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A field's value: all fields fit in 64 bits in this model.
pub type FieldValue = u64;

/// The PHV: one optional value per [`Field`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Phv {
    slots: [Option<FieldValue>; Field::COUNT],
}

impl Phv {
    /// An empty PHV (nothing parsed yet).
    #[must_use]
    pub fn new() -> Phv {
        Phv::default()
    }

    /// Reads a field, `None` if the parser never populated it.
    #[must_use]
    pub fn get(&self, field: Field) -> Option<FieldValue> {
        self.slots[field.index()]
    }

    /// Reads a field, defaulting absent to zero (the hardware-like
    /// behaviour of reading an invalid container).
    #[must_use]
    pub fn get_or_zero(&self, field: Field) -> FieldValue {
        self.get(field).unwrap_or(0)
    }

    /// True if the field is populated.
    #[must_use]
    pub fn has(&self, field: Field) -> bool {
        self.slots[field.index()].is_some()
    }

    /// Writes a field.
    pub fn set(&mut self, field: Field, value: FieldValue) {
        self.slots[field.index()] = Some(value);
    }

    /// Invalidates a field (e.g. after decapsulation removes a header).
    pub fn clear(&mut self, field: Field) {
        self.slots[field.index()] = None;
    }

    /// Iterates `(field, value)` over populated fields in declaration
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Field, FieldValue)> + '_ {
        Field::ALL
            .iter()
            .filter_map(|&f| self.get(f).map(|v| (f, v)))
    }
}

impl fmt::Display for Phv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PHV{{")?;
        let mut first = true;
        for (field, value) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{field}={value:#x}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_phv_has_nothing() {
        let phv = Phv::new();
        assert_eq!(phv.iter().count(), 0);
        for f in Field::ALL {
            assert!(!phv.has(f));
            assert_eq!(phv.get(f), None);
            assert_eq!(phv.get_or_zero(f), 0);
        }
    }

    #[test]
    fn set_get_clear() {
        let mut phv = Phv::new();
        phv.set(Field::IpDst, 0x0a000001);
        phv.set(Field::MetaSlack, 500);
        assert_eq!(phv.get(Field::IpDst), Some(0x0a000001));
        assert!(phv.has(Field::MetaSlack));
        assert_eq!(phv.iter().count(), 2);
        phv.clear(Field::IpDst);
        assert!(!phv.has(Field::IpDst));
        assert_eq!(phv.iter().count(), 1);
    }

    #[test]
    fn all_covers_every_variant_exactly_once() {
        // Field::COUNT and Field::ALL must stay in sync with the enum.
        let mut idxs: Vec<usize> = Field::ALL.iter().map(|f| *f as usize).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, (0..Field::COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn iter_yields_in_declaration_order() {
        let mut phv = Phv::new();
        phv.set(Field::KvsKey, 3);
        phv.set(Field::EthType, 0x0800);
        let got: Vec<Field> = phv.iter().map(|(f, _)| f).collect();
        assert_eq!(got, vec![Field::EthType, Field::KvsKey]);
    }

    #[test]
    fn display_lists_fields() {
        let mut phv = Phv::new();
        phv.set(Field::IpProto, 17);
        let s = phv.to_string();
        assert!(s.contains("IpProto=0x11"), "{s}");
    }
}
