//! The rack-fabric boundary: how a copy crosses to another NIC.
//!
//! A standalone NIC never calls any of these; `crates/fabric` uses
//! them to carry chain hops across NICs (docs/FABRIC.md). The outbound
//! half is an [`ExitKind::Remote`] exit in `datapath.rs`.

use std::collections::VecDeque;

use packet::chain::EngineId;
use packet::message::Message;
use packet::store::{Entry, ExitKind};
use sim_core::time::Cycle;

use super::datapath::Leaving;
use super::PanicNic;

impl PanicNic {
    /// Messages parked for the fabric (oldest first). Non-empty only
    /// mid-run on a fabric member.
    #[must_use]
    pub fn remote_egress(&self) -> &VecDeque<Message> {
        &self.remote_egress
    }

    /// Pops the oldest fabric-bound message, if its link has capacity
    /// (the fabric checks credits before popping; messages left here
    /// are backpressured, not dropped).
    pub fn pop_remote_egress(&mut self) -> Option<Message> {
        self.remote_egress.pop_front()
    }

    /// Accepts a message arriving over an inter-NIC link. The current
    /// chain hop must be remote-encoded; it is localized
    /// ([`packet::ChainHeader::localize_current`]) and the message injected
    /// into this NIC's mesh at `uplink` (the member's fabric
    /// attachment tile), heading straight for the target engine — the
    /// chain was computed by the *source* NIC's pipeline, and §3.1.2's
    /// one-heavyweight-pass discipline holds fleet-wide.
    ///
    /// Counts a `remote_rx` source; tracks the copy with this NIC's
    /// watchdog when one is armed; notes a tenancy `remote_rx` source
    /// when the tenant has a vNIC here (no credit is charged — the
    /// copy was admitted at its home NIC; cross-NIC chains of striped
    /// tenants bypass the plane on non-home members).
    ///
    /// Returns `false` (counting the copy as `unrouted`) when the
    /// current hop is missing, not remote, or targets an engine this
    /// NIC doesn't have — the dynamic counterpart of the PV701 lint.
    pub fn rx_remote(&mut self, msg: Message, uplink: EngineId, now: Cycle) -> bool {
        if let Some(tn) = self.tenancy.as_mut() {
            tn.note_remote_rx(msg.tenant);
        }
        let local = msg
            .chain
            .current()
            .map(|h| h.engine)
            .filter(|t| t.is_remote())
            .map(EngineId::local_part)
            .filter(|&l| self.has_tile(l));
        let msg = self.store.put(msg, Entry::RemoteRx);
        let Some(local) = local else {
            self.exit(Leaving::Copy(msg), ExitKind::Unrouted, now);
            return false;
        };
        let m = self.store.get_mut(msg);
        m.chain.localize_current(local);
        self.tracer
            .instant_arg(self.track, "nic.remote_rx", now, "msg", m.id.0);
        self.watchdog_track(msg, uplink, now);
        self.network.send_in(uplink, local, msg, &self.store, now);
        true
    }

    /// Offsets this NIC's message-id allocator so ids are unique
    /// fleet-wide (the fabric gives member *i* base `i << 48`; the
    /// watchdog's completion ledger and trace `msg` args stay
    /// unambiguous when copies cross NICs). Call before any traffic.
    pub fn set_msg_id_base(&mut self, base: u64) {
        debug_assert_eq!(self.next_msg_id, 0, "id base set after traffic started");
        self.next_msg_id = base;
    }

    /// The next message id this NIC would allocate. Strictly
    /// monotonic for the life of the NIC: crashes, recoveries, and
    /// live management-plane mutations never rewind it, so the top
    /// 16 bits keep carrying the fabric member index set by
    /// [`PanicNic::set_msg_id_base`].
    #[must_use]
    pub fn msg_id_watermark(&self) -> u64 {
        self.next_msg_id
    }

    /// Tells this NIC its own index in a rack fabric, so chain hops
    /// remote-addressed to *it* resolve locally (see
    /// [`PanicNic::rx_remote`]). Standalone NICs never call this.
    pub fn set_fabric_index(&mut self, index: usize) {
        self.fabric_index = Some(index);
    }
}
