//! [`MsgStore`] — where a NIC keeps its messages — and [`Carry`], what
//! a plane carries instead of them.
//!
//! A message is written into a NIC's store once, when it enters the
//! NIC, and taken out once, when it leaves. In between, the mesh, the
//! tile queues, the pipeline and the tenancy queues carry a 4-byte
//! [`MsgRef`] naming its slot, and the offloads and the pipeline work
//! on it in place. Each plane is generic over what it carries: a whole
//! [`Message`] (its store is `()`, the message is its own home) when a
//! plane runs alone, a [`MsgRef`] inside the NIC.
//!
//! The store is also the NIC's copy ledger: every `put` names why the
//! message entered ([`Entry`]) and every `take` why it left
//! ([`ExitKind`]), and the store counts each reason. So at every cycle
//! the messages it holds are exactly the entries not yet matched by an
//! exit, and a message destroyed off the books is one that stays in it.

use std::collections::BTreeMap;

use crate::message::{Message, TenantId};

/// Why a message enters a NIC: the source side of the copy ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Received from the wire (`rx_frame`).
    Rx,
    /// Injected from inside the NIC boundary (`inject_from`).
    Injected,
    /// A watchdog re-issue: a fresh copy of a timed-out descriptor.
    Reissued,
    /// Arrived over an inter-NIC link of a rack fabric.
    RemoteRx,
    /// Generated by an offload (a DMA engine's PCIe event).
    Spawned,
    /// A coalesced PCIe interrupt the NIC raised on its flush timer.
    Interrupt,
}

/// Why a message copy leaves a NIC: the sink side of the copy ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Egressed to the wire.
    Wire,
    /// Delivered to the host.
    Host,
    /// Failed over to host fallback (fault plane).
    HostFallback,
    /// Consumed by an engine (e.g. KVS cache hit absorbed on-NIC).
    Consumed,
    /// A control/descriptor completion.
    Control,
    /// Dead-lettered: no route for the message.
    Unrouted,
    /// A duplicate copy suppressed at egress (watchdog reissue raced
    /// the original). Does **not** return a tenancy credit: the
    /// surviving copy's exit already did.
    Duplicate,
    /// Handed to the rack fabric: the current chain hop addresses an
    /// engine on another NIC, so this NIC's books close on the copy
    /// here (the destination member owns it from the link onward).
    Remote,
    /// Dropped by a tile's scheduling queue.
    SchedDrop,
    /// Flushed from a tile the watchdog marked DOWN, or absorbed by
    /// one.
    Flushed,
    /// Destroyed in the mesh by an injected ejection drop.
    LostNoc,
    /// Dropped by a `Drop` verdict of the RMT pipeline.
    PipelineDrop,
}

impl ExitKind {
    /// Every exit reason, in declaration order.
    pub const ALL: [ExitKind; 12] = [
        ExitKind::Wire,
        ExitKind::Host,
        ExitKind::HostFallback,
        ExitKind::Consumed,
        ExitKind::Control,
        ExitKind::Unrouted,
        ExitKind::Duplicate,
        ExitKind::Remote,
        ExitKind::SchedDrop,
        ExitKind::Flushed,
        ExitKind::LostNoc,
        ExitKind::PipelineDrop,
    ];

    /// True for the four in-plane losses, the last four kinds: a plane
    /// destroyed the copy, and the tenancy plane returns its credit at
    /// its next step rather than at the exit.
    #[must_use]
    pub fn is_loss(self) -> bool {
        self as usize >= ExitKind::SchedDrop as usize
    }
}

/// What a plane carries: a message, or a handle to one in a store.
pub trait Carry: Sized {
    /// Where the message lives: `()` for a [`Message`], which is its
    /// own home; a [`MsgStore`] for a [`MsgRef`].
    type Store;

    /// The message.
    fn msg<'a>(&'a self, store: &'a Self::Store) -> &'a Message;

    /// The message, to change in place.
    fn msg_mut<'a>(&'a mut self, store: &'a mut Self::Store) -> &'a mut Message;

    /// Writes a message in, as entering for `why`.
    fn put(msg: Message, why: Entry, store: &mut Self::Store) -> Self;

    /// Takes the message out, as leaving or destroyed for `why`.
    fn take(self, why: ExitKind, store: &mut Self::Store) -> Message;
}

impl Carry for Message {
    type Store = ();

    #[inline]
    fn msg<'a>(&'a self, _: &'a ()) -> &'a Message {
        self
    }

    #[inline]
    fn msg_mut<'a>(&'a mut self, _: &'a mut ()) -> &'a mut Message {
        self
    }

    #[inline]
    fn put(msg: Message, _: Entry, _: &mut ()) -> Message {
        msg
    }

    #[inline]
    fn take(self, _: ExitKind, _: &mut ()) -> Message {
        self
    }
}

/// A handle to a message in a [`MsgStore`]: its slot.
///
/// A handle names a slot, not a message: once taken out, the slot is
/// reused. Nothing orders or breaks ties by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRef(u32);

impl Carry for MsgRef {
    type Store = MsgStore;

    #[inline]
    fn msg<'a>(&'a self, store: &'a MsgStore) -> &'a Message {
        store.get(*self)
    }

    #[inline]
    fn msg_mut<'a>(&'a mut self, store: &'a mut MsgStore) -> &'a mut Message {
        store.get_mut(*self)
    }

    #[inline]
    fn put(msg: Message, why: Entry, store: &mut MsgStore) -> MsgRef {
        store.put(msg, why)
    }

    #[inline]
    fn take(self, why: ExitKind, store: &mut MsgStore) -> Message {
        store.take(self, why)
    }
}

/// A NIC's messages: a slot vector and a LIFO free list. It grows only
/// while no slot is vacant, so once the NIC has held its largest
/// number of messages at once, writing one in allocates nothing.
///
/// Beside them, the ledger: a count per [`Entry`] and per [`ExitKind`],
/// and each tenant's in-plane losses, so `Σ entered == Σ exited +
/// live()` at every moment.
#[derive(Debug, Default)]
pub struct MsgStore {
    slots: Vec<Option<Message>>,
    free: Vec<u32>,
    entered: [u64; 6],
    exited: [u64; 12],
    /// Each tenant's in-plane losses, by kind in declaration order.
    /// Touched only when a plane destroys a copy.
    lost: BTreeMap<TenantId, [u64; 4]>,
}

impl MsgStore {
    /// Writes `msg` into a vacant slot, counting it as entering for
    /// `why`.
    pub fn put(&mut self, msg: Message, why: Entry) -> MsgRef {
        self.entered[why as usize] += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(msg);
            return MsgRef(slot);
        }
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 messages in a NIC");
        self.slots.push(Some(msg));
        // Room for every slot: taking a message out never allocates.
        self.free.reserve(self.slots.len());
        MsgRef(slot)
    }

    /// Takes the message `r` names out, vacating its slot, and counts
    /// it as leaving for `why` (an in-plane loss also against its
    /// tenant).
    pub fn take(&mut self, r: MsgRef, why: ExitKind) -> Message {
        let msg = self.slots[r.0 as usize]
            .take()
            .expect("a handle names a live message");
        self.free.push(r.0);
        self.exited[why as usize] += 1;
        if why.is_loss() {
            self.charge_loss(msg.tenant, why);
        }
        msg
    }

    /// Counts an in-plane loss against `tenant`: off the path every
    /// other exit takes.
    #[cold]
    fn charge_loss(&mut self, tenant: TenantId, why: ExitKind) {
        self.lost.entry(tenant).or_default()[why as usize - ExitKind::SchedDrop as usize] += 1;
    }

    /// The message `r` names.
    #[must_use]
    pub fn get(&self, r: MsgRef) -> &Message {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("a handle names a live message")
    }

    /// The message `r` names, to change in place.
    pub fn get_mut(&mut self, r: MsgRef) -> &mut Message {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("a handle names a live message")
    }

    /// Messages in the store now.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Messages that entered for `why` so far.
    #[must_use]
    pub fn entered(&self, why: Entry) -> u64 {
        self.entered[why as usize]
    }

    /// Messages that left for `why` so far.
    #[must_use]
    pub fn exited(&self, why: ExitKind) -> u64 {
        self.exited[why as usize]
    }

    /// In-plane losses so far, whoever's: four counter reads.
    #[must_use]
    pub fn losses(&self) -> u64 {
        self.exited[ExitKind::SchedDrop as usize..].iter().sum()
    }

    /// `tenant`'s in-plane losses so far.
    #[must_use]
    pub fn losses_of(&self, tenant: TenantId) -> u64 {
        self.lost_of(tenant).iter().sum()
    }

    /// `tenant`'s in-plane losses so far, by kind: scheduler drops, DOWN
    /// flushes, NoC losses, pipeline drops.
    #[must_use]
    pub fn lost_of(&self, tenant: TenantId) -> [u64; 4] {
        self.lost.get(&tenant).copied().unwrap_or_default()
    }
}

// What the planes carry inside a NIC.
const _: () = assert!(std::mem::size_of::<MsgRef>() == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, MessageKind};

    fn msg(id: u64) -> Message {
        Message::builder(MessageId(id), MessageKind::Internal).build()
    }

    #[test]
    fn slots_are_reused_last_in_first_out() {
        let mut store = MsgStore::default();
        let (a, b) = (store.put(msg(1), Entry::Rx), store.put(msg(2), Entry::Rx));
        assert_eq!(store.live(), 2);
        assert_eq!(store.get(b).id, MessageId(2));
        store.get_mut(a).id = MessageId(7);
        assert_eq!(store.take(a, ExitKind::Wire).id, MessageId(7));
        assert_eq!(store.take(b, ExitKind::Wire).id, MessageId(2));
        assert_eq!(store.live(), 0);
        // b was freed last, so its slot comes back first.
        assert_eq!(store.put(msg(3), Entry::Rx), b);
        assert_eq!(store.put(msg(4), Entry::Rx), a);
        assert_eq!(store.slots.len(), 2, "no growth while a slot is vacant");
    }

    #[test]
    fn the_ledger_counts_every_reason_and_each_tenants_losses() {
        use Entry::*;
        let entries = [Rx, Injected, Reissued, RemoteRx, Spawned, Interrupt];
        let mut store = MsgStore::default();
        // Message i, of tenant 7 or 8 by parity, enters for entry i % 6
        // and leaves for exit i.
        for (i, why) in ExitKind::ALL.into_iter().enumerate() {
            let tenant = TenantId(7 + (i % 2) as u16);
            let m = Message::builder(MessageId(i as u64), MessageKind::Internal)
                .tenant(tenant)
                .build();
            let r = store.put(m, entries[i % 6]);
            store.take(r, why);
        }
        assert!(entries.iter().all(|&why| store.entered(why) == 2));
        assert!(ExitKind::ALL.iter().all(|&why| store.exited(why) == 1));
        // The losses were messages 8..=11: tenants 7, 8, 7, 8.
        assert_eq!(ExitKind::ALL.iter().filter(|why| why.is_loss()).count(), 4);
        assert_eq!(store.losses(), 4);
        assert_eq!(store.lost_of(TenantId(7)), [1, 0, 1, 0]);
        assert_eq!(store.lost_of(TenantId(8)), [0, 1, 0, 1]);
        assert_eq!(store.lost_of(TenantId(9)), [0; 4]);
        assert_eq!(store.losses_of(TenantId(7)), 2);
    }

    #[test]
    #[should_panic(expected = "live message")]
    fn a_taken_handle_names_nothing() {
        let mut store = MsgStore::default();
        let a = store.put(msg(1), Entry::Rx);
        store.take(a, ExitKind::Wire);
        let _ = store.get(a);
    }
}
