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

use crate::message::Message;

/// What a plane carries: a message, or a handle to one in a store.
pub trait Carry: Sized {
    /// Where the message lives: `()` for a [`Message`], which is its
    /// own home; a [`MsgStore`] for a [`MsgRef`].
    type Store;

    /// The message.
    fn msg<'a>(&'a self, store: &'a Self::Store) -> &'a Message;

    /// The message, to change in place.
    fn msg_mut<'a>(&'a mut self, store: &'a mut Self::Store) -> &'a mut Message;

    /// Writes a new message in (one an offload generated).
    fn put(msg: Message, store: &mut Self::Store) -> Self;

    /// Takes the message out, when it leaves or is destroyed.
    fn take(self, store: &mut Self::Store) -> Message;
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
    fn put(msg: Message, _: &mut ()) -> Message {
        msg
    }

    #[inline]
    fn take(self, _: &mut ()) -> Message {
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
    fn put(msg: Message, store: &mut MsgStore) -> MsgRef {
        store.put(msg)
    }

    #[inline]
    fn take(self, store: &mut MsgStore) -> Message {
        store.take(self)
    }
}

/// A NIC's messages: a slot vector and a LIFO free list. It grows only
/// while no slot is vacant, so once the NIC has held its largest
/// number of messages at once, writing one in allocates nothing.
#[derive(Debug, Default)]
pub struct MsgStore {
    slots: Vec<Option<Message>>,
    free: Vec<u32>,
}

impl MsgStore {
    /// Writes `msg` into a vacant slot.
    pub fn put(&mut self, msg: Message) -> MsgRef {
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

    /// Takes the message `r` names out, vacating its slot.
    pub fn take(&mut self, r: MsgRef) -> Message {
        let msg = self.slots[r.0 as usize]
            .take()
            .expect("a handle names a live message");
        self.free.push(r.0);
        msg
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
        let (a, b) = (store.put(msg(1)), store.put(msg(2)));
        assert_eq!(store.live(), 2);
        assert_eq!(store.get(b).id, MessageId(2));
        store.get_mut(a).id = MessageId(7);
        assert_eq!(store.take(a).id, MessageId(7));
        assert_eq!(store.take(b).id, MessageId(2));
        assert_eq!(store.live(), 0);
        // b was freed last, so its slot comes back first.
        assert_eq!(store.put(msg(3)), b);
        assert_eq!(store.put(msg(4)), a);
        assert_eq!(store.slots.len(), 2, "no growth while a slot is vacant");
    }

    #[test]
    #[should_panic(expected = "live message")]
    fn a_taken_handle_names_nothing() {
        let mut store = MsgStore::default();
        let a = store.put(msg(1));
        store.take(a);
        let _ = store.get(a);
    }
}
