//! Flit segmentation for the wormhole-routed on-chip network.
//!
//! On-chip channels are `width` bits wide (Table 3 evaluates 64-bit and
//! 128-bit channels), so a message occupies `ceil(bits / width)` cycles
//! of every link it crosses. The NoC routes *flits*: the head flit
//! carries routing information and reserves the path; body flits
//! follow; the tail flit releases it and, in this simulator, carries
//! the [`Message`] object itself so ownership moves with the data.

use crate::chain::EngineId;
use crate::message::{Message, MessageId, TenantId};

/// Position of a flit within its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing info, allocates the path.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the path, carries the message object.
    Tail,
    /// A single-flit message (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Position of flit `seq` (0-based) in a message of `total` flits —
    /// the one definition of head/body/tail classification, shared by
    /// [`Flit::segment_with`] and the NoC's flit-handle segmentation.
    ///
    /// # Panics
    /// Panics (debug builds) if `seq >= total`.
    #[inline]
    #[must_use]
    pub fn at(seq: u32, total: u32) -> FlitKind {
        debug_assert!(seq < total, "flit {seq} of a {total}-flit message");
        match (seq == 0, seq + 1 == total) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

    /// True if this flit opens a wormhole (Head or HeadTail).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True if this flit closes a wormhole (Tail or HeadTail).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flit on an on-chip channel.
#[derive(Debug, Clone)]
pub struct Flit {
    /// Message this flit belongs to.
    pub msg_id: MessageId,
    /// Head/body/tail position.
    pub kind: FlitKind,
    /// Destination engine — the NoC maps this to a mesh coordinate.
    /// Present on every flit so the simulator need not track per-channel
    /// wormhole state to know where a body flit is going.
    pub dest: EngineId,
    /// Index of this flit within the message (0-based).
    pub seq: u32,
    /// Total flits in the message.
    pub total: u32,
    /// Tenant tag, copied from the message at segmentation time so the
    /// NoC and its fault hooks can attribute every flit — including
    /// head/body flits that don't carry the message object — to a
    /// virtual NIC without chasing the tail flit.
    pub tenant: TenantId,
    /// The message itself, carried by the tail flit only.
    pub message: Option<Box<Message>>,
}

impl Flit {
    /// Segments `msg` into flits for a `width_bits`-wide channel headed
    /// to `dest`. Always produces at least one flit.
    ///
    /// Convenience wrapper over [`Flit::segment_with`] for call sites
    /// that don't care about steady-state allocation; hot paths should
    /// use [`Flit::segment_with`] with a long-lived [`MessagePool`] and
    /// a reused output buffer.
    ///
    /// # Panics
    /// Panics if `width_bits` is zero.
    #[must_use]
    pub fn segment(msg: Message, dest: EngineId, width_bits: u64) -> Vec<Flit> {
        let total = Self::flits_for(&msg, width_bits);
        let mut pool = MessagePool::new();
        let mut flits = Vec::with_capacity(total as usize);
        Self::segment_with(msg, dest, width_bits, &mut pool, |f| flits.push(f));
        flits
    }

    /// Number of flits `msg` occupies on a `width_bits`-wide channel.
    ///
    /// # Panics
    /// Panics if `width_bits` is zero.
    #[must_use]
    pub fn flits_for(msg: &Message, width_bits: u64) -> u32 {
        msg.wire_size().beats(width_bits).max(1) as u32
    }

    /// Segments `msg` into flits, handing each to `push` in sequence
    /// order. The tail flit's box comes from `pool`, so a warm pool
    /// makes segmentation allocation-free apart from whatever `push`
    /// itself does.
    ///
    /// # Panics
    /// Panics if `width_bits` is zero.
    pub fn segment_with(
        msg: Message,
        dest: EngineId,
        width_bits: u64,
        pool: &mut MessagePool,
        mut push: impl FnMut(Flit),
    ) {
        let total = Self::flits_for(&msg, width_bits);
        let msg_id = msg.id;
        let tenant = msg.tenant;
        for seq in 0..total - 1 {
            push(Flit {
                msg_id,
                kind: FlitKind::at(seq, total),
                dest,
                seq,
                total,
                tenant,
                message: None,
            });
        }
        // The tail flit carries the message object.
        push(Flit {
            msg_id,
            kind: FlitKind::at(total - 1, total),
            dest,
            seq: total - 1,
            total,
            tenant,
            message: Some(pool.boxed(msg)),
        });
    }

    /// Extracts the message from a tail flit.
    ///
    /// # Panics
    /// Panics if called on a non-tail flit — that is a protocol bug in
    /// the router model, not a recoverable condition.
    #[must_use]
    pub fn into_message(self) -> Message {
        assert!(self.kind.is_tail(), "into_message on non-tail flit");
        *self.message.expect("tail flit must carry its message")
    }

    /// Extracts the message from a tail flit, returning the box to
    /// `pool` for reuse. Semantically identical to
    /// [`Flit::into_message`]; this variant keeps the steady-state
    /// datapath allocation-free.
    ///
    /// # Panics
    /// Panics if called on a non-tail flit.
    #[must_use]
    pub fn take_message(self, pool: &mut MessagePool) -> Message {
        assert!(self.kind.is_tail(), "take_message on non-tail flit");
        pool.unbox(self.message.expect("tail flit must carry its message"))
    }
}

/// Free-list arena for the boxed in-flight message copies that tail
/// flits carry.
///
/// Every [`Flit::segment`] used to pay one `Box::new` per message and
/// every [`Flit::into_message`] one deallocation — per-message churn on
/// the hottest path in the NoC. The pool recycles the boxes instead:
/// [`MessagePool::boxed`] overwrites a spare box in place (falling back
/// to a real allocation only while the pool is cold), and
/// [`MessagePool::unbox`] swaps the message out against
/// [`Message::placeholder`] and keeps the box. After warm-up the
/// steady-state datapath performs no heap allocation for flit carriage;
/// see `docs/PERF.md`.
#[derive(Debug, Default)]
pub struct MessagePool {
    // The boxes themselves are the resource being pooled (tail flits
    // carry `Box<Message>`), so `Vec<Message>` would defeat the point.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Message>>,
}

impl MessagePool {
    /// Creates an empty (cold) pool.
    #[must_use]
    pub fn new() -> MessagePool {
        MessagePool { free: Vec::new() }
    }

    /// Boxes `msg`, reusing a pooled allocation when one is free.
    #[must_use]
    pub fn boxed(&mut self, msg: Message) -> Box<Message> {
        match self.free.pop() {
            Some(mut b) => {
                *b = msg;
                b
            }
            None => Box::new(msg),
        }
    }

    /// Unboxes `b`, keeping the allocation for later reuse.
    #[must_use]
    pub fn unbox(&mut self, mut b: Box<Message>) -> Message {
        let msg = std::mem::replace(&mut *b, Message::placeholder());
        self.free.push(b);
        msg
    }

    /// Number of spare boxes currently pooled.
    #[must_use]
    pub fn spare(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use bytes::Bytes;

    fn msg(payload_len: usize) -> Message {
        Message::builder(MessageId(9), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0u8; payload_len]))
            .build()
    }

    #[test]
    fn single_flit_message() {
        // Empty chain header is 2 bytes; payload 4 bytes => 48 bits,
        // one 64-bit flit.
        let flits = Flit::segment(msg(4), EngineId(3), 64);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
        assert_eq!(flits[0].dest, EngineId(3));
        assert_eq!(flits[0].total, 1);
        let m = flits.into_iter().next().unwrap().into_message();
        assert_eq!(m.id, MessageId(9));
    }

    #[test]
    fn multi_flit_structure() {
        // 64B payload + 2B chain = 66B = 528 bits => 9 flits at 64 bits.
        let flits = Flit::segment(msg(64), EngineId(1), 64);
        assert_eq!(flits.len(), 9);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..8].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[8].kind, FlitKind::Tail);
        assert!(flits[..8].iter().all(|f| f.message.is_none()));
        assert!(flits[8].message.is_some());
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert_eq!(f.total, 9);
            assert_eq!(f.msg_id, MessageId(9));
        }
    }

    #[test]
    fn kind_at_classifies_every_position() {
        assert_eq!(FlitKind::at(0, 1), FlitKind::HeadTail);
        assert_eq!(FlitKind::at(0, 2), FlitKind::Head);
        assert_eq!(FlitKind::at(1, 2), FlitKind::Tail);
        assert_eq!(FlitKind::at(1, 3), FlitKind::Body);
        assert_eq!(FlitKind::at(2, 3), FlitKind::Tail);
    }

    #[test]
    fn wider_channel_fewer_flits() {
        let narrow = Flit::segment(msg(64), EngineId(0), 64).len();
        let wide = Flit::segment(msg(64), EngineId(0), 128).len();
        assert_eq!(narrow, 9);
        assert_eq!(wide, 5); // 528 bits / 128 = 4.125 -> 5
    }

    #[test]
    fn pool_recycles_boxes_and_preserves_messages() {
        let mut pool = MessagePool::new();
        let mut sink = Vec::new();
        Flit::segment_with(msg(64), EngineId(1), 64, &mut pool, |f| sink.push(f));
        assert_eq!(sink.len(), 9);
        let tail = sink.pop().unwrap();
        let m = tail.take_message(&mut pool);
        assert_eq!(m.id, MessageId(9));
        assert_eq!(pool.spare(), 1);
        // The next segmentation reuses the pooled box.
        sink.clear();
        Flit::segment_with(msg(4), EngineId(2), 64, &mut pool, |f| sink.push(f));
        assert_eq!(pool.spare(), 0);
        let m2 = sink.pop().unwrap().take_message(&mut pool);
        assert_eq!(m2.id, MessageId(9));
        assert_eq!(m2.wire_size().0, 6);
        assert_eq!(pool.spare(), 1);
    }

    #[test]
    fn segment_with_matches_segment() {
        let a = Flit::segment(msg(64), EngineId(1), 64);
        let mut pool = MessagePool::new();
        let mut b = Vec::new();
        Flit::segment_with(msg(64), EngineId(1), 64, &mut pool, |f| b.push(f));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.total, y.total);
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.message.is_some(), y.message.is_some());
        }
    }

    #[test]
    fn tenant_tag_rides_every_flit() {
        let m = Message::builder(MessageId(4), MessageKind::EthernetFrame)
            .tenant(TenantId(7))
            .payload(Bytes::from(vec![0u8; 64]))
            .build();
        let flits = Flit::segment(m, EngineId(1), 64);
        assert!(flits.len() > 1);
        assert!(flits.iter().all(|f| f.tenant == TenantId(7)));
    }

    #[test]
    fn placeholder_is_conspicuous() {
        let p = Message::placeholder();
        assert_eq!(p.id, MessageId(u64::MAX));
        assert!(p.payload.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-tail flit")]
    fn into_message_rejects_head() {
        let flits = Flit::segment(msg(64), EngineId(0), 64);
        let head = flits.into_iter().next().unwrap();
        let _ = head.into_message();
    }
}
