//! Deficit round-robin across tenants.
//!
//! §3.1.3 claims the slack interface "is able to implement any
//! arbitrary local scheduling algorithm". DRR is the counterexample
//! people usually reach for (it is byte-fair, not deadline-driven), so
//! we implement it directly as an alternative engine scheduler. The
//! scheduler-ablation bench compares LSTF, FIFO, and DRR at a
//! contended engine; DRR also shows what per-tenant byte-fair sharing
//! (§3.1.3's "share on-NIC resources according to some high-level
//! policy") looks like without slack.

use std::collections::{HashMap, VecDeque};

use packet::message::{Message, TenantId};

/// Per-tenant state.
#[derive(Debug)]
struct TenantQueue {
    queue: VecDeque<Message>,
    deficit: u64,
}

/// A deficit round-robin scheduler over tenant queues.
///
/// Each round, the active tenant's deficit grows by the quantum; it
/// may dequeue messages while its deficit covers their size in bytes.
#[derive(Debug)]
pub struct DrrScheduler {
    tenants: HashMap<TenantId, TenantQueue>,
    /// Round-robin order (insertion order of first appearance).
    order: Vec<TenantId>,
    cursor: usize,
    quantum: u64,
    queued: usize,
}

impl DrrScheduler {
    /// Builds a scheduler where every tenant gets `quantum` bytes per
    /// round.
    ///
    /// # Panics
    /// Panics on a zero quantum (no tenant could ever send).
    #[must_use]
    pub fn new(quantum: u64) -> DrrScheduler {
        assert!(quantum > 0, "zero quantum");
        DrrScheduler {
            tenants: HashMap::new(),
            order: Vec::new(),
            cursor: 0,
            quantum,
            queued: 0,
        }
    }

    /// Enqueues a message on its tenant's queue.
    pub fn push(&mut self, msg: Message) {
        let tenant = msg.tenant;
        let order = &mut self.order;
        self.tenants
            .entry(tenant)
            .or_insert_with(|| {
                order.push(tenant);
                TenantQueue {
                    queue: VecDeque::new(),
                    deficit: 0,
                }
            })
            .queue
            .push_back(msg);
        self.queued += 1;
    }

    /// Total queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Dequeues the next message under DRR.
    pub fn pop(&mut self) -> Option<Message> {
        if self.queued == 0 {
            return None;
        }
        // At most two sweeps: one to top up deficits, one to find a
        // sendable head (a head larger than quantum may need several
        // top-ups; loop until someone can send — guaranteed to
        // terminate because deficits grow monotonically while queues
        // are non-empty).
        loop {
            for _ in 0..self.order.len() {
                let tenant = self.order[self.cursor];
                let tq = self.tenants.get_mut(&tenant).expect("tenant in order");
                if tq.queue.is_empty() {
                    tq.deficit = 0; // idle tenants don't bank credit
                    self.cursor = (self.cursor + 1) % self.order.len();
                    continue;
                }
                let head_size = tq.queue.front().expect("non-empty").wire_size().get();
                if tq.deficit >= head_size {
                    tq.deficit -= head_size;
                    let msg = tq.queue.pop_front().expect("non-empty");
                    self.queued -= 1;
                    // Stay on this tenant while its deficit lasts
                    // (standard DRR serves a burst per visit).
                    if tq.queue.is_empty() {
                        tq.deficit = 0;
                        self.cursor = (self.cursor + 1) % self.order.len();
                    }
                    return Some(msg);
                }
                // Not enough deficit: top up and move on.
                tq.deficit += self.quantum;
                self.cursor = (self.cursor + 1) % self.order.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::message::{MessageId, MessageKind};

    fn msg(id: u64, tenant: u16, size: usize) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0u8; size]))
            .tenant(TenantId(tenant))
            .build()
    }

    #[test]
    fn equal_quanta_share_equally() {
        let mut s = DrrScheduler::new(128);
        // Tenant 0 and 1 each queue 10 messages of 64B.
        for i in 0..10 {
            s.push(msg(i, 0, 64));
            s.push(msg(100 + i, 1, 64));
        }
        // Drain 10; counts per tenant should be balanced within 1 burst.
        let mut counts = [0u32; 2];
        for _ in 0..10 {
            let m = s.pop().unwrap();
            counts[m.tenant.0 as usize] += 1;
        }
        assert!(
            (counts[0] as i32 - counts[1] as i32).abs() <= 2,
            "{counts:?}"
        );
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn fifo_within_tenant() {
        let mut s = DrrScheduler::new(1000);
        s.push(msg(1, 0, 64));
        s.push(msg(2, 0, 64));
        s.push(msg(3, 0, 64));
        assert_eq!(s.pop().unwrap().id, MessageId(1));
        assert_eq!(s.pop().unwrap().id, MessageId(2));
        assert_eq!(s.pop().unwrap().id, MessageId(3));
        assert!(s.pop().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn large_message_eventually_sends() {
        let mut s = DrrScheduler::new(10); // quantum much smaller than message
        s.push(msg(1, 0, 640));
        assert_eq!(s.pop().unwrap().id, MessageId(1));
    }

    #[test]
    fn idle_tenant_does_not_bank_credit() {
        let mut s = DrrScheduler::new(128);
        // Tenant 0 sends, tenant 1 is idle for a long time.
        for i in 0..20 {
            s.push(msg(i, 0, 64));
        }
        for _ in 0..20 {
            let _ = s.pop().unwrap();
        }
        // Tenant 1 shows up; it must not burst past tenant 0 unfairly.
        for i in 0..4 {
            s.push(msg(200 + i, 1, 64));
            s.push(msg(300 + i, 0, 64));
        }
        let mut counts = [0u32; 2];
        for _ in 0..4 {
            let m = s.pop().unwrap();
            counts[m.tenant.0 as usize] += 1;
        }
        assert!(counts[0] >= 1, "returning tenant starved: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "zero quantum")]
    fn zero_quantum_rejected() {
        let _ = DrrScheduler::new(0);
    }
}
