//! The FIFO queue-plus-server every incumbent is wired from: a
//! pipeline stage, a manycore's embedded core and its shared hardware
//! engine are all one [`Station`].
//!
//! Deliberately not `engines::tile::EngineTile`: that is a slack-ordered
//! PIFO with backpressure parking, fault states and watchdog clocks.
//! What §2.3 criticises in the incumbents is that they have *none* of
//! that — a plain FIFO in front of one server, no reordering.

use std::collections::VecDeque;

use sim_core::time::{Cycle, Cycles};

/// A FIFO queue in front of one server.
///
/// A tick visits a station as [`complete`](Station::complete) then
/// [`start`](Station::start): a server freed this cycle takes its next
/// job this cycle, and no job finishes in the cycle it started.
#[derive(Debug)]
pub(crate) struct Station<T> {
    queue: VecDeque<T>,
    /// `(job, started_at, done_at)`.
    serving: Option<(T, Cycle, Cycle)>,
}

impl<T> Station<T> {
    pub(crate) fn new() -> Station<T> {
        Station {
            queue: VecDeque::new(),
            serving: None,
        }
    }

    /// Jobs waiting — what a capacity check bounds (the job in service
    /// has left the queue).
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs held: waiting plus in service.
    pub(crate) fn held(&self) -> usize {
        self.queue.len() + usize::from(self.serving.is_some())
    }

    /// Appends a job. Capacity is the caller's policy (the pipeline
    /// drops, the manycore's engine queues are unbounded).
    pub(crate) fn push(&mut self, job: T) {
        self.queue.push_back(job);
    }

    /// Hands back the job in service and the cycle it started, once
    /// its service time has elapsed.
    pub(crate) fn complete(&mut self, now: Cycle) -> Option<(T, Cycle)> {
        let (job, started_at, _) = self.serving.take_if(|(_, _, done_at)| now >= *done_at)?;
        Some((job, started_at))
    }

    /// If the server is free, starts the job at the head of the queue;
    /// `cost` is its service time (complete-then-start means even a
    /// zero cost occupies the server for this cycle).
    pub(crate) fn start(&mut self, now: Cycle, cost: impl FnOnce(&T) -> Cycles) {
        if self.serving.is_none() {
            if let Some(job) = self.queue.pop_front() {
                let done_at = now + cost(&job);
                self.serving = Some((job, now, done_at));
            }
        }
    }
}
