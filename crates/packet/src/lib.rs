//! # packet — the unified message substrate
//!
//! A key insight of PANIC (§3.1) is that *everything* crossing the NIC —
//! Ethernet frames, DMA descriptor reads, RDMA requests, interrupt
//! notifications — can be treated as a message on one unified on-chip
//! network. This crate defines that message type and everything parsed
//! out of or attached to it:
//!
//! * [`headers`] — from-scratch wire formats: Ethernet II, IPv4 (with
//!   real checksums), UDP, TCP, and an ESP-like IPSec encapsulation.
//! * [`kvs`] — the application protocol of the paper's running example
//!   (§2.2, §3.2): a multi-tenant DynamoDB-style key-value store.
//! * [`chain`] — the PANIC *lightweight chain header*: the list of
//!   engine destinations (plus per-hop slack) that the heavyweight RMT
//!   pipeline computes once so per-engine lookup tables can route
//!   without another pipeline traversal (§3.1.2).
//! * [`phv`] — the Packet Header Vector: parsed fields as typed values,
//!   the working set of the RMT pipeline. The type lives here (engines
//!   and the verifier name its fields); a *value* lives only in the
//!   pipeline's scratch for the duration of a pass.
//! * [`message`] — [`message::Message`] itself: identity, payload
//!   bytes, the chain, the descriptor a pipeline pass writes (priority,
//!   receive queue, pass count), and the injection timestamp — 120
//!   bytes, pinned at compile time.
//! * [`flit`] — segmentation of messages into link-width flits for the
//!   wormhole-routed on-chip network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod flit;
pub mod headers;
pub mod kvs;
pub mod message;
pub mod phv;

pub use chain::{ChainHeader, EngineClass, EngineId, Slack};
pub use flit::{Flit, FlitKind, MessagePool};
pub use message::{Message, MessageBuilder, MessageId, MessageKind, Priority, TenantId};
pub use phv::{Field, FieldValue, Phv};
