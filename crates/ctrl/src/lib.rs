//! Live management plane for a running [`panic_core::PanicNic`].
//!
//! Production switches are never rebuilt to change a table, a rate
//! limit, or a pipeline program — they are reconfigured through a
//! control plane while forwarding traffic. This crate gives the PANIC
//! reproduction the same separation, in three layers:
//!
//! 1. [`proto`] — a compact, versioned, self-describing binary
//!    request/response protocol (fixed header with magic / version /
//!    opcode / sequence / length, typed payloads, hand-rolled
//!    encode/decode that errors on malformed input but never panics).
//! 2. [`endpoint::CtrlEndpoint`] — an out-of-band endpoint serviced at
//!    cycle boundaries that executes mutations with drain +
//!    epoch-switch semantics: add/remove tenant vNICs, rewrite rate /
//!    weight / credit parameters, and hot-swap RMT programs, such that
//!    every conservation identity still closes across the switch
//!    point.
//! 3. An admission controller inside the endpoint that runs the full
//!    `panic-verify` pass against the *post-mutation* spec before
//!    commit, rejecting with the lint findings serialized in the
//!    response — the static verifier as an online gatekeeper — plus a
//!    `subscribe` opcode streaming framed metric deltas. Streaming
//!    visits the NIC's metrics through a [`trace::MetricSink`] that
//!    prunes unsubscribed subtrees and walks a positional change
//!    cursor — every name compared every step, as bytes wherever the
//!    exporter holds it as a string — so a step in which nothing
//!    subscribed changed formats nothing and allocates nothing, and a
//!    step that emits writes its frame straight from the cursor. A
//!    subscription inside `tenancy.` reads that plane's change stamps
//!    first and skips the visit, or the name comparisons, when they
//!    say nothing of the kind moved.
//!
//! An armed but silent endpoint is a pure no-op: a run with a
//! [`endpoint::CtrlEndpoint`] attached and no messages is
//! byte-identical (traces, metrics, reports) to a run without one.
//! See `docs/CONTROL.md` for the wire-format tables and the
//! drain/epoch-switch semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod endpoint;
pub mod proto;
mod telemetry;

/// The integration tests' reference NIC, for unit tests that need a
/// live one.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_rig;

pub use endpoint::CtrlEndpoint;
pub use proto::{CtrlBody, CtrlFrame, CtrlRequest, CtrlResponse, DecodeError, MetricUpdate};

/// Current control wire-protocol version, carried in every frame
/// header and reported by `panic-lint --json` as `"proto_version"` so
/// offline and online diagnostics are traceable to the same format.
pub const PROTO_VERSION: u8 = 1;
