//! # rmt — the heavyweight reconfigurable match+action pipeline
//!
//! Figure 3b: an RMT engine contains a programmable parser, a sequence
//! of match+action stages operating on a Packet Header Vector (PHV),
//! and a deparser that writes modified fields back to the wire bytes.
//! §3.1.2 assigns this pipeline the jobs that need full header
//! visibility: parsing complex headers, choosing the offload chain,
//! load-balancing across descriptor queues, and computing scheduler
//! slack values.
//!
//! * [`parse`] — a data-driven parse graph walked over real packet
//!   bytes, extracting fields into a [`Phv`](packet::Phv).
//! * [`table`] — exact / longest-prefix / ternary match tables.
//! * [`action`] — the action primitives a stage can run, including the
//!   chain-building and slack-computing primitives unique to PANIC.
//! * [`program`] — an RMT program: parser + one table per stage, with
//!   a builder ("P4-lite") used by the NIC models and tests, and the
//!   per-pipeline scratch the PHV lives in: parsed there, rewritten
//!   there in place, deparsed from there. What leaves a pass is a
//!   descriptor on the message, never the vector.
//! * [`deparse`] — rewrites wire bytes from the PHV (recomputing the
//!   IPv4 checksum).
//! * [`pipeline`] — the timing model: `P` parallel pipelines accept one
//!   message per cycle each and emit it `depth` cycles later (§4.2's
//!   `F × P` packets-per-second argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod compile;
pub mod deparse;
pub mod parse;
pub mod pipeline;
pub mod program;
pub mod table;

pub use action::{Action, Primitive, SlackExpr, Verdict};
pub use compile::CompiledProgram;
pub use parse::{ParseGraph, ParseOutcome};
pub use pipeline::{PipelineConfig, PipelineStats, RmtPipeline};
pub use program::{ProgramBuilder, ProgramScratch, RmtProgram};
pub use table::{MatchKey, MatchKind, Table, TableEntry};
