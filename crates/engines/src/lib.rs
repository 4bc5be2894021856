//! # engines — PANIC offload engines
//!
//! §3.1.1: "any component of the NIC that requires buffering or cannot
//! run at line-rate is implemented as an engine attached to a common
//! switch and scheduler" — including components not normally thought
//! of as offloads, like the DMA and PCIe engines. This crate provides:
//!
//! * [`engine`] — the [`engine::Offload`] trait every engine
//!   implements: a service-time model plus a byte-level transformation.
//! * [`tile`] — [`tile::EngineTile`], the wrapper that
//!   makes an offload a PANIC tile: local scheduling queue (§3.1.3),
//!   local lookup table semantics (chain advance, default route back
//!   to the pipeline, §3.1.2), and busy/service accounting.
//! * [`host`] — the host-memory model behind the DMA engine.
//! * Concrete engines: [`mac`], [`dma`], [`pcie`], [`ipsec`],
//!   [`kvs_cache`], [`rdma`] — the six that experiments build. Any
//!   other offload is an [`engine::NullOffload`] service-time model.
//! * [`taxonomy`] — the offload classification of Table 1.
//!
//! Engines transform *real bytes* (the IPSec engine really decrypts,
//! the KVS cache really serves values) so that chained pipelines are
//! end-to-end checkable, but their crypto is deliberately toy-grade:
//! the architecture cares about service rates and chaining, not
//! cryptographic strength.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dma;
pub mod engine;
pub mod host;
pub mod ipsec;
pub mod kvs_cache;
pub mod mac;
pub mod pcie;
pub mod rdma;
pub mod taxonomy;
pub mod tile;

pub use engine::{EgressKind, Offload, Output};
pub use tile::{Emit, EngineTile, TileConfig, TileStats};
