//! The check families, individually callable.
//!
//! [`verify`] runs every single-NIC family and [`verify_fabric`] adds
//! the rack checks; the per-family functions are public so a caller
//! can lint one slice of a spec, as this crate's unit tests do.

pub mod chain;
pub mod fabric;
pub mod faultplane;
pub mod noc;
pub mod perf;
pub mod rmt;
pub mod tenancy;

pub use chain::check_chain;
pub use fabric::{check_fabric, verify_fabric};
pub use faultplane::check_faultplane;
pub use noc::check_noc;
pub use perf::check_perf;
pub use rmt::check_rmt;
pub use tenancy::check_tenancy;

use crate::diag::Report;
use crate::spec::NicSpec;

/// Runs every check family against `spec` and aggregates the findings.
#[must_use]
pub fn verify(spec: &NicSpec) -> Report {
    let mut diags = Vec::new();
    diags.extend(check_chain(spec));
    diags.extend(check_noc(spec));
    diags.extend(check_rmt(spec));
    diags.extend(check_faultplane(spec));
    diags.extend(check_perf(spec));
    diags.extend(check_tenancy(spec));
    Report::new(diags)
}
