//! Management-plane hooks: what may change while the NIC runs.
//!
//! The primitives `panic-ctrl`'s `CtrlEndpoint` drives between
//! cycles. Each is safe to call mid-run; drain preconditions are
//! asserted rather than awaited — the endpoint owns the waiting
//! (see docs/CONTROL.md).

use rmt::program::RmtProgram;
use tenancy::{TenancyConfig, TenancyRuntime, VNicSpec};

use super::PanicNic;

impl PanicNic {
    /// Mutable access to the tenancy runtime for live parameter
    /// rewrites (rate / weight / quota / removal). `None` when the
    /// tenancy plane is off — use [`PanicNic::ctrl_add_vnic`] to
    /// engage it.
    pub fn tenancy_mut(&mut self) -> Option<&mut TenancyRuntime> {
        self.tenancy.as_deref_mut()
    }

    /// Adds a tenant vNIC live, engaging the tenancy plane (with
    /// default pool parameters) if the NIC was untenanted. The new
    /// vNIC's implicit-exit baseline is seeded from the component
    /// stats *now*, so drops or losses attributed to this tenant id
    /// before the vNIC existed cannot return credits it never charged.
    /// Returns `false` if the tenant already has a vNIC.
    pub fn ctrl_add_vnic(&mut self, spec: VNicSpec) -> bool {
        let baseline = self.implicit_exit_count(spec.tenant);
        let tn = self.tenancy.get_or_insert_with(|| {
            let mut tn = Box::new(TenancyRuntime::new(TenancyConfig::new(Vec::new())));
            tn.attach_tracer(&self.tracer);
            tn
        });
        tn.add_vnic(spec, baseline)
    }

    /// Closes (or reopens) the pipeline gate. While shut, portals stop
    /// submitting and the pipeline drains; arriving traffic waits in
    /// the NoC ejection buffers. Used by the management plane around
    /// [`PanicNic::swap_program`].
    pub fn set_pipeline_gate(&mut self, gated: bool) {
        self.pipeline_gated = gated;
    }

    /// True while the management plane holds the pipeline gate shut.
    #[must_use]
    pub fn pipeline_gated(&self) -> bool {
        self.pipeline_gated
    }

    /// True when the gate is shut *and* the pipeline has fully drained
    /// (no backlog, nothing inside the stages) — the precondition for
    /// [`PanicNic::swap_program`].
    #[must_use]
    pub fn pipeline_drained(&self) -> bool {
        self.pipeline_gated && !self.pipeline_holds_work()
    }

    /// Hot-swaps the RMT program, re-lowering it through
    /// `rmt::compile`. The gate stays shut; the caller reopens it with
    /// [`PanicNic::set_pipeline_gate`]`(false)` once the new epoch
    /// begins.
    ///
    /// # Panics
    /// Panics unless [`PanicNic::pipeline_drained`] holds.
    pub fn swap_program(&mut self, program: RmtProgram) {
        assert!(
            self.pipeline_drained(),
            "program swap before the pipeline drained (gate the pipeline and wait)"
        );
        self.pipeline.set_program(program);
    }
}
