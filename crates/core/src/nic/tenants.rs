//! Tenancy hooks: how an admitted copy is released, and how its
//! tenant's ledger is kept whole.
//!
//! The plane itself is [`tenancy::TenancyRuntime`]; the NIC owns at
//! most one (boxed and `Option`al, like the fault plane). `ingress`
//! parks a configured vNIC's frames with it and `exit` reports every
//! terminal to it (both in `datapath.rs`); this file runs its release
//! scheduler and hands it the *implicit* exits — the in-plane losses
//! the message store counted per tenant.

use packet::message::TenantId;
use packet::store::MsgRef;
use sim_core::time::Cycle;
use tenancy::{TenancyRuntime, TenantConservation};

use super::PanicNic;

impl PanicNic {
    /// True while the tenancy plane holds pending messages.
    pub(super) fn tenancy_holds_work(&self) -> bool {
        self.tenancy
            .as_ref()
            .is_some_and(|tn| tn.pending_total() > 0)
    }

    /// One tenancy-plane step. First reconciles *implicit* exits —
    /// the in-plane losses the store counted per tenant — so the buffer
    /// credits those copies held return to their tenants; the
    /// per-tenant walk runs only when the store's loss total moved
    /// since the last one. Then runs the release scheduler
    /// (token-bucket rate → credit admission → DRR deficit → SFQ rank
    /// spreading), launching each released message exactly as the
    /// direct ingress path would.
    ///
    /// The runtime is taken out of the NIC for the duration of the
    /// step so the closures can borrow the rest of the NIC.
    pub(super) fn drive_tenancy(&mut self, now: Cycle) {
        let Some(mut tn) = self.tenancy.take() else {
            return;
        };
        let store = &self.store;
        tn.sync_implicit_all(store.losses(), |t| store.losses_of(t));
        let mut released = std::mem::take(&mut self.release_scratch);
        tn.release_in(now, &self.store, |_, msg| released.push(msg));
        for msg in released.drain(..) {
            self.launch(msg, now);
        }
        self.release_scratch = released;
        self.tenancy = Some(tn);
    }

    /// Tenancy term of [`PanicNic::next_activity`]: the next cycle
    /// while a counted loss has yet to return its credit.
    pub(super) fn tenancy_next_activity(&self, now: Cycle) -> Option<Cycle> {
        let tn = self.tenancy.as_ref()?;
        if !tn.implicit_synced(self.store.losses()) {
            return Some(now.next());
        }
        tn.next_activity(now)
    }

    /// The tenancy runtime (ledgers, latency histograms, vNIC
    /// catalog), when the tenancy plane is engaged.
    #[must_use]
    pub fn tenancy(&self) -> Option<&TenancyRuntime<MsgRef>> {
        self.tenancy.as_deref()
    }

    /// Per-tenant copy-level conservation identity (see
    /// [`TenantConservation`]): everything `tenant` submitted or the
    /// watchdog re-issued on its behalf is delivered, absorbed,
    /// destroyed in a plane, or still pending — the ledger's columns
    /// and the store's losses of `tenant`. `None` when the tenancy
    /// plane is off or `tenant` has no vNIC. The store counts a tenant
    /// only its losses, not its live copies, so the identity closes
    /// once `is_quiescent() && faults_settled()`.
    #[must_use]
    pub fn tenant_conservation(&self, tenant: TenantId) -> Option<TenantConservation> {
        let mut c = self.tenancy.as_ref()?.conservation_base(tenant)?;
        [c.sched_drops, c.flushed, c.lost_noc, c.pipeline_drops] = self.store.lost_of(tenant);
        Some(c)
    }
}
