//! Tenancy hooks: how an admitted copy is released, and how its
//! tenant's ledger is kept whole.
//!
//! The plane itself is [`tenancy::TenancyRuntime`]; the NIC owns at
//! most one (boxed and `Option`al, like the fault plane). `ingress`
//! parks a configured vNIC's frames with it and `exit` reports every
//! terminal to it (both in `datapath.rs`); this file runs its release
//! scheduler and sums the *implicit* exits components count themselves.

use engines::tile::EngineTile;
use packet::message::TenantId;
use sim_core::bits::set_bits;
use sim_core::time::Cycle;
use tenancy::{TenancyRuntime, TenantConservation};

use super::{PanicNic, TileSlot};

/// Brings one slot's share of the running implicit-exit total up to
/// date: `seen` is the tile's drop + flush count at its last reckoning.
#[inline]
pub(super) fn reckon_implicit(tile: &EngineTile, seen: &mut u64, in_tiles: &mut u64) {
    let count = tile.queue_stats().dropped + tile.stats().flushed;
    *in_tiles += count - *seen;
    *seen = count;
}

impl PanicNic {
    /// True while the tenancy plane holds pending messages.
    pub(super) fn tenancy_holds_work(&self) -> bool {
        self.tenancy
            .as_ref()
            .is_some_and(|tn| tn.pending_total() > 0)
    }

    /// Copies of `tenant`'s traffic that left the datapath *implicitly*
    /// so far — destroyed inside a component, which counts them in its
    /// own per-tenant stats rather than reporting an exit: scheduler
    /// drops, watchdog flushes, NoC losses. Two map probes per engine
    /// tile, so the credit reconciliation asks only on a tick where
    /// [`PanicNic::implicit_exit_total`] moved (and `ctrl_add_vnic`
    /// once, for the new vNIC's baseline).
    pub(super) fn implicit_exit_count(&self, tenant: TenantId) -> u64 {
        let mut implicit = self.network.lost_of(tenant);
        for slot in &self.tiles {
            if let TileSlot::Engine(tile) = slot {
                implicit += tile.queue_stats().dropped_of(tenant);
                implicit += tile.stats().flushed_of(tenant);
            }
        }
        implicit
    }

    /// Every implicit exit so far, whoever it belonged to: the scalar
    /// each component keeps beside its per-tenant map and bumps at the
    /// same `record_*` site, so it is `Σ implicit_exit_count(t)` over
    /// every tenant id ever seen, without a map probe. Runs every
    /// executed tick of a tenanted NIC, so it reads the network's
    /// scalar and a running total over tiles, reckoning only the
    /// occupied ones (see [`PanicNic::implicit_seen`]).
    pub(super) fn implicit_exit_total(&mut self) -> u64 {
        for w in 0..self.occupied.len() {
            for bit in set_bits(self.occupied[w]) {
                let i = w * 64 + bit;
                if let Some(tile) = self.tiles[i].as_engine() {
                    reckon_implicit(
                        tile,
                        &mut self.implicit_seen[i],
                        &mut self.implicit_in_tiles,
                    );
                }
            }
        }
        let total = self.network.lost_messages() + self.implicit_in_tiles;
        debug_assert_eq!(
            total,
            self.implicit_exit_walk(),
            "a tile's drop or flush count moved while its occupancy bit was clear"
        );
        total
    }

    /// [`PanicNic::implicit_exit_total`] by reading every tile: what the
    /// running total must equal on every tick (asserted there in debug
    /// builds, and by `implicit_exit_gate` in any build).
    pub(super) fn implicit_exit_walk(&self) -> u64 {
        let mut total = self.network.lost_messages();
        for slot in &self.tiles {
            if let TileSlot::Engine(tile) = slot {
                total += tile.queue_stats().dropped + tile.stats().flushed;
            }
        }
        total
    }

    /// One tenancy-plane step. First reconciles *implicit* exits —
    /// per-tenant scheduler drops, watchdog flushes, and NoC losses
    /// counted by the components themselves — so the buffer credits
    /// those copies held return to their tenants; the per-tenant walk
    /// runs only when the component-wide total moved since the last
    /// one. Then runs the release scheduler (token-bucket rate → credit
    /// admission → DRR deficit → SFQ rank spreading), launching each
    /// released message exactly as the direct ingress path would.
    ///
    /// The runtime is taken out of the NIC for the duration of the
    /// step so the closures can borrow the rest of the NIC.
    pub(super) fn drive_tenancy(&mut self, now: Cycle) {
        let Some(mut tn) = self.tenancy.take() else {
            return;
        };
        let total = self.implicit_exit_total();
        tn.sync_implicit_all(total, |t| self.implicit_exit_count(t));
        tn.release(now, |_, msg| self.launch(msg, now));
        self.tenancy = Some(tn);
    }

    /// The tenancy runtime (ledgers, latency histograms, vNIC
    /// catalog), when the tenancy plane is engaged.
    #[must_use]
    pub fn tenancy(&self) -> Option<&TenancyRuntime> {
        self.tenancy.as_deref()
    }

    /// Per-tenant copy-level conservation identity (see
    /// [`TenantConservation`]): everything `tenant` submitted or the
    /// watchdog re-issued on its behalf is delivered, absorbed,
    /// dropped, or still pending. `None` when the tenancy plane is
    /// off or `tenant` has no vNIC. Meaningful once
    /// `is_quiescent() && faults_settled()`.
    #[must_use]
    pub fn tenant_conservation(&self, tenant: TenantId) -> Option<TenantConservation> {
        let mut c = self.tenancy.as_ref()?.conservation_base(tenant)?;
        // The same three sources as `implicit_exit_count`, by bucket.
        for (_, tile) in self.engine_tiles() {
            c.sched_drops += tile.queue_stats().dropped_of(tenant);
            c.flushed += tile.stats().flushed_of(tenant);
        }
        c.lost_noc = self.network.lost_of(tenant);
        Some(c)
    }
}
