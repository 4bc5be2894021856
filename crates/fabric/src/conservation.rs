//! Fleet-level counters and the fleet-wide copy-conservation report.

use panic_core::Conservation;

/// Fabric-level counters (link traffic only; per-NIC counters live in
/// each member's `NicStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Messages serialized onto a link.
    pub forwarded: u64,
    /// Messages handed to their destination NIC (`rx_remote` calls).
    pub delivered: u64,
    /// Delivered messages the destination could not route (its
    /// `rx_remote` returned false; also counted in that member's
    /// `unrouted`).
    pub rejected: u64,
    /// Messages dropped at the ToR: remote address past the member
    /// list, or no link between source and destination. The dynamic
    /// counterparts of the PV701/PV704 lints; a linted fabric never
    /// increments this.
    pub fabric_unrouted: u64,
    /// Exchange rounds where a member's egress head found its link's
    /// credit window full and the member stalled (head-of-line, by
    /// design: one uplink port per NIC).
    pub backpressured: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Cycles the whole fleet skipped at once (quiescent-fleet
    /// fast-forward, on top of each member's own `run_ff` skips).
    pub fleet_skipped: u64,
}

/// Fault-plane counters, all zero until the first event fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Plan events applied.
    pub events_fired: u64,
    /// Copies destroyed on a link by a flap or partition.
    pub lost_link: u64,
    /// Copies terminally absorbed by the host-fallback path.
    pub redirected: u64,
    /// Chains re-pointed from a crashed member to a replica.
    pub replica_rewrites: u64,
    /// Copies dispatched around a down link via an alternate path.
    pub reroutes: u64,
    /// Crossings whose first successful delivery needed a retransmit.
    pub recovered_by_retry: u64,
    /// Members that entered the Draining phase.
    pub member_crashes: u64,
    /// Members that came back Up.
    pub member_recoveries: u64,
}

impl ChaosStats {
    /// True once any fault has fired — the gate for chaos metrics and
    /// the chaos conservation terms appearing in exports.
    #[must_use]
    pub fn any(&self) -> bool {
        self.events_fired > 0
    }
}

/// Fleet-wide copy conservation: every member's per-NIC identity plus
/// the cross-NIC closure.
///
/// The per-NIC identity (see `panic_core::Conservation`)
/// treats `remote_tx` as a sink and `remote_rx` as a source, so each
/// member balances on its own. The *fabric* identity is what ties the
/// members together:
///
/// ```text
/// Σ remote_tx == Σ remote_rx + link_in_flight + egress_backlog
///              + fabric_unrouted
/// ```
///
/// — every copy handed to the fabric is either delivered into some
/// member (`remote_rx`), still on a link, still waiting in a
/// backpressured egress queue, or dropped at the ToR for want of a
/// route. [`FleetConservation::holds`] requires both levels.
///
/// With a fault plane armed the identity gains five terms — the
/// retransmit copies the hop ledgers create, and the fault-specific
/// fates a copy can meet:
///
/// ```text
/// Σ remote_tx + retries == Σ remote_rx + dup_suppressed
///                        + link_in_flight + egress_backlog + parked
///                        + lost_link + redirected + fabric_unrouted
/// ```
///
/// Every term is zero on a fault-free run, collapsing the identity
/// back to the fabric closure above. Both levels hold at *every
/// instant*, not just at quiescence — mid-flap, mid-drain, mid-retry:
/// the closure by the ToR's own counts, each per-NIC identity because
/// a copy on a member's mesh is in its store's `live` column.
#[derive(Debug, Clone)]
pub struct FleetConservation {
    /// Per-member conservation reports, by fabric index.
    pub per_nic: Vec<Conservation>,
    /// Sum of members' `remote_tx`.
    pub remote_tx: u64,
    /// Sum of members' `remote_rx`.
    pub remote_rx: u64,
    /// Copies currently on a link.
    pub link_in_flight: u64,
    /// Copies parked in members' fabric-egress queues.
    pub egress_backlog: u64,
    /// Copies dropped at the ToR (unroutable).
    pub fabric_unrouted: u64,
    /// Retransmit copies created by the hop ledgers (a source).
    pub retries: u64,
    /// Copies suppressed at delivery as duplicates of an
    /// already-delivered crossing.
    pub dup_suppressed: u64,
    /// Copies held by the ToR: parked for a down link / crashed
    /// member, or in transit between hops of a reroute.
    pub parked: u64,
    /// Copies destroyed on a link by a flap or partition.
    pub lost_link: u64,
    /// Copies terminally absorbed by the host-fallback path.
    pub redirected: u64,
}

impl FleetConservation {
    /// True when every member's identity holds *and* the cross-NIC
    /// closure balances.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.per_nic.iter().all(Conservation::holds)
            && self.remote_tx + self.retries
                == self.remote_rx
                    + self.dup_suppressed
                    + self.link_in_flight
                    + self.egress_backlog
                    + self.parked
                    + self.lost_link
                    + self.redirected
                    + self.fabric_unrouted
    }
}

impl std::fmt::Display for FleetConservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.per_nic.iter().enumerate() {
            writeln!(
                f,
                "nic{i}: {}",
                if c.holds() { "HOLDS" } else { "VIOLATED" }
            )?;
        }
        let chaos =
            self.retries + self.dup_suppressed + self.parked + self.lost_link + self.redirected;
        if chaos == 0 {
            writeln!(
                f,
                "fabric: remote_tx {} = remote_rx {} + on-link {} + backlog {} + unrouted {} [{}]",
                self.remote_tx,
                self.remote_rx,
                self.link_in_flight,
                self.egress_backlog,
                self.fabric_unrouted,
                if self.holds() { "HOLDS" } else { "VIOLATED" }
            )
        } else {
            writeln!(
                f,
                "fabric: remote_tx {} + retries {} = remote_rx {} + dup {} + on-link {} \
                 + backlog {} + parked {} + lost {} + redirected {} + unrouted {} [{}]",
                self.remote_tx,
                self.retries,
                self.remote_rx,
                self.dup_suppressed,
                self.link_in_flight,
                self.egress_backlog,
                self.parked,
                self.lost_link,
                self.redirected,
                self.fabric_unrouted,
                if self.holds() { "HOLDS" } else { "VIOLATED" }
            )
        }
    }
}
