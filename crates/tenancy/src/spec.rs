//! Declarative virtual-NIC specs.
//!
//! A tenant's share of the NIC is described up front as plain data —
//! the same philosophy as `panic-verify`'s `NicSpec`: every field is
//! public so the static lints (PV601–PV605) can inspect the whole
//! tenancy configuration before a single queue exists. The runtime
//! ([`crate::runtime::TenancyRuntime`]) is built *from* a
//! [`TenancyConfig`] and never mutates it.

use packet::{EngineId, TenantId};

/// A token-bucket rate limit: `num / den` messages per cycle on
/// average, with up to `burst` messages of accumulated allowance.
///
/// The accumulator is kept in units of `1/den` messages: each cycle
/// adds `num`, a release costs `den`, and the balance is capped at
/// `burst * den`. All integer arithmetic, so stepped and
/// fast-forwarded runs replenish identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSpec {
    /// Numerator of the per-cycle message rate.
    pub num: u64,
    /// Denominator of the per-cycle message rate.
    pub den: u64,
    /// Maximum messages of stored allowance (token-bucket depth).
    pub burst: u64,
}

impl RateSpec {
    /// A `num/den` messages-per-cycle limit with `burst` messages of
    /// bucket depth.
    ///
    /// # Panics
    /// Panics if `num`, `den`, or `burst` is zero — a zero rate would
    /// park the tenant's queue forever, which is a configuration
    /// error, not a policy.
    #[must_use]
    pub fn per_cycles(num: u64, den: u64, burst: u64) -> RateSpec {
        assert!(num > 0, "zero-rate limit would never release");
        assert!(den > 0, "zero denominator");
        assert!(burst > 0, "zero burst can never accumulate a token");
        RateSpec { num, den, burst }
    }

    /// One message every `gap` cycles, burst 1 — the strictest shaping.
    ///
    /// # Panics
    /// Panics if `gap` is zero.
    #[must_use]
    pub fn one_per(gap: u64) -> RateSpec {
        RateSpec::per_cycles(1, gap, 1)
    }
}

/// One tenant's virtual NIC: its identity, its weight in the fair
/// scheduler, and the budgets enforced at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VNicSpec {
    /// The tenant this vNIC belongs to. Messages are steered into the
    /// tenancy plane by their [`packet::Message::tenant`] tag.
    pub tenant: TenantId,
    /// Human name, used in diagnostics, metrics, and trace tracks.
    pub name: String,
    /// Weight in the deficit-round-robin release scheduler and the
    /// start-time-fair rank spreading. Zero-weight tenants receive
    /// service only when no positive-weight tenant is backlogged.
    pub weight: u64,
    /// Optional ingress token-bucket rate limit. `None` = unshaped.
    pub rate: Option<RateSpec>,
    /// Maximum messages this tenant may have in flight inside the
    /// datapath at once (its slice of the shared buffer pool).
    pub credit_quota: u64,
    /// Engines this tenant is entitled to use. Empty = entitled to
    /// every engine on the NIC. Checked statically by lint PV604
    /// against [`VNicSpec::chains`].
    pub entitlements: Vec<EngineId>,
    /// The offload chains this tenant declares it will run, as engine
    /// hop lists. Purely declarative — used by PV604 and docs, not
    /// enforced per message at runtime.
    pub chains: Vec<Vec<EngineId>>,
}

impl VNicSpec {
    /// Longest vNIC name, in bytes. The name is part of every
    /// `tenancy.<name>.*` counter, and a counter name must fit the
    /// control wire's 16-bit string length with room to spare; the
    /// control decoder and lint PV605 both enforce this bound.
    pub const MAX_NAME_LEN: usize = 255;

    /// A vNIC for `tenant` with the common defaults: unshaped, a
    /// 16-message credit quota, entitled to every engine, no declared
    /// chains.
    #[must_use]
    pub fn new(tenant: TenantId, name: impl Into<String>, weight: u64) -> VNicSpec {
        VNicSpec {
            tenant,
            name: name.into(),
            weight,
            rate: None,
            credit_quota: 16,
            entitlements: Vec::new(),
            chains: Vec::new(),
        }
    }

    /// Sets the ingress rate limit.
    #[must_use]
    pub fn rate(mut self, rate: RateSpec) -> VNicSpec {
        self.rate = Some(rate);
        self
    }

    /// Sets the in-flight credit quota.
    #[must_use]
    pub fn credit_quota(mut self, quota: u64) -> VNicSpec {
        self.credit_quota = quota;
        self
    }

    /// Restricts the tenant to `engines` (replacing any previous
    /// entitlement list).
    #[must_use]
    pub fn entitled_to(mut self, engines: impl IntoIterator<Item = EngineId>) -> VNicSpec {
        self.entitlements = engines.into_iter().collect();
        self
    }

    /// Declares an offload chain this tenant runs.
    #[must_use]
    pub fn chain(mut self, hops: impl IntoIterator<Item = EngineId>) -> VNicSpec {
        self.chains.push(hops.into_iter().collect());
        self
    }

    /// True if this tenant may use `engine` (empty entitlement list
    /// means "all engines").
    #[must_use]
    pub fn entitled(&self, engine: EngineId) -> bool {
        self.entitlements.is_empty() || self.entitlements.contains(&engine)
    }
}

/// The whole tenancy plane, as data: every vNIC plus the shared
/// budgets they compete for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenancyConfig {
    /// All virtual NICs. Order is irrelevant; the runtime schedules by
    /// deficit round robin over backlogged tenants.
    pub vnics: Vec<VNicSpec>,
    /// Total in-flight messages the shared buffer pool admits across
    /// *all* tenants. Individual quotas carve this up; lint PV603
    /// flags a quota larger than the pool.
    pub shared_credits: u64,
    /// Deficit-round-robin quantum in bytes per weight unit per cycle.
    pub quantum_bytes: u64,
}

impl TenancyConfig {
    /// A config over `vnics` with the reference shared budgets:
    /// 64 in-flight credits and a 2048-byte DRR quantum.
    #[must_use]
    pub fn new(vnics: Vec<VNicSpec>) -> TenancyConfig {
        TenancyConfig {
            vnics,
            shared_credits: 64,
            quantum_bytes: 2048,
        }
    }

    /// Sets the shared in-flight credit pool.
    #[must_use]
    pub fn shared_credits(mut self, credits: u64) -> TenancyConfig {
        self.shared_credits = credits;
        self
    }

    /// Sets the DRR quantum.
    #[must_use]
    pub fn quantum_bytes(mut self, bytes: u64) -> TenancyConfig {
        self.quantum_bytes = bytes;
        self
    }

    /// Looks up the vNIC for `tenant`.
    #[must_use]
    pub fn vnic(&self, tenant: TenantId) -> Option<&VNicSpec> {
        self.vnics.iter().find(|v| v.tenant == tenant)
    }

    /// Sum of all tenant weights.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.vnics.iter().map(|v| v.weight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vnic_defaults() {
        let v = VNicSpec::new(TenantId(1), "victim", 3);
        assert_eq!(v.tenant, TenantId(1));
        assert_eq!(v.weight, 3);
        assert_eq!(v.credit_quota, 16);
        assert!(v.rate.is_none());
        assert!(v.entitled(EngineId(42)), "empty entitlement = all");
    }

    #[test]
    fn entitlement_restriction() {
        let v = VNicSpec::new(TenantId(2), "t", 1).entitled_to([EngineId(1), EngineId(2)]);
        assert!(v.entitled(EngineId(1)));
        assert!(!v.entitled(EngineId(3)));
    }

    #[test]
    fn chain_builder_accumulates() {
        let v = VNicSpec::new(TenantId(0), "t", 1)
            .chain([EngineId(1), EngineId(2)])
            .chain([EngineId(3)]);
        assert_eq!(v.chains.len(), 2);
        assert_eq!(v.chains[0], vec![EngineId(1), EngineId(2)]);
    }

    #[test]
    fn config_lookup_and_weight() {
        let c = TenancyConfig::new(vec![
            VNicSpec::new(TenantId(0), "a", 2),
            VNicSpec::new(TenantId(1), "b", 6),
        ])
        .shared_credits(32);
        assert_eq!(c.shared_credits, 32);
        assert_eq!(c.total_weight(), 8);
        assert_eq!(c.vnic(TenantId(1)).unwrap().name, "b");
        assert!(c.vnic(TenantId(9)).is_none());
    }

    #[test]
    fn rate_spec_constructors() {
        let r = RateSpec::one_per(8);
        assert_eq!(r, RateSpec::per_cycles(1, 8, 1));
    }

    #[test]
    #[should_panic(expected = "zero-rate")]
    fn zero_rate_rejected() {
        let _ = RateSpec::per_cycles(0, 8, 1);
    }
}
