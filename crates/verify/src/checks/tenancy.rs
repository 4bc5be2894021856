//! `PV6xx` — tenancy-plane checks.
//!
//! These lints run only when the spec carries a tenancy configuration
//! ([`crate::NicSpec::tenancy`] is `Some`): an untenanted NIC has no
//! vNIC catalog to get wrong.
//!
//! * **PV601** (Error): two virtual NICs claim the same tenant id. The
//!   runtime keeps the first and silently ignores the rest, so the
//!   second vNIC's weight/quota/rate would never take effect.
//! * **PV602** (Error): every vNIC weight is zero. The weighted-fair
//!   scheduler divides bandwidth proportionally to weights; with no
//!   positive share anywhere the DRR loop would only ever run its
//!   zero-weight scavenger path and the "weighted" in weighted-fair is
//!   dead configuration.
//! * **PV603**: a single vNIC's credit quota exceeds the shared buffer
//!   pool (Error — that tenant can *never* use its full quota, so the
//!   quota is a lie), or the quotas together oversubscribe the pool
//!   (Info — statistical multiplexing is legitimate, but worth knowing
//!   before reading an isolation experiment).
//! * **PV604** (Error): a vNIC's declared offload chain references an
//!   engine the tenant is not entitled to, or — when the engine list
//!   is known — an engine that does not exist on the mesh. Entitlement
//!   is the tenancy plane's capability model: an empty entitlement
//!   list means "all engines", otherwise every chain hop must appear
//!   in it.
//! * **PV605** (Error): a vNIC's name is longer than
//!   [`VNicSpec::MAX_NAME_LEN`] bytes. The name is embedded in every
//!   `tenancy.<name>.*` counter, and the control wire carries counter
//!   names behind a 16-bit length; the control decoder refuses such a
//!   name with the same bound, so offline lint and online admission
//!   agree.

use std::collections::BTreeSet;

use packet::TenantId;
use tenancy::VNicSpec;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::spec::NicSpec;

/// Runs the `PV6xx` tenancy checks. No-op without a tenancy config.
#[must_use]
pub fn check_tenancy(spec: &NicSpec) -> Vec<Diagnostic> {
    let Some(tc) = &spec.tenancy else {
        return Vec::new();
    };
    let mut diags = Vec::new();

    // PV601: duplicate tenant ids.
    let mut seen: BTreeSet<TenantId> = BTreeSet::new();
    for v in &tc.vnics {
        if !seen.insert(v.tenant) {
            diags.push(Diagnostic::new(
                Code::PV601,
                Severity::Error,
                Span::at("tenancy", v.name.clone()),
                format!(
                    "vNIC '{}' reuses tenant id {}: the runtime keeps the \
                     first vNIC with that id and ignores this one",
                    v.name, v.tenant.0
                ),
            ));
        }
    }

    // PV602: no positive weight anywhere.
    if !tc.vnics.is_empty() && tc.total_weight() == 0 {
        diags.push(Diagnostic::new(
            Code::PV602,
            Severity::Error,
            Span::at("tenancy", "weights"),
            format!(
                "all {} vNIC weights are zero: the weighted-fair scheduler \
                 has no shares to divide",
                tc.vnics.len()
            ),
        ));
    }

    // PV603: quota vs shared pool.
    let mut quota_sum = 0u64;
    for v in &tc.vnics {
        quota_sum = quota_sum.saturating_add(v.credit_quota);
        if v.credit_quota > tc.shared_credits {
            diags.push(Diagnostic::new(
                Code::PV603,
                Severity::Error,
                Span::at("tenancy", v.name.clone()),
                format!(
                    "vNIC '{}' credit quota ({}) exceeds the shared buffer \
                     pool ({}): the quota can never be fully used",
                    v.name, v.credit_quota, tc.shared_credits
                ),
            ));
        }
    }
    if quota_sum > tc.shared_credits && !tc.vnics.iter().any(|v| v.credit_quota > tc.shared_credits)
    {
        diags.push(Diagnostic::new(
            Code::PV603,
            Severity::Info,
            Span::at("tenancy", "credits"),
            format!(
                "vNIC credit quotas sum to {} against a shared pool of {}: \
                 quotas are statistically multiplexed, not reserved",
                quota_sum, tc.shared_credits
            ),
        ));
    }

    // PV604: chain hops vs entitlements (and existence, when known).
    let engines_known = !spec.engines.is_empty();
    for v in &tc.vnics {
        for (ci, chain) in v.chains.iter().enumerate() {
            for &hop in chain {
                // Remote hops resolve on another fabric member; the
                // fabric-level PV701/PV704 checks own their validity.
                if hop.is_remote() {
                    continue;
                }
                if engines_known && spec.engine(hop).is_none() {
                    diags.push(Diagnostic::new(
                        Code::PV604,
                        Severity::Error,
                        Span::at("tenancy", v.name.clone()),
                        format!(
                            "vNIC '{}' chain #{ci} references engine {} which \
                             does not exist on the mesh",
                            v.name, hop.0
                        ),
                    ));
                } else if !v.entitled(hop) {
                    diags.push(Diagnostic::new(
                        Code::PV604,
                        Severity::Error,
                        Span::at("tenancy", v.name.clone()),
                        format!(
                            "vNIC '{}' chain #{ci} routes through engine {} \
                             but the tenant is not entitled to it",
                            v.name, hop.0
                        ),
                    ));
                }
            }
        }
    }

    // PV605: names that cannot be carried in a telemetry frame.
    for v in &tc.vnics {
        if v.name.len() > VNicSpec::MAX_NAME_LEN {
            // The span and message quote a prefix: the finding itself
            // must stay small enough to ship.
            let head: String = v.name.chars().take(32).collect();
            diags.push(Diagnostic::new(
                Code::PV605,
                Severity::Error,
                Span::at("tenancy", format!("{head}…")),
                format!(
                    "vNIC '{head}…' (tenant {}) has a {}-byte name; the limit \
                     is {} bytes",
                    v.tenant.0,
                    v.name.len(),
                    VNicSpec::MAX_NAME_LEN
                ),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::Topology;
    use packet::{EngineClass, EngineId};
    use tenancy::{TenancyConfig, VNicSpec};

    use crate::spec::EngineSpec;

    fn spec_with(tc: TenancyConfig) -> NicSpec {
        let mut spec = NicSpec::new(Topology::mesh(4, 4));
        for (i, name) in ["crc", "aes", "kvs"].iter().enumerate() {
            spec.engines.push(EngineSpec::new(
                EngineId(i as u16),
                *name,
                EngineClass::Asic,
            ));
        }
        spec.tenancy = Some(tc);
        spec
    }

    fn clean_config() -> TenancyConfig {
        TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "alpha", 3).credit_quota(8),
            VNicSpec::new(TenantId(2), "beta", 1).credit_quota(8),
        ])
    }

    #[test]
    fn no_tenancy_means_no_findings() {
        let spec = NicSpec::new(Topology::mesh(4, 4));
        assert!(check_tenancy(&spec).is_empty());
    }

    #[test]
    fn clean_config_passes() {
        let diags = check_tenancy(&spec_with(clean_config()));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pv601_flags_duplicate_tenant_ids() {
        let tc = TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "alpha", 3),
            VNicSpec::new(TenantId(1), "impostor", 1),
        ]);
        let diags = check_tenancy(&spec_with(tc));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV601);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(
            diags[0].message.contains("impostor"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn pv602_flags_all_zero_weights() {
        let tc = TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "a", 0),
            VNicSpec::new(TenantId(2), "b", 0),
        ]);
        let diags = check_tenancy(&spec_with(tc));
        assert!(diags.iter().any(|d| d.code == Code::PV602), "{diags:?}");
        // One positive weight is enough.
        let tc = TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "a", 1),
            VNicSpec::new(TenantId(2), "b", 0),
        ]);
        assert!(!check_tenancy(&spec_with(tc))
            .iter()
            .any(|d| d.code == Code::PV602));
    }

    #[test]
    fn pv603_errors_on_unusable_quota_and_notes_oversubscription() {
        // Quota above the whole pool: Error.
        let tc = clean_config().shared_credits(4);
        let diags = check_tenancy(&spec_with(tc));
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::PV603 && d.severity == Severity::Error),
            "{diags:?}"
        );
        // Quotas individually fine but oversubscribed in sum: Info.
        let tc = clean_config().shared_credits(10);
        let diags = check_tenancy(&spec_with(tc));
        let pv603: Vec<_> = diags.iter().filter(|d| d.code == Code::PV603).collect();
        assert_eq!(pv603.len(), 1, "{diags:?}");
        assert_eq!(pv603[0].severity, Severity::Info);
    }

    #[test]
    fn pv605_flags_names_beyond_the_limit_only() {
        let named =
            |len: usize| TenancyConfig::new(vec![VNicSpec::new(TenantId(1), "n".repeat(len), 1)]);
        assert!(check_tenancy(&spec_with(named(VNicSpec::MAX_NAME_LEN))).is_empty());
        let diags = check_tenancy(&spec_with(named(VNicSpec::MAX_NAME_LEN + 1)));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV605);
        assert_eq!(diags[0].severity, Severity::Error);
        // The finding quotes a prefix of the name, not all of it.
        assert!(diags[0].message.len() < 200, "{}", diags[0].message);
    }

    #[test]
    fn pv604_flags_unentitled_and_missing_chain_hops() {
        // Chain through an engine outside the entitlement set.
        let tc = TenancyConfig::new(vec![VNicSpec::new(TenantId(1), "alpha", 1)
            .entitled_to([EngineId(0)])
            .chain([EngineId(0), EngineId(1)])]);
        let diags = check_tenancy(&spec_with(tc));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV604);
        assert!(
            diags[0].message.contains("not entitled"),
            "{}",
            diags[0].message
        );
        // Chain through a nonexistent engine.
        let tc = TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "alpha", 1).chain([EngineId(99)])
        ]);
        let diags = check_tenancy(&spec_with(tc));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV604);
        assert!(
            diags[0].message.contains("does not exist"),
            "{}",
            diags[0].message
        );
        // Empty entitlements mean "all engines".
        let tc = TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "alpha", 1).chain([EngineId(0), EngineId(2)])
        ]);
        assert!(check_tenancy(&spec_with(tc)).is_empty());
    }
}
