//! [`FabricBuilder`]: declares members, links and the fault plane,
//! lints the result, and builds the [`Fabric`].

use packet::EngineId;
use panic_core::NicBuilder;
use panic_verify::{verify_fabric, FabricSpec, LinkSpec, Report};

use crate::driver::NicDriver;
use crate::fleet::{Fabric, Member};
use crate::tor::Tor;

/// Engine signature used for replica matching: members with equal
/// signatures are interchangeable redirect targets.
pub(crate) type MemberSig = std::collections::BTreeSet<(u16, String)>;

/// Builds a [`Fabric`] the way `NicBuilder` builds a `PanicNic`:
/// declaratively, with a lint gate before anything is constructed.
#[derive(Default)]
pub struct FabricBuilder {
    members: Vec<(NicBuilder, EngineId)>,
    drivers: Vec<Option<Box<dyn NicDriver>>>,
    links: Vec<LinkSpec>,
    faults: Option<faults::FabricFaultConfig>,
}

impl std::fmt::Debug for FabricBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricBuilder")
            .field("members", &self.members.len())
            .field("links", &self.links)
            .finish_non_exhaustive()
    }
}

impl FabricBuilder {
    /// An empty fabric.
    #[must_use]
    pub fn new() -> FabricBuilder {
        FabricBuilder::default()
    }

    /// Adds a member NIC; `uplink` is the tile (typically the MAC
    /// engine) where inter-NIC arrivals enter its mesh. Returns the
    /// member's fabric index — the address remote hops carry.
    pub fn member(&mut self, nic: NicBuilder, uplink: EngineId) -> usize {
        self.members.push((nic, uplink));
        self.drivers.push(None);
        self.members.len() - 1
    }

    /// Attaches a deterministic workload driver to `member`.
    ///
    /// # Panics
    /// Panics on an out-of-range member index.
    pub fn driver(&mut self, member: usize, driver: Box<dyn NicDriver>) {
        self.drivers[member] = Some(driver);
    }

    /// Declares one directed link.
    pub fn link(&mut self, spec: LinkSpec) {
        self.links.push(spec);
    }

    /// Arms the fabric fault plane: crossings are tracked in their
    /// origin's hop ledger and `Fabric::chaos_stats` reports. An empty
    /// plan still arms it, which the golden tests use to prove the
    /// armed-but-idle fabric is byte-identical to an unarmed one.
    pub fn fault_plane(&mut self, config: faults::FabricFaultConfig) {
        self.faults = Some(config);
    }

    /// Declares the pair of links `a → b` and `b → a`, both carrying
    /// `template`'s latency/rate/credits.
    pub fn link_pair(&mut self, a: usize, b: usize, template: LinkSpec) {
        self.links.push(LinkSpec {
            from: a,
            to: b,
            ..template
        });
        self.links.push(LinkSpec {
            from: b,
            to: a,
            ..template
        });
    }

    /// Extracts the plain-data spec the `PV7xx` checks lint.
    #[must_use]
    pub fn to_spec(&self) -> FabricSpec {
        FabricSpec {
            members: self.members.iter().map(|(b, _)| b.to_spec()).collect(),
            links: self.links.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Lints the configuration ([`verify_fabric`]) without building.
    #[must_use]
    pub fn validate(&self) -> Report {
        verify_fabric(&self.to_spec())
    }

    /// Builds the fabric, statically verifying first.
    ///
    /// # Panics
    /// Panics if the verifier finds an error-severity diagnostic (any
    /// member-level `PVxxx`, or a fabric-level `PV701`/`PV702`/`PV704`),
    /// or if a member's uplink tile does not exist.
    #[must_use]
    pub fn build(self) -> Fabric {
        let report = self.validate();
        assert!(
            report.error_count() == 0,
            "fabric configuration failed verification:\n{}",
            report.render_human()
        );
        for (i, (b, uplink)) in self.members.iter().enumerate() {
            assert!(
                b.to_spec().engine(*uplink).is_some(),
                "member {i}'s uplink {uplink} is not one of its tiles"
            );
        }
        self.build_unvalidated()
    }

    /// Builds without the lint gate — the escape hatch for tests that
    /// construct deliberately broken racks.
    #[must_use]
    pub fn build_unvalidated(self) -> Fabric {
        let FabricBuilder {
            members,
            drivers,
            links,
            faults,
        } = self;
        // Engine signatures for replica matching: members with equal
        // signatures are interchangeable crash-failover targets.
        let sigs: Vec<MemberSig> = members
            .iter()
            .map(|(b, _)| {
                b.to_spec()
                    .engines
                    .iter()
                    .map(|e| (e.id.0, format!("{:?}/{}", e.class, e.name)))
                    .collect()
            })
            .collect();
        let members: Vec<Member> = members
            .into_iter()
            .zip(drivers)
            .enumerate()
            .map(|(i, ((builder, uplink), driver))| {
                let mut nic = builder.build_unvalidated();
                nic.set_fabric_index(i);
                if i > 0 {
                    // Fleet-unique message ids; member 0 keeps base 0
                    // so a 1-NIC fabric is byte-identical to bare.
                    nic.set_msg_id_base((i as u64) << 48);
                }
                Member {
                    nic,
                    uplink,
                    driver,
                }
            })
            .collect();
        Fabric::new(members, Tor::new(links, faults, sigs))
    }
}
