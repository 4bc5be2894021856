//! The telemetry stream, pinned three ways.
//!
//! * **Differential oracle.** [`RefTelemetry`] is the algorithm the
//!   endpoint's change cursor replaced: export the whole NIC into a
//!   `MetricsRegistry`, keep the counters a subscription prefix
//!   matches, diff them against a map of the counters currently
//!   exported. A proptest drives random control sessions — every
//!   mutation, re-subscriptions, overlapping prefix sets, traffic on and
//!   off, the fault plane armed and not — through the real endpoint and
//!   the oracle side by side and requires identical telemetry bytes
//!   after every service step.
//! * **Goldens from the parent commit.** Two scripted sessions (`repro
//!   ctl`'s script and one pass of the benchmark's `ctl_churn` script)
//!   hash their whole response stream; the pinned values were recorded
//!   from the registry-building endpoint this PR's parent shipped.
//! * **The re-baseline rule**, the one place the stream intentionally
//!   differs from the parent's: a vNIC removed and added again starts
//!   from nothing, like a first `Subscribe` — and so does a vNIC that
//!   takes another's place within one service call, where names are
//!   all that differ.

mod common;

use std::collections::BTreeMap;

use common::{Rig, LATE, TENANT};
use faults::FaultPlan;
use packet::message::TenantId;
use panic_core::nic::PanicNic;
use panic_core::programs::chain_program;
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse, MetricUpdate};
use proptest::prelude::*;
use sim_core::time::Cycle;
use tenancy::{RateSpec, VNicSpec};
use trace::MetricsRegistry;

// ---------------------------------------------------------------------------
// The reference: what the endpoint did before the cursor
// ---------------------------------------------------------------------------

/// Full export → prefix filter → diff against the counters currently
/// exported. Slow (a registry per step) and obviously right.
#[derive(Default)]
struct RefTelemetry {
    subs: Vec<String>,
    last: BTreeMap<String, u64>,
}

impl RefTelemetry {
    fn subscribe(&mut self, prefixes: Vec<String>) {
        self.subs = prefixes;
        self.last.clear();
    }

    /// The telemetry frame one service step owes, if any.
    fn step(&mut self, nic: &PanicNic) -> Option<Vec<u8>> {
        if self.subs.is_empty() {
            return None;
        }
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        let mut updates = Vec::new();
        let mut live = BTreeMap::new();
        for (name, value) in m.counters() {
            if !self.subs.iter().any(|p| name.starts_with(p.as_str())) {
                continue;
            }
            let prev = self.last.get(name).copied();
            if prev != Some(value) {
                updates.push(MetricUpdate {
                    name: name.to_string(),
                    value,
                    delta: value.saturating_sub(prev.unwrap_or(0)),
                });
            }
            live.insert(name.to_string(), value);
        }
        // A counter that is no longer exported is forgotten.
        self.last = live;
        (!updates.is_empty())
            .then(|| CtrlFrame::response(0, 0, CtrlResponse::Telemetry { updates }).encode())
    }
}

// ---------------------------------------------------------------------------
// One controlled NIC, stepped a cycle at a time
// ---------------------------------------------------------------------------

struct Session {
    rig: Rig,
    ep: CtrlEndpoint,
    now: Cycle,
    next_seq: u32,
    /// Requests not yet answered.
    unanswered: usize,
    /// Subscriptions in flight: request seq → its prefixes.
    subscribes: BTreeMap<u32, Vec<String>>,
    oracle: RefTelemetry,
    /// Every response frame the endpoint emitted, in order.
    stream: Vec<Vec<u8>>,
}

impl Session {
    fn new(faults: Option<&str>) -> Session {
        let mut rig = common::rig();
        if let Some(plan) = faults {
            rig.nic
                .enable_faults(FaultPlan::parse(plan).expect("fault plan parses"));
        }
        let ep = CtrlEndpoint::new(rig.spec.clone());
        Session {
            rig,
            ep,
            now: Cycle(0),
            next_seq: 1,
            unanswered: 0,
            subscribes: BTreeMap::new(),
            oracle: RefTelemetry::default(),
            stream: Vec::new(),
        }
    }

    fn submit(&mut self, req: CtrlRequest) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unanswered += 1;
        if let CtrlRequest::Subscribe { prefixes } = &req {
            self.subscribes.insert(seq, prefixes.clone());
        }
        self.ep.submit(&CtrlFrame::request(0, seq, req).encode());
    }

    /// Offers one frame for `tenant` if its vNIC is admitting.
    fn inject(&mut self, tenant: TenantId) {
        if self.rig.nic.tenancy().is_some_and(|tn| tn.admits(tenant)) {
            self.rig.inject(tenant, self.now.0, self.now);
        }
    }

    /// Services the endpoint, checks the telemetry it emitted against
    /// the oracle's, then runs the cycle.
    fn step(&mut self) {
        self.ep.service(&mut self.rig.nic, self.now);
        let mut got = Vec::new();
        while let Some(raw) = self.ep.poll_response() {
            let frame = CtrlFrame::decode(&raw).expect("endpoint frames decode");
            match frame.body {
                CtrlBody::Response(CtrlResponse::Telemetry { .. }) => got.push(raw.clone()),
                CtrlBody::Response(resp) => {
                    self.unanswered -= 1;
                    // A subscription takes effect in the service step
                    // that answers it, before that step's telemetry.
                    if let Some(prefixes) = self.subscribes.remove(&frame.seq) {
                        assert!(matches!(resp, CtrlResponse::Ok { .. }));
                        self.oracle.subscribe(prefixes);
                    }
                }
                CtrlBody::Request(_) => panic!("endpoint emitted a request"),
            }
            self.stream.push(raw);
        }
        let want: Vec<Vec<u8>> = self.oracle.step(&self.rig.nic).into_iter().collect();
        assert!(
            got == want,
            "cycle {}: telemetry diverges from the reference\n got: {:?}\nwant: {:?}",
            self.now.0,
            telemetry_of(&got),
            telemetry_of(&want),
        );
        self.now = self.rig.tick(self.now);
    }

    /// Steps until the NIC is quiescent and every request is answered.
    fn drain(&mut self) {
        for _ in 0..100_000 {
            if self.rig.nic.is_quiescent() && self.unanswered == 0 {
                return;
            }
            self.step();
        }
        panic!("session failed to drain");
    }

    /// `(frames, fnv1a-64 over each frame's length and bytes)`.
    fn digest(&self) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for frame in &self.stream {
            eat(&(frame.len() as u32).to_le_bytes());
            eat(frame);
        }
        (self.stream.len(), h)
    }
}

/// The update lists of the telemetry frames among `frames`.
fn telemetry_of(frames: &[Vec<u8>]) -> Vec<Vec<MetricUpdate>> {
    frames
        .iter()
        .filter_map(|raw| match CtrlFrame::decode(raw).expect("decodes").body {
            CtrlBody::Response(CtrlResponse::Telemetry { updates }) => Some(updates),
            _ => None,
        })
        .collect()
}

fn subscribe(prefixes: &[&str]) -> CtrlRequest {
    CtrlRequest::Subscribe {
        prefixes: prefixes.iter().map(|p| (*p).to_string()).collect(),
    }
}

fn late_vnic() -> CtrlRequest {
    CtrlRequest::AddVnic(VNicSpec::new(LATE, "late-tenant", 4).credit_quota(16))
}

// ---------------------------------------------------------------------------
// Goldens recorded from the parent commit
// ---------------------------------------------------------------------------

/// Build-time tenant every 40 cycles, the live-added one every 60:
/// the load both scripted sessions run under.
fn offer_scripted_load(s: &mut Session) {
    let t = s.now.0;
    if t.is_multiple_of(40) {
        s.inject(TENANT);
    }
    if t % 60 == 7 {
        s.inject(LATE);
    }
}

/// `repro ctl`'s script: subscribe, add a vNIC, hot-swap the program,
/// rate-limit the new vNIC, try an over-pool quota (rejected).
#[test]
fn repro_ctl_script_stream_matches_the_parent() {
    let mut s = Session::new(None);
    let (eth, comp) = (s.rig.eth, s.rig.comp);
    for t in 0..12_000u64 {
        offer_scripted_load(&mut s);
        match t {
            2_000 => s.submit(subscribe(&["tenancy."])),
            4_000 => s.submit(late_vnic()),
            6_000 => s.submit(CtrlRequest::SwapProgram(chain_program(
                &[comp],
                eth,
                Some(5_000),
            ))),
            8_000 => s.submit(CtrlRequest::SetRate {
                tenant: LATE,
                rate: Some(RateSpec::per_cycles(1, 120, 2)),
            }),
            10_000 => s.submit(CtrlRequest::SetCreditQuota {
                tenant: TENANT,
                quota: 500,
            }),
            _ => {}
        }
        s.step();
    }
    s.drain();
    assert_eq!(s.digest(), REPRO_CTL_GOLDEN);
}

/// One pass of the benchmark's `ctl_churn` script: a `tenancy.`
/// subscription from cycle 0, then a request every 2,000 cycles.
#[test]
fn ctl_churn_pass_stream_matches_the_parent() {
    let mut s = Session::new(None);
    let (eth, comp) = (s.rig.eth, s.rig.comp);
    s.submit(subscribe(&["tenancy."]));
    for t in 0..14_000u64 {
        offer_scripted_load(&mut s);
        match t {
            2_000 => s.submit(CtrlRequest::SetRate {
                tenant: TENANT,
                rate: Some(RateSpec::per_cycles(1, 20, 4)),
            }),
            4_000 => s.submit(CtrlRequest::SetWeight {
                tenant: TENANT,
                weight: 4,
            }),
            6_000 => s.submit(late_vnic()),
            8_000 => s.submit(CtrlRequest::SwapProgram(chain_program(
                &[comp],
                eth,
                Some(5_000),
            ))),
            10_000 => s.submit(CtrlRequest::SetCreditQuota {
                tenant: TENANT,
                quota: 500,
            }),
            12_000 => s.submit(CtrlRequest::RemoveVnic { tenant: LATE }),
            _ => {}
        }
        s.step();
    }
    s.drain();
    assert_eq!(s.digest(), CTL_CHURN_GOLDEN);
}

/// `(response frames, fnv1a-64)` of the two sessions above, recorded
/// at commit 98fd5bc (the registry-per-step endpoint).
const REPRO_CTL_GOLDEN: (usize, u64) = (8_154, 4_975_378_337_929_459_323);
const CTL_CHURN_GOLDEN: (usize, u64) = (1_309, 6_195_913_883_480_495_865);

// ---------------------------------------------------------------------------
// The re-baseline rule
// ---------------------------------------------------------------------------

/// A removed vNIC's counters are forgotten: when the same vNIC comes
/// back, its first frame carries every counter — zeros included, each
/// with `delta == value` — exactly like the first frame after a
/// `Subscribe`, and nothing is diffed against the dead incarnation.
#[test]
fn removed_then_readded_vnic_is_baselined_in_full() {
    let mut s = Session::new(None);
    s.submit(subscribe(&["tenancy.late-tenant."]));
    s.submit(late_vnic());
    let added_at = s.stream.len();
    for t in 0..3_000u64 {
        if t % 50 == 0 {
            s.inject(LATE);
        }
        s.step();
    }
    let first_life = telemetry_of(&s.stream[added_at..]);
    let baseline: Vec<&str> = first_life[0].iter().map(|u| u.name.as_str()).collect();
    assert!(baseline.contains(&"tenancy.late-tenant.submitted"));
    assert!(baseline.contains(&"tenancy.late-tenant.host_fallback"));
    let carried = first_life
        .iter()
        .flatten()
        .any(|u| u.name == "tenancy.late-tenant.tx_wire" && u.value > 0);
    assert!(carried, "the first incarnation carried traffic");

    s.submit(CtrlRequest::RemoveVnic { tenant: LATE });
    s.drain();
    let removed_at = s.stream.len();
    for _ in 0..200 {
        s.step();
    }
    assert!(
        telemetry_of(&s.stream[removed_at..]).is_empty(),
        "a vNIC that is gone streams nothing"
    );

    s.submit(late_vnic());
    s.step();
    let second_life = telemetry_of(&s.stream[removed_at..]);
    let rebaseline = &second_life[0];
    let names: Vec<&str> = rebaseline.iter().map(|u| u.name.as_str()).collect();
    assert_eq!(names, baseline, "every counter again, in name order");
    assert!(rebaseline.iter().all(|u| u.value == 0 && u.delta == 0));
}

/// One vNIC replaces another inside a single `service` call: the
/// drained removal of a never-used vNIC finalises and the add of a
/// differently named one commits before that call's telemetry step.
/// The visit is then as long as it was and every value is what it was
/// (zero) — only the names differ, at equal length — so nothing but
/// comparing every name, whole, on every step notices. The newcomer is
/// baselined in full in that same step.
#[test]
fn a_vnic_replaced_within_one_service_call_is_baselined_in_that_step() {
    let successor = TenantId(3);
    let mut s = Session::new(None);
    s.submit(subscribe(&["tenancy."]));
    s.submit(CtrlRequest::AddVnic(
        VNicSpec::new(LATE, "vnic-x", 4).credit_quota(16),
    ));
    for _ in 0..5 {
        s.step();
    }
    // This step starts the drain; the vNIC is still exported.
    s.submit(CtrlRequest::RemoveVnic { tenant: LATE });
    s.step();
    assert_eq!(s.unanswered, 1, "the removal waits for the next service");

    let before = s.stream.len();
    s.submit(CtrlRequest::AddVnic(
        VNicSpec::new(successor, "vnic-y", 4).credit_quota(16),
    ));
    s.step();
    let step = &s.stream[before..];
    let bodies: Vec<CtrlBody> = step
        .iter()
        .map(|raw| CtrlFrame::decode(raw).expect("decodes").body)
        .collect();
    assert!(
        matches!(
            bodies[..],
            [
                CtrlBody::Response(CtrlResponse::Ok { .. }),
                CtrlBody::Response(CtrlResponse::Ok { .. }),
                CtrlBody::Response(CtrlResponse::Telemetry { .. }),
            ]
        ),
        "removal finalised, add committed, then telemetry: {bodies:?}"
    );
    let tn = s.rig.nic.tenancy().expect("tenancy plane");
    assert!(!tn.knows(LATE) && tn.knows(successor));

    let mut want: Vec<String> = tenancy::COUNTER_KEYS
        .iter()
        .filter(|key| !key.starts_with("remote_"))
        .map(|key| format!("tenancy.vnic-y.{key}"))
        .collect();
    want.sort();
    assert_eq!(want.len(), 15);
    let baseline = &telemetry_of(step)[0];
    let names: Vec<&str> = baseline.iter().map(|u| u.name.as_str()).collect();
    assert_eq!(names, want, "every counter of the newcomer, in name order");
    assert!(baseline.iter().all(|u| u.value == 0 && u.delta == 0));
}

// ---------------------------------------------------------------------------
// Differential proptest
// ---------------------------------------------------------------------------

/// Subscription prefix sets the random sessions draw from.
const PREFIX_SETS: &[&[&str]] = &[
    &[""],
    &["tenancy."],
    &["tenancy.victim-kvs."],
    &["nic."],
    &["noc."],
    &["engine.1"],
    &["perf.layer."],
    &["fault."],
    &["rmt.stage."],
    // Overlapping pairs, either order.
    &["tenancy.", "tenancy.victim-kvs.tx"],
    &["tenancy.victim-kvs.tx", "tenancy."],
    &["tenancy.late-tenant.", "engine.2.comp.sched.", "nic.r"],
    &["nic.", "noc.", "rmt.", "perf."],
    // Unsubscribe.
    &[],
];

/// vNIC names the sessions add under; the second repeats the
/// build-time vNIC's, so two vNICs export under one name.
const VNIC_NAMES: &[&str] = &["late-tenant", "victim-kvs", "b", "dotted.name"];

#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize),
    Add { tenant: u16, name: usize },
    Remove { tenant: u16 },
    Rate { tenant: u16, limited: bool },
    Weight { tenant: u16, weight: u64 },
    Swap { short: bool },
}

/// One random operation: re-subscriptions, adds and removes are
/// three times as likely as a parameter rewrite.
fn op() -> impl Strategy<Value = Op> {
    (0u8..13, 1u16..=3, 0usize..64, any::<bool>(), 1u64..=8).prop_map(
        |(kind, tenant, pick, flag, weight)| match kind {
            0..=2 => Op::Subscribe(pick % PREFIX_SETS.len()),
            3..=5 => Op::Add {
                tenant: tenant.max(2),
                name: pick % VNIC_NAMES.len(),
            },
            6..=8 => Op::Remove { tenant },
            9 => Op::Rate {
                tenant,
                limited: flag,
            },
            10 => Op::Weight { tenant, weight },
            _ => Op::Swap { short: flag },
        },
    )
}

fn request(op: &Op, rig: &Rig) -> CtrlRequest {
    match *op {
        Op::Subscribe(set) => subscribe(PREFIX_SETS[set]),
        Op::Add { tenant, name } => CtrlRequest::AddVnic(
            VNicSpec::new(TenantId(tenant), VNIC_NAMES[name], 4).credit_quota(16),
        ),
        Op::Remove { tenant } => CtrlRequest::RemoveVnic {
            tenant: TenantId(tenant),
        },
        Op::Rate { tenant, limited } => CtrlRequest::SetRate {
            tenant: TenantId(tenant),
            rate: limited.then(|| RateSpec::per_cycles(1, 30, 2)),
        },
        Op::Weight { tenant, weight } => CtrlRequest::SetWeight {
            tenant: TenantId(tenant),
            weight,
        },
        Op::Swap { short } => {
            let chain: &[_] = if short {
                &[rig.comp]
            } else {
                &[rig.crypto, rig.comp]
            };
            CtrlRequest::SwapProgram(chain_program(chain, rig.eth, Some(5_000)))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sessions: the endpoint's telemetry equals the
    /// reference's after every service step (asserted inside
    /// [`Session::step`]).
    #[test]
    fn telemetry_matches_the_reference(
        first in 0..PREFIX_SETS.len(),
        script in proptest::collection::vec((1u64..250, op()), 1..12),
        traffic in any::<bool>(),
        armed in any::<bool>(),
    ) {
        // The drop makes `noc.lost_messages` move and the stall holds
        // traffic in the ipsec queue; both only once armed.
        let mut s = Session::new(armed.then_some("drop:2@700,stall:1@400+300"));
        s.submit(subscribe(PREFIX_SETS[first]));
        let mut script = script.into_iter().peekable();
        let mut due = script.peek().map_or(0, |(gap, _)| *gap);
        let mut tail = 400;
        while tail > 0 {
            if traffic {
                for tenant in 1u16..=3 {
                    if s.now.0.is_multiple_of(31 + 13 * u64::from(tenant)) {
                        s.inject(TenantId(tenant));
                    }
                }
            }
            match script.peek() {
                Some((_, op)) if s.now.0 == due => {
                    let req = request(op, &s.rig);
                    s.submit(req);
                    script.next();
                    due += script.peek().map_or(0, |(gap, _)| *gap);
                }
                Some(_) => {}
                None => tail -= 1,
            }
            s.step();
        }
    }
}
