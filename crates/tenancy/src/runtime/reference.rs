//! The walk-every-vNIC bookkeeping [`TenancyRuntime`] replaced, kept
//! as the oracle of a differential test.
//!
//! The `ref_*` methods are the previous bodies (with the shared-pool
//! return fixed the same way): they sum, refill, accrue and reconcile
//! over *all* configured tenants and read none of the state the
//! runtime now maintains on the side (`pending`, `shaped`,
//! `implicit_seen`; `active` only where the old code read it too). The
//! DRR round itself ([`TenancyRuntime::serve`]) never walked idle
//! tenants and is shared. The proptest below drives one runtime through
//! the production entry points and a twin through the `ref_*` ones with
//! the same seeded script, and compares everything observable — and the
//! private accumulators — after every step.

use bytes::Bytes;
use packet::{MessageId, MessageKind};
use proptest::prelude::*;
use sim_core::rng::SimRng;
use trace::MetricsRegistry;

use super::*;
use crate::spec::{RateSpec, VNicSpec};

impl TenancyRuntime {
    fn ref_pending_total(&self) -> u64 {
        self.tenants.values().map(|s| s.pending.len() as u64).sum()
    }

    fn ref_release(&mut self, now: Cycle, emit: impl FnMut(TenantId, Message)) {
        for state in self.tenants.values_mut() {
            if let Some(r) = state.spec.rate {
                state.tokens = (state.tokens + r.num).min(r.burst * r.den);
            }
        }
        self.serve(now, emit);
    }

    /// Ungated: asks `cumulative_of` for every tenant, every time.
    fn ref_sync_implicit_all(&mut self, mut cumulative_of: impl FnMut(TenantId) -> u64) {
        let mut shared_returned = 0u64;
        for (&t, state) in &mut self.tenants {
            let cumulative = cumulative_of(t);
            let delta = cumulative.saturating_sub(state.ledger.implicit_exits);
            if delta > 0 {
                state.ledger.implicit_exits = cumulative;
                shared_returned += delta.min(state.credits_in_use);
                state.credits_in_use = state.credits_in_use.saturating_sub(delta);
            }
        }
        self.shared_in_use -= shared_returned;
    }

    fn ref_next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        for state in self.tenants.values() {
            if state.pending.is_empty() {
                continue;
            }
            let candidate = match state.spec.rate {
                Some(r) if state.tokens < r.den => {
                    let missing = r.den - state.tokens;
                    Cycle(now.0 + missing.div_ceil(r.num)).max(now.next())
                }
                _ => now.next(),
            };
            best = Some(best.map_or(candidate, |b| b.min(candidate)));
        }
        best
    }

    fn ref_skip_idle(&mut self, from: Cycle, to: Cycle) {
        let cycles = to.0.saturating_sub(from.0);
        if cycles == 0 {
            return;
        }
        let any_positive_backlogged = self.active.iter().any(|t| self.tenants[t].spec.weight > 0);
        let quantum = self.config.quantum_bytes;
        for state in self.tenants.values_mut() {
            if let Some(r) = state.spec.rate {
                state.tokens = (state.tokens + r.num * cycles).min(r.burst * r.den);
            }
            if !state.pending.is_empty() {
                let grant = state.grant(quantum, any_positive_backlogged);
                state.deficit =
                    (state.deficit + grant * cycles).min(grant + DEFICIT_HEADROOM_BYTES);
                state.ledger.rate_stalls += cycles;
            }
        }
    }

    /// Everything a tenant's state holds that a later step can depend
    /// on, for the side-by-side comparison.
    fn private_state(&self) -> Vec<(TenantId, [u64; 7])> {
        self.tenants
            .iter()
            .map(|(&t, s)| {
                let flags = u64::from(s.in_active) | u64::from(s.draining) << 1;
                (
                    t,
                    [
                        s.tokens,
                        s.deficit,
                        s.vtime,
                        s.credits_in_use,
                        s.pending.len() as u64,
                        s.spec.weight,
                        flags,
                    ],
                )
            })
            .collect()
    }
}

/// Tenant ids the script draws from; vNICs come and go among them, so
/// every `note_*` and implicit exit also hits ids without a vNIC.
const IDS: u64 = 12;

const EXIT_KINDS: [ExitKind; 8] = [
    ExitKind::Wire,
    ExitKind::Host,
    ExitKind::HostFallback,
    ExitKind::Consumed,
    ExitKind::Control,
    ExitKind::Unrouted,
    ExitKind::Duplicate,
    ExitKind::Remote,
];

fn tenant(rng: &mut SimRng) -> TenantId {
    TenantId(1 + rng.gen_range(IDS) as u16)
}

fn rate(rng: &mut SimRng) -> RateSpec {
    RateSpec::per_cycles(
        1 + rng.gen_range(3),
        1 + rng.gen_range(24),
        1 + rng.gen_range(3),
    )
}

fn vnic(rng: &mut SimRng, t: TenantId) -> VNicSpec {
    let spec =
        VNicSpec::new(t, format!("t{}", t.0), rng.gen_range(4)).credit_quota(1 + rng.gen_range(4));
    if rng.gen_range(3) == 0 {
        spec.rate(rate(rng))
    } else {
        spec
    }
}

/// The two runtimes plus the component stats a NIC would hold: the
/// per-tenant implicit-exit counts and the scalar total beside them.
struct Pair {
    new: TenancyRuntime,
    old: TenancyRuntime,
    cumulative: BTreeMap<TenantId, u64>,
    total: u64,
    /// `total` at the last reconciliation, to tell when the gate may
    /// not ask a single tenant.
    synced_total: u64,
    now: Cycle,
    next_id: u64,
}

impl Pair {
    fn random(rng: &mut SimRng) -> Pair {
        let mut vnics = Vec::new();
        for t in (1..=IDS as u16).map(TenantId) {
            if rng.gen_range(2) == 0 {
                vnics.push(vnic(rng, t));
            }
        }
        // A shared pool small enough to bind now and then.
        let config = TenancyConfig::new(vnics)
            .shared_credits(1 + rng.gen_range(8))
            .quantum_bytes(64 << rng.gen_range(4));
        Pair {
            new: TenancyRuntime::new(config.clone()),
            old: TenancyRuntime::new(config),
            cumulative: BTreeMap::new(),
            total: 0,
            synced_total: 0,
            now: Cycle(0),
            next_id: 0,
        }
    }

    /// One NIC tick of the tenancy plane: reconcile, then release.
    fn tick(&mut self) {
        self.now = self.now.next();
        let cumulative = &self.cumulative;
        let of = |t: TenantId| cumulative.get(&t).copied().unwrap_or(0);
        let mut asked = 0u32;
        self.new.sync_implicit_all(self.total, |t| {
            asked += 1;
            of(t)
        });
        self.old.ref_sync_implicit_all(of);
        if self.total == self.synced_total {
            prop_assert_eq!(asked, 0, "gate walked with an unmoved total");
        }
        self.synced_total = self.total;
        let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
        self.new.release(self.now, |t, m| new_out.push((t, m.id)));
        self.old
            .ref_release(self.now, |t, m| old_out.push((t, m.id)));
        prop_assert_eq!(new_out, old_out, "release order at {:?}", self.now);
    }

    /// Jumps over part of the window the hint allows, as a
    /// fast-forwarding driver would after the tick at `now`.
    fn skip(&mut self, rng: &mut SimRng) {
        let from = self.now.next();
        let limit = self
            .new
            .next_activity(self.now)
            .map_or(from.0 + 64, |hint| hint.0);
        if limit > from.0 {
            let to = Cycle(from.0 + 1 + rng.gen_range(limit - from.0));
            self.new.skip_idle(from, to);
            self.old.ref_skip_idle(from, to);
            self.now = Cycle(to.0 - 1);
        }
    }

    fn perturb(&mut self, rng: &mut SimRng) {
        let t = tenant(rng);
        match rng.gen_range(16) {
            0..=3 => {
                if self.new.admits(t) {
                    self.next_id += 1;
                    let msg = Message::builder(MessageId(self.next_id), MessageKind::EthernetFrame)
                        .tenant(t)
                        .payload(Bytes::from(vec![0u8; 32 << rng.gen_range(4)]))
                        .build();
                    let source =
                        [SubmitSource::Rx, SubmitSource::Injected][rng.gen_range(2) as usize];
                    self.new.submit(source, msg.clone(), self.now);
                    self.old.submit(source, msg, self.now);
                }
            }
            4..=6 => {
                let kind = EXIT_KINDS[rng.gen_range(EXIT_KINDS.len() as u64) as usize];
                let latency = (rng.gen_range(2) == 0).then(|| Cycles(rng.gen_range(500)));
                self.new.note_exit(t, kind, latency);
                self.old.note_exit(t, kind, latency);
            }
            7 => {
                self.new.note_remote_rx(t);
                self.old.note_remote_rx(t);
            }
            8 => {
                self.new.note_reissued(t);
                self.old.note_reissued(t);
            }
            9 => {
                // A component destroys copies: per-tenant count and
                // scalar total move at the same site.
                let n = 1 + rng.gen_range(3);
                *self.cumulative.entry(t).or_insert(0) += n;
                self.total += n;
            }
            10 => {
                let spec = vnic(rng, t);
                let baseline = self.cumulative.get(&t).copied().unwrap_or(0);
                let added = self.new.add_vnic(spec.clone(), baseline);
                assert_eq!(added, self.old.add_vnic(spec, baseline));
            }
            11 => {
                assert_eq!(self.new.begin_remove(t), self.old.begin_remove(t));
            }
            12 => {
                let r = match rng.gen_range(3) {
                    0 => None,
                    // A cut: same rate, the shallowest bucket.
                    1 => self
                        .new
                        .config()
                        .vnic(t)
                        .and_then(|v| v.rate)
                        .map(|r| RateSpec { burst: 1, ..r }),
                    _ => Some(rate(rng)),
                };
                assert_eq!(self.new.set_rate(t, r), self.old.set_rate(t, r));
            }
            13 => {
                let w = rng.gen_range(4);
                assert_eq!(self.new.set_weight(t, w), self.old.set_weight(t, w));
            }
            14 => {
                let q = rng.gen_range(5);
                assert_eq!(
                    self.new.set_credit_quota(t, q),
                    self.old.set_credit_quota(t, q)
                );
            }
            _ => self.skip(rng),
        }
        // The management plane finalizes a removal as soon as it drains.
        for t in (1..=IDS as u16).map(TenantId) {
            assert_eq!(self.new.finalize_remove(t), self.old.finalize_remove(t));
        }
    }

    fn compare(&self) {
        let (new, old) = (&self.new, &self.old);
        prop_assert_eq!(new.next_activity(self.now), old.ref_next_activity(self.now));
        prop_assert_eq!(new.pending_total(), old.ref_pending_total());
        prop_assert_eq!(new.shared_in_use(), old.shared_in_use());
        prop_assert_eq!(
            new.shared_in_use(),
            new.tenants.values().map(|s| s.credits_in_use).sum::<u64>(),
            "shared pool out of step with the tenants' credits"
        );
        prop_assert_eq!(
            new.tenants().collect::<Vec<_>>(),
            old.tenants().collect::<Vec<_>>()
        );
        for t in new.tenants() {
            prop_assert_eq!(new.ledger(t), old.ledger(t), "ledger of {:?}", t);
        }
        prop_assert_eq!(new.private_state(), old.private_state());
        let (mut a, mut b) = (MetricsRegistry::new(), MetricsRegistry::new());
        new.export_metrics(&mut a);
        old.export_metrics(&mut b);
        prop_assert_eq!(a.to_json(), b.to_json());
        // Last, so a stale list that also changes behaviour fails above.
        let mut shaped = new.shaped.clone();
        shaped.sort_unstable();
        let rated: Vec<TenantId> = new
            .tenants
            .iter()
            .filter_map(|(&t, s)| s.spec.rate.map(|_| t))
            .collect();
        prop_assert_eq!(shaped, rated, "shaped list out of step");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Through any script of traffic, exits, losses, live vNIC
    /// mutations and fast-forward jumps, the O(backlogged) runtime and
    /// the walk-everything one it replaced release the same messages
    /// in the same order and keep the same books.
    #[test]
    fn runtime_matches_the_walk_everything_oracle(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut pair = Pair::random(&mut rng);
        for _ in 0..256 {
            if rng.gen_range(3) == 0 {
                pair.tick();
            } else {
                pair.perturb(&mut rng);
            }
            pair.compare();
        }
    }
}
