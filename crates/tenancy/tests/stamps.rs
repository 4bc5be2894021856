//! The change stamps against what the runtime exports.
//!
//! Seeded sequences of every `&mut` method of [`TenancyRuntime`] run on
//! one to four vNICs, with and without rates and tight quotas. After
//! each call the runtime is exported into a [`MetricsRegistry`] and two
//! rules are checked against the export before the call:
//!
//! * a counter whose value changed means the counter stamp moved;
//! * a counter name that appeared or disappeared means the name stamp
//!   moved.
//!
//! A coverage tally makes sure every bump site had to carry a change on
//! its own at least once — a release that only stalled on a token, one
//! that only stalled on a credit, a first crossing each way, a
//! finalised removal, a skipped rate-blocked window — so deleting any
//! single bump fails here. The test prints how often each stamp moved
//! with nothing exported changing.

use std::collections::BTreeMap;

use bytes::Bytes;
use packet::message::{Message, MessageId, MessageKind, TenantId};
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles};
use tenancy::{ExitKind, RateSpec, Stamps, SubmitSource, TenancyConfig, TenancyRuntime, VNicSpec};
use trace::{MetricsRegistry, Tracer};

/// Tenant ids the sequences use; the last never gets a vNIC.
const IDS: [u16; 5] = [1, 2, 3, 4, 9];

/// Every exported counter, by name.
fn exported(rt: &TenancyRuntime) -> BTreeMap<String, u64> {
    let mut m = MetricsRegistry::new();
    rt.export_metrics(&mut m);
    m.counters().map(|(n, v)| (n.to_string(), v)).collect()
}

fn spec(rng: &mut SimRng, tenant: u16) -> VNicSpec {
    let mut v = VNicSpec::new(TenantId(tenant), format!("v{tenant}"), rng.gen_range(4))
        .credit_quota(1 + rng.gen_range(4));
    if rng.gen_bool(0.5) {
        v = v.rate(RateSpec::per_cycles(
            1,
            2 + rng.gen_range(12),
            1 + rng.gen_range(2),
        ));
    }
    v
}

/// What the sequences made happen, to show each bump was needed.
#[derive(Debug, Default)]
struct Seen {
    /// Calls per method, by name.
    calls: BTreeMap<&'static str, u64>,
    /// Releases whose only exported change was a `rate_stalls` tick.
    rate_stall_only: u64,
    /// Releases whose only exported change was a `credit_stalls` tick.
    credit_stall_only: u64,
    /// Releases with a backlog that changed nothing exported (a
    /// deficit wait, or a zero-weight tenant behind a paying one).
    silent_waits: u64,
    /// First crossings through `note_exit(Remote)` / `note_remote_rx`.
    first_remote_tx: u64,
    first_remote_rx: u64,
    /// Removals that finalised.
    finalised: u64,
    /// Skips over a backlog (rate-blocked) / over an idle plane.
    skipped_backlogged: u64,
    skipped_idle: u64,
    /// Implicit syncs that moved a count / found the total unmoved.
    implicit_moved: u64,
    implicit_unmoved_total: u64,
    /// Calls after which a stamp moved although no exported name or
    /// value changed, and all calls.
    spurious_counters: u64,
    spurious_names: u64,
    ops: u64,
}

impl Seen {
    fn call(&mut self, name: &'static str) {
        *self.calls.entry(name).or_default() += 1;
    }
}

/// One seeded sequence of `ops` calls.
fn run(seed: u64, ops: u64, seen: &mut Seen) {
    let mut rng = SimRng::new(seed).derive("stamps");
    let vnics = 1 + rng.gen_range(4) as usize;
    let config = TenancyConfig::new(IDS[..vnics].iter().map(|&t| spec(&mut rng, t)).collect())
        .shared_credits(2 + rng.gen_range(8))
        .quantum_bytes(if rng.gen_bool(0.5) { 64 } else { 1_600 });
    let mut rt = TenancyRuntime::new(config);
    // Component-side implicit exits per tenant id, and their total.
    let mut implicit: BTreeMap<TenantId, u64> = BTreeMap::new();
    let mut total = 0u64;
    // The total at the last `sync_implicit_all`.
    let mut synced_total = 0u64;
    let mut now = 0u64;
    let mut id = 0u64;

    let mut before = exported(&rt);
    let mut stamps = rt.stamps();
    for _ in 0..ops {
        let tenant = TenantId(*rng.choose(&IDS).expect("ids"));
        let known = rt.knows(tenant);
        let backlogged = rt.pending_total() > 0;
        let ledger = |rt: &TenancyRuntime| rt.ledger(tenant).copied().unwrap_or_default();
        let crossed_before = {
            let l = ledger(&rt);
            l.remote_tx + l.remote_rx > 0
        };
        let mut release = false;
        match rng.gen_range(17) {
            0..=3 => {
                if rt.admits(tenant) {
                    let source = if rng.gen_bool(0.5) {
                        SubmitSource::Rx
                    } else {
                        SubmitSource::Injected
                    };
                    id += 1;
                    let msg = Message::builder(MessageId(id), MessageKind::EthernetFrame)
                        .tenant(tenant)
                        .payload(Bytes::from(vec![0u8; 40 + rng.gen_range(400) as usize]))
                        .build();
                    rt.submit(source, msg, Cycle(now));
                    seen.call("submit");
                }
            }
            4..=6 => {
                rt.release(Cycle(now), |_, _| {});
                now += 1;
                release = true;
                seen.call("release");
            }
            7 | 8 => {
                // The eight reported exits; the losses are reconciled.
                let kind = *rng.choose(&ExitKind::ALL[..8]).expect("kinds");
                let latency = rng.gen_bool(0.5).then_some(Cycles(rng.gen_range(100)));
                rt.note_exit(tenant, kind, latency);
                if known && kind == ExitKind::Remote && !crossed_before {
                    seen.first_remote_tx += 1;
                }
                seen.call("note_exit");
            }
            9 => {
                if rng.gen_bool(0.5) {
                    rt.note_remote_rx(tenant);
                    if known && !crossed_before {
                        seen.first_remote_rx += 1;
                    }
                    seen.call("note_remote_rx");
                } else {
                    rt.note_reissued(tenant);
                    seen.call("note_reissued");
                }
            }
            10 => {
                // Components destroy a copy now and then.
                if rng.gen_bool(0.5) {
                    *implicit.entry(tenant).or_default() += 1;
                    total += 1;
                }
                let count = |t: TenantId| implicit.get(&t).copied().unwrap_or(0);
                let before_exits = ledger(&rt).implicit_exits;
                if rng.gen_bool(0.5) {
                    rt.sync_implicit(tenant, count(tenant));
                    seen.call("sync_implicit");
                } else {
                    if total == synced_total {
                        seen.implicit_unmoved_total += 1;
                    }
                    rt.sync_implicit_all(total, count);
                    synced_total = total;
                    seen.call("sync_implicit_all");
                }
                if ledger(&rt).implicit_exits != before_exits {
                    seen.implicit_moved += 1;
                }
            }
            11 => {
                // The fast-forward contract: skip only what the hint
                // says cannot release.
                if now > 0 {
                    let target = match rt.next_activity(Cycle(now - 1)) {
                        Some(wake) => wake.0,
                        None => now + 1 + rng.gen_range(40),
                    };
                    if target > now {
                        rt.skip_idle(Cycle(now), Cycle(target));
                        now = target;
                        if backlogged {
                            seen.skipped_backlogged += 1;
                        } else {
                            seen.skipped_idle += 1;
                        }
                        seen.call("skip_idle");
                    }
                }
            }
            12 => {
                if !known && tenant != TenantId(9) {
                    let baseline = implicit.get(&tenant).copied().unwrap_or(0);
                    assert!(rt.add_vnic(spec(&mut rng, tenant.0), baseline));
                    seen.call("add_vnic");
                }
            }
            13 => {
                if rt.removal_drained(tenant) {
                    assert!(rt.finalize_remove(tenant));
                    seen.finalised += 1;
                    seen.call("finalize_remove");
                } else if rng.gen_bool(0.3) {
                    rt.begin_remove(tenant);
                    seen.call("begin_remove");
                }
            }
            14 => {
                let rate = rng
                    .gen_bool(0.5)
                    .then(|| RateSpec::per_cycles(1, 2 + rng.gen_range(12), 1));
                rt.set_rate(tenant, rate);
                seen.call("set_rate");
            }
            15 => {
                if rng.gen_bool(0.5) {
                    rt.set_weight(tenant, rng.gen_range(4));
                    seen.call("set_weight");
                } else {
                    rt.set_credit_quota(tenant, 1 + rng.gen_range(4));
                    seen.call("set_credit_quota");
                }
            }
            _ => {
                let tracer = if rng.gen_bool(0.5) {
                    Tracer::ring(64)
                } else {
                    Tracer::disabled()
                };
                rt.attach_tracer(&tracer);
                seen.call("attach_tracer");
            }
        }

        let after = exported(&rt);
        let moved: Stamps = rt.stamps();
        let names_changed = !before.keys().eq(after.keys());
        let value_changed: Vec<&str> = before
            .iter()
            .filter(|(name, value)| after.get(*name).is_some_and(|v| v != *value))
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(
            value_changed.is_empty() || moved.counters != stamps.counters,
            "seed {seed}: {value_changed:?} changed but the counter stamp stood"
        );
        assert!(
            !names_changed || moved.names != stamps.names,
            "seed {seed}: the exported names changed but the name stamp stood"
        );
        assert!(
            moved.counters >= stamps.counters && moved.names >= stamps.names,
            "seed {seed}: a stamp went backwards"
        );
        let unchanged = value_changed.is_empty() && !names_changed;
        if moved.counters != stamps.counters && unchanged {
            seen.spurious_counters += 1;
        }
        if moved.names != stamps.names && unchanged {
            seen.spurious_names += 1;
        }
        if release && !names_changed {
            let changed: Vec<&str> = value_changed
                .iter()
                .map(|n| n.rsplit('.').next().expect("a key"))
                .collect();
            match changed[..] {
                ["rate_stalls"] => seen.rate_stall_only += 1,
                ["credit_stalls"] => seen.credit_stall_only += 1,
                [] if backlogged => seen.silent_waits += 1,
                _ => {}
            }
        }
        seen.ops += 1;
        before = after;
        stamps = moved;
    }
}

#[test]
fn every_exported_change_moves_its_stamp() {
    let mut seen = Seen::default();
    for seed in 0..300 {
        run(seed, 400, &mut seen);
    }
    eprintln!("{seen:#?}");
    for method in [
        "submit",
        "release",
        "note_exit",
        "note_remote_rx",
        "note_reissued",
        "sync_implicit",
        "sync_implicit_all",
        "skip_idle",
        "add_vnic",
        "begin_remove",
        "finalize_remove",
        "set_rate",
        "set_weight",
        "set_credit_quota",
        "attach_tracer",
    ] {
        assert!(seen.calls.get(method) > Some(&0), "{method} never ran");
    }
    // Each bump site carried a change alone at least once.
    assert!(seen.rate_stall_only > 0, "no release only rate-stalled");
    assert!(seen.credit_stall_only > 0, "no release only credit-stalled");
    assert!(
        seen.silent_waits > 0,
        "no backlogged release waited silently"
    );
    assert!(seen.first_remote_tx > 0 && seen.first_remote_rx > 0);
    assert!(seen.finalised > 0, "no removal finalised");
    assert!(seen.skipped_backlogged > 0 && seen.skipped_idle > 0);
    assert!(seen.implicit_moved > 0 && seen.implicit_unmoved_total > 0);
}
