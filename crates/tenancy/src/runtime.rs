//! The tenancy enforcement engine.
//!
//! [`TenancyRuntime`] sits between the NIC's ingress (Ethernet ports,
//! host injection) and the shared datapath. Every tenant the
//! configuration [knows](TenancyRuntime::knows) gets a virtual NIC:
//!
//! 1. **Backpressure, not drops.** [`TenancyRuntime::submit`] parks
//!    the message in the tenant's unbounded vNIC queue. The tenancy
//!    plane never discards a message — an over-budget tenant's queue
//!    simply grows, which is exactly the backpressure a real vNIC
//!    applies to its driver.
//! 2. **Release, once per cycle.** [`TenancyRuntime::release`] walks
//!    the backlogged tenants in deficit-round-robin order. A head
//!    message is released into the datapath only when (a) the token
//!    bucket has a full token (rate limit), (b) both the tenant quota
//!    and the shared pool have a free credit (admission), and (c) the
//!    DRR deficit covers its wire bytes (weighted fairness). Released
//!    messages pass through a [`sched::Pifo`] ranked by start-time
//!    fair queueing virtual times, so the *order* they enter the NoC
//!    within a cycle is itself weighted-fair ("rank spreading").
//! 3. **Credits return at exits.** The NIC shell reports every
//!    terminal event ([`TenancyRuntime::note_exit`] for explicit
//!    egress/consumption, [`TenancyRuntime::sync_implicit_all`] for
//!    fault-plane drops/flushes/losses it discovers in component
//!    stats), which frees the credit and feeds the per-tenant ledger
//!    and latency histograms.
//!
//! A vNIC with no backlog and no new loss costs nothing per cycle:
//! the release round, the fast-forward hint and the skip replay walk
//! the backlogged tenants (`active`), refills walk the rate-limited
//! ones (`shaped`), [`TenancyRuntime::pending_total`] is a maintained
//! count, and the implicit-exit reconciliation walks every tenant only
//! on a cycle where the components' total moved. The walk-everything
//! versions live on in `runtime/reference.rs` as a test oracle.
//!
//! Two [`Stamps`] tell a reader of the exported counters whether it
//! needs to look: the counter stamp moves with every change to a
//! counter's value, the name stamp with every change to the list of
//! exported names. The control endpoint's telemetry step reads them
//! before it visits (`docs/TENANCY.md` lists every site that bumps
//! each).
//!
//! The per-tenant ledger closes a conservation identity
//! ([`TenantConservation`]) extending the fault plane's copy-level
//! invariant, and the runtime implements the
//! `next_activity`/`skip_idle` fast-forward contract so tenancy-on
//! runs can still skip idle windows byte-identically (`docs/PERF.md`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use packet::{Message, TenantId};
use sched::Pifo;
use sim_core::{Cycle, Cycles, Histogram};
use trace::{MetricSink, Tracer, TrackId};

use crate::spec::{TenancyConfig, VNicSpec};

/// Extra deficit a tenant may bank beyond one cycle's grant — enough
/// for a jumbo frame, so a large head-of-line message can always
/// eventually clear the deficit gate.
const DEFICIT_HEADROOM_BYTES: u64 = 16_384;

/// The counter keys a vNIC exports, in export order: vNIC `web` reports
/// them as `tenancy.web.<key>` (`docs/TENANCY.md` "Observability" says
/// what each one counts). `remote_tx` and `remote_rx` appear only once
/// the vNIC has seen a fabric crossing.
pub const COUNTER_KEYS: [&str; 17] = [
    "submitted",
    "released",
    "reissued",
    "tx_wire",
    "host",
    "host_fallback",
    "consumed",
    "control",
    "unrouted",
    "duplicates",
    "remote_tx",
    "remote_rx",
    "implicit_exits",
    "rate_stalls",
    "credit_stalls",
    "pending",
    "credits_in_use",
];

/// Positions of `remote_tx` and `remote_rx` in [`COUNTER_KEYS`].
const REMOTE_KEYS: std::ops::Range<usize> = 10..12;

/// One vNIC's full counter names, `tenancy.<vnic>.<key>` for every
/// entry of [`COUNTER_KEYS`], built once when the vNIC is created so
/// that exporting its counters formats nothing.
#[derive(Debug)]
struct CounterNames {
    /// The names back to back, in [`COUNTER_KEYS`] order.
    buf: Box<str>,
    /// Where each name ends in `buf`. `u32`: the runtime takes any
    /// name, lint PV605's 255-byte cap is not enforced here.
    ends: [u32; COUNTER_KEYS.len()],
}

impl CounterNames {
    fn new(vnic: &str) -> CounterNames {
        let prefix = "tenancy.".len() + vnic.len() + ".".len();
        let keys: usize = COUNTER_KEYS.iter().map(|key| key.len()).sum();
        // Sized exactly: one allocation a vNIC.
        let mut buf = String::with_capacity(COUNTER_KEYS.len() * prefix + keys);
        let ends = COUNTER_KEYS.map(|key| {
            buf.extend(["tenancy.", vnic, ".", key]);
            u32::try_from(buf.len()).expect("a vNIC's counter names fit 4 GiB")
        });
        CounterNames {
            buf: buf.into_boxed_str(),
            ends,
        }
    }

    /// The names, in [`COUNTER_KEYS`] order.
    fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let name = &self.buf[start..end as usize];
            start = end as usize;
            name
        })
    }
}

/// Change counters over what [`TenancyRuntime::export_metrics`]
/// exports. Each only ever grows; equal stamps read from one runtime at
/// two moments mean nothing of that kind changed in between.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stamps {
    /// Moves with every change to an exported counter's value.
    pub counters: u64,
    /// Moves with every change to the list of exported counter names
    /// (a vNIC added or removed, a vNIC's first fabric crossing).
    pub names: u64,
}

/// Where a submitted message came from, for the ledger's source side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitSource {
    /// Arrived on an Ethernet port (`rx_frame`).
    Rx,
    /// Injected internally (host descriptor / scenario injection).
    Injected,
}

/// A terminal event for one in-flight message copy, reported by the
/// NIC shell when the copy leaves the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Egressed to the wire.
    Wire,
    /// Delivered to the host.
    Host,
    /// Failed over to host fallback (fault plane).
    HostFallback,
    /// Consumed by an engine (e.g. KVS cache hit absorbed on-NIC).
    Consumed,
    /// A control/descriptor completion.
    Control,
    /// Dead-lettered: no route for the message.
    Unrouted,
    /// A duplicate copy suppressed at egress (watchdog reissue raced
    /// the original). Does **not** return a credit: the surviving
    /// copy's exit already did.
    Duplicate,
    /// Handed to the rack fabric: the current chain hop addresses an
    /// engine on another NIC, so this NIC's books close on the copy
    /// here (the destination member owns it from the link onward —
    /// see docs/FABRIC.md). Returns the credit like a wire exit.
    Remote,
}

/// Cumulative per-tenant event counts — the tenancy plane's half of
/// the conservation identity. All fields count *message copies*, like
/// the fault plane's ledger.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantLedger {
    /// Submitted from an Ethernet port.
    pub submitted_rx: u64,
    /// Submitted by internal injection.
    pub submitted_injected: u64,
    /// Released from the vNIC queue into the shared datapath.
    pub released: u64,
    /// Extra copies created by watchdog reissue.
    pub reissued: u64,
    /// Exited to the wire.
    pub tx_wire: u64,
    /// Exited to the host.
    pub host: u64,
    /// Exited via host fallback.
    pub host_fallback: u64,
    /// Consumed on-NIC.
    pub consumed: u64,
    /// Control completions.
    pub control: u64,
    /// Dead-lettered (unroutable).
    pub unrouted: u64,
    /// Duplicate copies suppressed at egress.
    pub duplicates: u64,
    /// Exited toward another NIC over the rack fabric.
    pub remote_tx: u64,
    /// Copies that *entered* this NIC over the rack fabric (a source,
    /// like `submitted`; no credit is charged — admission happened at
    /// the tenant's home NIC).
    pub remote_rx: u64,
    /// Implicit exits discovered in component stats (scheduler drops +
    /// tile flushes + NoC losses), synced by the NIC shell.
    pub implicit_exits: u64,
    /// Cycles a backlogged head was blocked by the rate limiter.
    pub rate_stalls: u64,
    /// Cycles a backlogged head was blocked waiting for a credit.
    pub credit_stalls: u64,
}

impl TenantLedger {
    /// Total submissions (both sources).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted_rx + self.submitted_injected
    }

    /// True once the tenant saw a fabric crossing, either way: from
    /// then on its `remote_*` counters are exported.
    fn crossed(&self) -> bool {
        self.remote_tx > 0 || self.remote_rx > 0
    }
}

/// The per-tenant conservation identity, assembled by the NIC shell
/// from the tenancy ledger plus the per-tenant drop/flush/loss
/// attribution in component stats:
///
/// ```text
/// submitted + reissued + remote_rx ==
///     tx_wire + host + host_fallback + consumed + control + unrouted
///   + duplicates + sched_drops + flushed + lost_noc + remote_tx
///   + pending
/// ```
///
/// `remote_rx`/`remote_tx` count fabric crossings (always zero on a
/// standalone NIC); summed across every member of a rack, the
/// per-member identities compose into one fleet-wide per-tenant
/// identity because each crossing appears once as a sink on the
/// sending NIC and once as a source on the receiving one.
///
/// Evaluate after the NIC has drained (`is_quiescent`): messages still
/// inside the datapath are otherwise unaccounted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConservation {
    /// Which tenant.
    pub tenant: TenantId,
    /// The tenant's vNIC name.
    pub name: String,
    /// Messages submitted to the vNIC (rx + injected).
    pub submitted: u64,
    /// Extra copies created by watchdog reissue.
    pub reissued: u64,
    /// Exited to the wire.
    pub tx_wire: u64,
    /// Delivered to the host.
    pub host: u64,
    /// Failed over to the host.
    pub host_fallback: u64,
    /// Consumed on-NIC.
    pub consumed: u64,
    /// Control completions.
    pub control: u64,
    /// Dead-lettered.
    pub unrouted: u64,
    /// Duplicate copies suppressed at egress.
    pub duplicates: u64,
    /// Exited toward another NIC over the rack fabric.
    pub remote_tx: u64,
    /// Entered this NIC over the rack fabric.
    pub remote_rx: u64,
    /// Dropped by engine scheduling queues (per-tenant attribution).
    pub sched_drops: u64,
    /// Flushed from downed engine tiles.
    pub flushed: u64,
    /// Lost in the NoC under fault injection.
    pub lost_noc: u64,
    /// Still parked in the vNIC queue.
    pub pending: u64,
}

impl TenantConservation {
    /// Source side of the identity.
    #[must_use]
    pub fn sources(&self) -> u64 {
        self.submitted + self.reissued + self.remote_rx
    }

    /// Sink side of the identity (including still-pending holds).
    #[must_use]
    pub fn sinks(&self) -> u64 {
        self.tx_wire
            + self.host
            + self.host_fallback
            + self.consumed
            + self.control
            + self.unrouted
            + self.duplicates
            + self.remote_tx
            + self.sched_drops
            + self.flushed
            + self.lost_noc
            + self.pending
    }

    /// True when every submitted copy is accounted for.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.sources() == self.sinks()
    }
}

impl fmt::Display for TenantConservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tenant {} ({}): {}",
            self.tenant.0,
            self.name,
            if self.holds() { "HOLDS" } else { "VIOLATED" }
        )?;
        writeln!(
            f,
            "  sources {} = submitted {} + reissued {} + remote_rx {}",
            self.sources(),
            self.submitted,
            self.reissued,
            self.remote_rx
        )?;
        write!(
            f,
            "  sinks   {} = wire {} + host {} + fallback {} + consumed {} + control {} \
             + unrouted {} + dup {} + remote_tx {} + sched_drops {} + flushed {} \
             + lost_noc {} + pending {}",
            self.sinks(),
            self.tx_wire,
            self.host,
            self.host_fallback,
            self.consumed,
            self.control,
            self.unrouted,
            self.duplicates,
            self.remote_tx,
            self.sched_drops,
            self.flushed,
            self.lost_noc,
            self.pending
        )
    }
}

/// Per-tenant live state: the vNIC queue plus every enforcement
/// accumulator.
#[derive(Debug)]
struct TenantState {
    spec: VNicSpec,
    /// True once a live removal began: the vNIC stops admitting new
    /// traffic but keeps draining its queue and settling in-flight
    /// credits until [`TenancyRuntime::removal_drained`] holds.
    draining: bool,
    /// Parked messages with their submission cycle (for queue-wait
    /// accounting). Unbounded: backpressure, never drop.
    pending: VecDeque<(Cycle, Message)>,
    /// True while this tenant is queued in the DRR active list.
    in_active: bool,
    /// Token-bucket balance in `1/den`-message units.
    tokens: u64,
    /// DRR deficit in bytes.
    deficit: u64,
    /// Start-time-fair virtual time.
    vtime: u64,
    /// Credits (in-flight messages) currently charged to this tenant.
    credits_in_use: u64,
    ledger: TenantLedger,
    /// End-to-end latency of exited messages (injection to exit).
    latency: Histogram,
    /// Cycles spent parked in the vNIC queue before release.
    queue_wait: Histogram,
    track: TrackId,
    /// The counter names of `spec.name`, which never changes.
    names: CounterNames,
}

impl TenantState {
    fn new(spec: VNicSpec) -> TenantState {
        // Token buckets start full so an idle-start tenant is not
        // penalized for cycles before its first message.
        let tokens = spec.rate.map_or(0, |r| r.burst * r.den);
        TenantState {
            names: CounterNames::new(&spec.name),
            spec,
            draining: false,
            pending: VecDeque::new(),
            in_active: false,
            tokens,
            deficit: 0,
            vtime: 0,
            credits_in_use: 0,
            ledger: TenantLedger::default(),
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            track: TrackId(0),
        }
    }

    /// What each of [`COUNTER_KEYS`] reads right now, in that order.
    fn counter_values(&self) -> [u64; COUNTER_KEYS.len()] {
        let l = &self.ledger;
        [
            l.submitted(),
            l.released,
            l.reissued,
            l.tx_wire,
            l.host,
            l.host_fallback,
            l.consumed,
            l.control,
            l.unrouted,
            l.duplicates,
            l.remote_tx,
            l.remote_rx,
            l.implicit_exits,
            l.rate_stalls,
            l.credit_stalls,
            self.pending.len() as u64,
            self.credits_in_use,
        ]
    }

    /// This cycle's deficit grant. Zero-weight tenants are served only
    /// when no positive-weight tenant is backlogged.
    fn grant(&self, quantum_bytes: u64, any_positive_backlogged: bool) -> u64 {
        if self.spec.weight > 0 {
            quantum_bytes * self.spec.weight
        } else if any_positive_backlogged {
            0
        } else {
            quantum_bytes
        }
    }

    /// `cycles` worth of token-bucket refill, capped at the bucket
    /// depth. A no-op for an unshaped tenant, which is why only the
    /// runtime's `shaped` list is ever asked.
    fn refill(&mut self, cycles: u64) {
        if let Some(r) = self.spec.rate {
            self.tokens = (self.tokens + r.num * cycles).min(r.burst * r.den);
        }
    }

    /// Replays `cycles` worth of a *backlogged* tenant's per-tick
    /// accrual (DRR grant, stall accounting) without releasing
    /// anything. Only valid while the tenant could not have released —
    /// the fast-forward hint guarantees that.
    fn accrue_backlogged(
        &mut self,
        cycles: u64,
        quantum_bytes: u64,
        any_positive_backlogged: bool,
    ) {
        debug_assert!(!self.pending.is_empty(), "accrual for an idle tenant");
        debug_assert!(
            self.spec.rate.is_some(),
            "skip window with a backlogged, unshaped tenant (hint bug)"
        );
        let grant = self.grant(quantum_bytes, any_positive_backlogged);
        self.deficit = (self.deficit + grant * cycles).min(grant + DEFICIT_HEADROOM_BYTES);
        self.ledger.rate_stalls += cycles;
    }

    /// The earliest cycle after `now` at which this *backlogged*
    /// tenant's head could release: a purely rate-blocked head yields
    /// its token-refill wake-up, anything else is "next cycle".
    fn wake(&self, now: Cycle) -> Cycle {
        match self.spec.rate {
            Some(r) if self.tokens < r.den => {
                // First cycle whose refill brings the balance to a
                // full token. Credits can only free up while some
                // other component is active, and active components
                // pin the merged hint to `now + 1` themselves.
                let missing = r.den - self.tokens;
                Cycle(now.0 + missing.div_ceil(r.num)).max(now.next())
            }
            _ => now.next(),
        }
    }

    /// Returns up to `n` credits; the count actually given back is
    /// what the caller owes the shared pool. Saturating: under fault
    /// plans a lost original plus an exiting reissue can both try to
    /// return the same credit, and a copy that entered over the fabric
    /// never charged one here.
    fn return_credits(&mut self, n: u64) -> u64 {
        let returned = n.min(self.credits_in_use);
        self.credits_in_use -= returned;
        returned
    }

    /// Brings the ledger up to a *cumulative* implicit-exit count and
    /// returns the credits the new exits gave back; `None` when there
    /// were no new exits.
    fn reconcile_implicit(&mut self, cumulative: u64) -> Option<u64> {
        let delta = cumulative.saturating_sub(self.ledger.implicit_exits);
        if delta == 0 {
            return None;
        }
        self.ledger.implicit_exits = cumulative;
        Some(self.return_credits(delta))
    }
}

/// The live tenancy plane. Construct from a validated
/// [`TenancyConfig`]; drive with [`submit`](TenancyRuntime::submit) /
/// [`release`](TenancyRuntime::release) /
/// [`note_exit`](TenancyRuntime::note_exit).
#[derive(Debug)]
pub struct TenancyRuntime {
    config: TenancyConfig,
    tenants: BTreeMap<TenantId, TenantState>,
    /// Backlogged tenants in DRR visit order. Between `release` calls
    /// this is exactly the set of tenants with a non-empty queue, so
    /// the hint and the skip replay walk it instead of `tenants`.
    active: VecDeque<TenantId>,
    /// Tenants with a token-bucket rate, in no particular order: the
    /// only ones a refill can change (kept by `new` / `add_vnic` /
    /// `finalize_remove` / `set_rate`).
    shaped: Vec<TenantId>,
    /// Messages parked across all vNIC queues (`Σ pending.len()`).
    pending: u64,
    /// Shared-pool credits currently in use: always `Σ credits_in_use`.
    shared_in_use: u64,
    /// The component-wide implicit-exit total at the last
    /// reconciliation walk ([`TenancyRuntime::sync_implicit_all`]).
    implicit_seen: u64,
    /// Global virtual time: the rank of the last message popped from
    /// the spreading PIFO.
    vnow: u64,
    /// Rank-spreading PIFO; always drained by the end of `release`.
    pifo: Pifo<(TenantId, Message)>,
    tracer: Tracer,
    /// Bumped wherever an exported counter or name changes.
    stamps: Stamps,
}

// The entries of the vNIC queues and of the spreading PIFO, each moved
// once in and once out per admitted message: at most 128 bytes, the
// largest move LLVM does inline on baseline x86-64 rather than through a
// `memcpy` call (see the pin in `packet::message`).
const _: () = assert!(std::mem::size_of::<(Cycle, Message)>() <= 128);
const _: () = assert!(std::mem::size_of::<Option<(TenantId, Message)>>() <= 128);

impl TenancyRuntime {
    /// Builds the runtime. Duplicate tenant ids (lint PV601) keep the
    /// first vNIC and ignore the rest, deterministically.
    #[must_use]
    pub fn new(config: TenancyConfig) -> TenancyRuntime {
        let mut tenants = BTreeMap::new();
        for vnic in &config.vnics {
            tenants
                .entry(vnic.tenant)
                .or_insert_with(|| TenantState::new(vnic.clone()));
        }
        let shaped = tenants
            .iter()
            .filter_map(|(&t, s)| s.spec.rate.map(|_| t))
            .collect();
        TenancyRuntime {
            config,
            tenants,
            active: VecDeque::new(),
            shaped,
            pending: 0,
            shared_in_use: 0,
            implicit_seen: 0,
            vnow: 0,
            pifo: Pifo::new(),
            tracer: Tracer::disabled(),
            stamps: Stamps::default(),
        }
    }

    /// The configuration this runtime enforces.
    #[must_use]
    pub fn config(&self) -> &TenancyConfig {
        &self.config
    }

    /// True when `tenant` has a vNIC here. Messages from unknown
    /// tenants bypass the tenancy plane entirely.
    #[must_use]
    pub fn knows(&self, tenant: TenantId) -> bool {
        self.tenants.contains_key(&tenant)
    }

    /// True when `tenant` should be *steered into* the tenancy plane
    /// at ingress: it has a vNIC and that vNIC is not draining toward
    /// removal. Accounting paths ([`TenancyRuntime::note_exit`] etc.)
    /// deliberately keep using [`TenancyRuntime::knows`]-style lookups
    /// so in-flight copies of a draining tenant still settle their
    /// credits and ledger entries.
    #[must_use]
    pub fn admits(&self, tenant: TenantId) -> bool {
        self.tenants.get(&tenant).is_some_and(|s| !s.draining)
    }

    /// All configured tenants, in id order.
    pub fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.tenants.keys().copied()
    }

    /// The change stamps of what [`TenancyRuntime::export_metrics`]
    /// exports.
    #[must_use]
    pub fn stamps(&self) -> Stamps {
        self.stamps
    }

    // -- live mutations (management plane) -----------------------------
    //
    // These are the primitives `panic-ctrl`'s endpoint drives. Each
    // keeps `config.vnics` in sync with the runtime state so
    // `config()` always describes what is actually enforced (and so a
    // spec snapshot taken for admission control matches reality).

    /// Adds a vNIC live. `implicit_baseline` must be the tenant's
    /// *current* cumulative implicit-exit count from component stats
    /// (drops + flushes + NoC losses attributed to this tenant id):
    /// traffic carrying this tenant id may have flowed — and died —
    /// before the vNIC existed, and those stale exits must not return
    /// credits the new vNIC never charged. Returns `false` (no-op) if
    /// the tenant already has a vNIC, even a draining one.
    pub fn add_vnic(&mut self, spec: VNicSpec, implicit_baseline: u64) -> bool {
        if self.tenants.contains_key(&spec.tenant) {
            return false;
        }
        let mut state = TenantState::new(spec.clone());
        state.ledger.implicit_exits = implicit_baseline;
        state.track = self.tracer.track(&format!("tenancy.{}", state.spec.name));
        if spec.rate.is_some() {
            self.shaped.push(spec.tenant);
        }
        self.tenants.insert(spec.tenant, state);
        self.config.vnics.push(spec);
        self.stamps.names += 1;
        true
    }

    /// Begins removing a vNIC: ingress admission stops immediately
    /// ([`TenancyRuntime::admits`] turns false) while the queue drains
    /// and in-flight credits settle. Returns `false` if the tenant has
    /// no vNIC.
    pub fn begin_remove(&mut self, tenant: TenantId) -> bool {
        match self.tenants.get_mut(&tenant) {
            Some(state) => {
                state.draining = true;
                true
            }
            None => false,
        }
    }

    /// True when a draining vNIC has fully settled: nothing parked,
    /// nothing in flight, nothing queued for a DRR visit.
    #[must_use]
    pub fn removal_drained(&self, tenant: TenantId) -> bool {
        self.tenants.get(&tenant).is_some_and(|s| {
            s.draining && s.pending.is_empty() && s.credits_in_use == 0 && !s.in_active
        })
    }

    /// Completes a removal begun by [`TenancyRuntime::begin_remove`].
    /// Returns `false` unless [`TenancyRuntime::removal_drained`]
    /// holds — callers must wait for the drain, or the tenant's ledger
    /// (and its outstanding credits) would vanish mid-flight.
    pub fn finalize_remove(&mut self, tenant: TenantId) -> bool {
        if !self.removal_drained(tenant) {
            return false;
        }
        self.tenants.remove(&tenant);
        self.shaped.retain(|&t| t != tenant);
        self.config.vnics.retain(|v| v.tenant != tenant);
        self.stamps.names += 1;
        true
    }

    /// Replaces a tenant's token-bucket limit. The balance carries
    /// over conservatively: unshaped tenants start a new bucket full
    /// (like construction), while an existing balance is clamped to
    /// the new depth so a rate *cut* cannot smuggle a burst through.
    /// Returns `false` if the tenant has no vNIC.
    pub fn set_rate(&mut self, tenant: TenantId, rate: Option<crate::spec::RateSpec>) -> bool {
        let Some(state) = self.tenants.get_mut(&tenant) else {
            return false;
        };
        state.tokens = match (state.spec.rate, rate) {
            (_, None) => {
                self.shaped.retain(|&t| t != tenant);
                0
            }
            (None, Some(r)) => {
                self.shaped.push(tenant);
                r.burst * r.den
            }
            (Some(_), Some(r)) => state.tokens.min(r.burst * r.den),
        };
        state.spec.rate = rate;
        for v in self.config.vnics.iter_mut().filter(|v| v.tenant == tenant) {
            v.rate = rate;
        }
        true
    }

    /// Rewrites a tenant's DRR weight. Returns `false` if the tenant
    /// has no vNIC.
    pub fn set_weight(&mut self, tenant: TenantId, weight: u64) -> bool {
        let Some(state) = self.tenants.get_mut(&tenant) else {
            return false;
        };
        state.spec.weight = weight;
        for v in self.config.vnics.iter_mut().filter(|v| v.tenant == tenant) {
            v.weight = weight;
        }
        true
    }

    /// Rewrites a tenant's credit quota. A cut below the tenant's
    /// current in-flight count simply stops further admission until
    /// exits bring it back under. Returns `false` if the tenant has no
    /// vNIC.
    pub fn set_credit_quota(&mut self, tenant: TenantId, quota: u64) -> bool {
        let Some(state) = self.tenants.get_mut(&tenant) else {
            return false;
        };
        state.spec.credit_quota = quota;
        for v in self.config.vnics.iter_mut().filter(|v| v.tenant == tenant) {
            v.credit_quota = quota;
        }
        true
    }

    /// Routes trace events into `tracer` (one track per vNIC).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        for state in self.tenants.values_mut() {
            state.track = tracer.track(&format!("tenancy.{}", state.spec.name));
        }
    }

    /// Parks `msg` in its tenant's vNIC queue.
    ///
    /// # Panics
    /// Panics if the tenant has no vNIC — callers must check
    /// [`TenancyRuntime::knows`] and bypass unknown tenants.
    pub fn submit(&mut self, source: SubmitSource, msg: Message, now: Cycle) {
        let tenant = msg.tenant;
        let state = self
            .tenants
            .get_mut(&tenant)
            .expect("submit for a tenant without a vNIC (caller must check knows())");
        match source {
            SubmitSource::Rx => state.ledger.submitted_rx += 1,
            SubmitSource::Injected => state.ledger.submitted_injected += 1,
        }
        state.pending.push_back((now, msg));
        self.pending += 1;
        self.stamps.counters += 1;
        if !state.in_active {
            state.in_active = true;
            self.active.push_back(tenant);
        }
    }

    /// One cycle of the release scheduler: refill token buckets, grant
    /// DRR deficits, release every head that clears rate + credit +
    /// deficit, then drain the rank-spreading PIFO into `emit` in
    /// weighted-fair order.
    pub fn release(&mut self, now: Cycle, emit: impl FnMut(TenantId, Message)) {
        // Token refill happens for every shaped tenant every cycle,
        // backlogged or not (mirrored by `skip_idle`).
        self.refill_shaped(1);
        self.serve(now, emit);
    }

    /// `cycles` worth of token refill for every tenant that has a rate.
    fn refill_shaped(&mut self, cycles: u64) {
        for t in &self.shaped {
            self.tenants
                .get_mut(t)
                .expect("shaped tenant exists")
                .refill(cycles);
        }
    }

    /// The part of [`TenancyRuntime::release`] after the refill: one
    /// DRR round, then the spreading PIFO drained into `emit`.
    fn serve(&mut self, now: Cycle, mut emit: impl FnMut(TenantId, Message)) {
        let any_positive_backlogged = self.active.iter().any(|t| self.tenants[t].spec.weight > 0);

        // One DRR round over the tenants that were backlogged at the
        // start of the cycle.
        let rounds = self.active.len();
        for _ in 0..rounds {
            let tenant = self.active.pop_front().expect("active list length");
            let state = self.tenants.get_mut(&tenant).expect("active tenant exists");
            let grant = state.grant(self.config.quantum_bytes, any_positive_backlogged);
            state.deficit = (state.deficit + grant).min(grant + DEFICIT_HEADROOM_BYTES);

            while let Some((submitted_at, head)) = state.pending.front() {
                let bytes = head.wire_size().get();
                if let Some(r) = state.spec.rate {
                    if state.tokens < r.den {
                        state.ledger.rate_stalls += 1;
                        self.stamps.counters += 1;
                        break;
                    }
                }
                if state.credits_in_use >= state.spec.credit_quota
                    || self.shared_in_use >= self.config.shared_credits
                {
                    state.ledger.credit_stalls += 1;
                    self.stamps.counters += 1;
                    break;
                }
                if state.deficit < bytes {
                    break;
                }
                let submitted_at = *submitted_at;
                let (_, msg) = state.pending.pop_front().expect("head exists");
                self.pending -= 1;
                if let Some(r) = state.spec.rate {
                    state.tokens -= r.den;
                }
                state.credits_in_use += 1;
                self.shared_in_use += 1;
                state.deficit -= bytes;
                state.ledger.released += 1;
                self.stamps.counters += 1;
                state
                    .queue_wait
                    .record(now.saturating_since(submitted_at).0);
                // Start-time fair queueing: rank is the virtual start
                // time; the tenant's clock advances by cost/weight.
                let rank = state.vtime.max(self.vnow);
                state.vtime = rank + bytes * self.config.spread_scale / state.spec.weight.max(1);
                self.tracer
                    .instant_arg(state.track, "tenancy.release", now, "msg", msg.id.0);
                self.pifo.push(rank, (tenant, msg));
            }

            if state.pending.is_empty() {
                // Standard DRR: an emptied queue forfeits its deficit.
                state.deficit = 0;
                state.in_active = false;
            } else {
                self.active.push_back(tenant);
            }
        }

        // Drain the spreading PIFO: release order within the cycle is
        // weighted-fair across tenants.
        while let Some(rank) = self.pifo.peek_rank() {
            let (tenant, msg) = self.pifo.pop().expect("peeked");
            self.vnow = self.vnow.max(rank);
            emit(tenant, msg);
        }
    }

    /// Records a terminal event for one in-flight copy: updates the
    /// ledger, the latency histogram (when `latency` is known), and —
    /// except for [`ExitKind::Duplicate`] — returns the credit.
    /// Unknown tenants are ignored (their messages bypassed the plane).
    pub fn note_exit(&mut self, tenant: TenantId, kind: ExitKind, latency: Option<Cycles>) {
        let Some(state) = self.tenants.get_mut(&tenant) else {
            return;
        };
        self.stamps.counters += 1;
        if kind == ExitKind::Remote && !state.ledger.crossed() {
            self.stamps.names += 1;
        }
        match kind {
            ExitKind::Wire => state.ledger.tx_wire += 1,
            ExitKind::Host => state.ledger.host += 1,
            ExitKind::HostFallback => state.ledger.host_fallback += 1,
            ExitKind::Consumed => state.ledger.consumed += 1,
            ExitKind::Control => state.ledger.control += 1,
            ExitKind::Unrouted => state.ledger.unrouted += 1,
            ExitKind::Remote => state.ledger.remote_tx += 1,
            ExitKind::Duplicate => {
                state.ledger.duplicates += 1;
                return; // the surviving copy's exit returned the credit
            }
        }
        if let Some(lat) = latency {
            state.latency.record(lat.0);
        }
        self.shared_in_use -= state.return_credits(1);
    }

    /// Records a copy of `tenant`'s traffic *entering* this NIC over
    /// the rack fabric — a ledger source. No credit is charged: the
    /// copy passed admission at its home NIC, and its eventual exit
    /// here returns a credit only saturatingly (see
    /// [`TenancyRuntime::note_exit`]), so remote traffic can never
    /// free more credits than this NIC's tenants hold.
    pub fn note_remote_rx(&mut self, tenant: TenantId) {
        if let Some(state) = self.tenants.get_mut(&tenant) {
            self.stamps.counters += 1;
            if !state.ledger.crossed() {
                self.stamps.names += 1;
            }
            state.ledger.remote_rx += 1;
        }
    }

    /// Records a watchdog reissue (an extra in-flight copy). Reissues
    /// do not charge a credit; see [`TenancyRuntime::note_exit`].
    pub fn note_reissued(&mut self, tenant: TenantId) {
        if let Some(state) = self.tenants.get_mut(&tenant) {
            state.ledger.reissued += 1;
            self.stamps.counters += 1;
        }
    }

    /// Reconciles implicit exits — scheduler drops, tile flushes, NoC
    /// losses — from a *cumulative* per-tenant count the NIC shell
    /// reads out of component stats. The delta since the last sync
    /// returns that many credits.
    pub fn sync_implicit(&mut self, tenant: TenantId, cumulative: u64) {
        if let Some(returned) = self
            .tenants
            .get_mut(&tenant)
            .and_then(|state| state.reconcile_implicit(cumulative))
        {
            self.shared_in_use -= returned;
            self.stamps.counters += 1;
        }
    }

    /// Runs [`TenancyRuntime::sync_implicit`] for every configured
    /// tenant — but only when an implicit exit happened since the last
    /// walk. `total` is the component-wide implicit-exit count (every
    /// scheduler drop, tile flush and NoC loss, whoever it belonged
    /// to); the components bump it at the same site as the per-tenant
    /// counts `cumulative_of` reads, so an unmoved total means every
    /// per-tenant delta is zero and the walk is skipped. A vNIC added
    /// in between is covered too: its baseline *is* its current count.
    /// Allocation-free, for the per-tick reconciliation in the NIC
    /// shell.
    pub fn sync_implicit_all(
        &mut self,
        total: u64,
        mut cumulative_of: impl FnMut(TenantId) -> u64,
    ) {
        if total == self.implicit_seen {
            return;
        }
        self.implicit_seen = total;
        for (&t, state) in &mut self.tenants {
            if let Some(returned) = state.reconcile_implicit(cumulative_of(t)) {
                self.shared_in_use -= returned;
                self.stamps.counters += 1;
            }
        }
    }

    /// The tenant's cumulative ledger.
    #[must_use]
    pub fn ledger(&self, tenant: TenantId) -> Option<&TenantLedger> {
        self.tenants.get(&tenant).map(|s| &s.ledger)
    }

    /// The tenant's end-to-end latency histogram.
    #[must_use]
    pub fn latency(&self, tenant: TenantId) -> Option<&Histogram> {
        self.tenants.get(&tenant).map(|s| &s.latency)
    }

    /// The tenant's vNIC name.
    #[must_use]
    pub fn name(&self, tenant: TenantId) -> Option<&str> {
        self.tenants.get(&tenant).map(|s| s.spec.name.as_str())
    }

    /// Messages parked in `tenant`'s vNIC queue right now.
    #[must_use]
    pub fn pending_of(&self, tenant: TenantId) -> u64 {
        self.tenants
            .get(&tenant)
            .map_or(0, |s| s.pending.len() as u64)
    }

    /// Messages parked across all vNIC queues.
    #[must_use]
    pub fn pending_total(&self) -> u64 {
        self.pending
    }

    /// Credits currently drawn from the shared pool.
    #[must_use]
    pub fn shared_in_use(&self) -> u64 {
        self.shared_in_use
    }

    /// Starts a [`TenantConservation`] from the runtime's ledger; the
    /// NIC shell fills in the component-stat attributions
    /// (`sched_drops`, `flushed`, `lost_noc`).
    #[must_use]
    pub fn conservation_base(&self, tenant: TenantId) -> Option<TenantConservation> {
        let state = self.tenants.get(&tenant)?;
        let l = &state.ledger;
        Some(TenantConservation {
            tenant,
            name: state.spec.name.clone(),
            submitted: l.submitted(),
            reissued: l.reissued,
            tx_wire: l.tx_wire,
            host: l.host,
            host_fallback: l.host_fallback,
            consumed: l.consumed,
            control: l.control,
            unrouted: l.unrouted,
            duplicates: l.duplicates,
            remote_tx: l.remote_tx,
            remote_rx: l.remote_rx,
            sched_drops: 0,
            flushed: 0,
            lost_noc: 0,
            pending: state.pending.len() as u64,
        })
    }

    /// Earliest future cycle at which the release scheduler could act,
    /// or `None` when every vNIC queue is empty. A purely rate-blocked
    /// backlog yields its token-refill wake-up cycle; anything else
    /// backlogged is conservatively "next cycle".
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        debug_assert!(self.pifo.is_empty(), "spreading PIFO not drained");
        debug_assert!(self.active_is_exact(), "active list out of step");
        self.active.iter().map(|t| self.tenants[t].wake(now)).min()
    }

    /// The invariant the hint and the skip replay rest on: outside
    /// `release`, `active` holds exactly the backlogged tenants, once.
    fn active_is_exact(&self) -> bool {
        let backlogged = |s: &TenantState| !s.pending.is_empty();
        self.active.len() == self.tenants.values().filter(|s| backlogged(s)).count()
            && self.active.iter().all(|t| backlogged(&self.tenants[t]))
            && self.tenants.values().all(|s| s.in_active == backlogged(s))
    }

    /// Replays the idle bookkeeping for the skipped window `[from,
    /// to)`: token refills, DRR grants, and rate-stall counts — so a
    /// fast-forwarded run's state and metrics match the stepped run
    /// exactly.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(
            self.next_activity(from)
                .is_none_or(|c| c.max(from.next()) >= to),
            "skip window crosses a tenancy release (hint bug)"
        );
        let cycles = to.0.saturating_sub(from.0);
        if cycles == 0 {
            return;
        }
        let any_positive_backlogged = self.active.iter().any(|t| self.tenants[t].spec.weight > 0);
        let quantum = self.config.quantum_bytes;
        self.refill_shaped(cycles);
        if !self.active.is_empty() {
            // Every backlogged tenant's `rate_stalls` grows.
            self.stamps.counters += 1;
        }
        for t in &self.active {
            self.tenants
                .get_mut(t)
                .expect("active tenant exists")
                .accrue_backlogged(cycles, quantum, any_positive_backlogged);
        }
    }

    /// Exports every tenant's counters ([`COUNTER_KEYS`]) and
    /// histograms into `m` under `tenancy.{vnic-name}.*`. The counter
    /// names were built with the vNIC, so the counters reach the sink
    /// through [`MetricSink::counter_str`] and nothing is formatted.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S) {
        if !m.wants("tenancy.") {
            return;
        }
        for state in self.tenants.values() {
            let name = &state.spec.name;
            // Fabric crossings exist only once one happened, keeping
            // single-NIC metrics output byte-identical.
            let crossed = state.ledger.crossed();
            for (i, (counter, value)) in state.names.iter().zip(state.counter_values()).enumerate()
            {
                if crossed || !REMOTE_KEYS.contains(&i) {
                    m.counter_str(counter, value);
                }
            }
            if state.latency.count() > 0 {
                m.histogram(format_args!("tenancy.{name}.latency"), &state.latency);
            }
            if state.queue_wait.count() > 0 {
                m.histogram(format_args!("tenancy.{name}.queue_wait"), &state.queue_wait);
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RateSpec, VNicSpec};
    use bytes::Bytes;
    use packet::{MessageId, MessageKind};
    use trace::MetricsRegistry;

    fn msg(id: u64, tenant: TenantId, payload: usize) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .tenant(tenant)
            .payload(Bytes::from(vec![0u8; payload]))
            .build()
    }

    fn two_tenants(quota: u64, shared: u64) -> TenancyRuntime {
        TenancyRuntime::new(
            TenancyConfig::new(vec![
                VNicSpec::new(TenantId(1), "a", 1).credit_quota(quota),
                VNicSpec::new(TenantId(2), "b", 3).credit_quota(quota),
            ])
            .shared_credits(shared),
        )
    }

    fn release_ids(rt: &mut TenancyRuntime, now: Cycle) -> Vec<(TenantId, u64)> {
        let mut out = Vec::new();
        rt.release(now, |t, m| out.push((t, m.id.0)));
        out
    }

    #[test]
    fn unknown_tenant_is_not_known() {
        let rt = two_tenants(4, 64);
        assert!(rt.knows(TenantId(1)));
        assert!(!rt.knows(TenantId(9)));
    }

    #[test]
    fn backpressure_parks_and_credits_gate() {
        let mut rt = two_tenants(1, 64);
        for i in 0..3 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 64), Cycle(0));
        }
        // Quota 1: only the first message releases; nothing drops.
        let out = release_ids(&mut rt, Cycle(0));
        assert_eq!(out, vec![(TenantId(1), 0)]);
        assert_eq!(rt.pending_of(TenantId(1)), 2);
        assert_eq!(rt.ledger(TenantId(1)).unwrap().credit_stalls, 1);
        // Still blocked next cycle.
        assert!(release_ids(&mut rt, Cycle(1)).is_empty());
        // An exit returns the credit; the next head releases.
        rt.note_exit(TenantId(1), ExitKind::Wire, Some(Cycles(10)));
        let out = release_ids(&mut rt, Cycle(2));
        assert_eq!(out, vec![(TenantId(1), 1)]);
        assert_eq!(rt.shared_in_use(), 1);
    }

    #[test]
    fn rate_limit_spaces_releases() {
        let mut rt = TenancyRuntime::new(TenancyConfig::new(vec![VNicSpec::new(
            TenantId(1),
            "shaped",
            1,
        )
        .rate(RateSpec::one_per(4))]));
        for i in 0..3 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 32), Cycle(0));
        }
        let mut released_at = Vec::new();
        for c in 0..12u64 {
            for (_, id) in release_ids(&mut rt, Cycle(c)) {
                released_at.push((id, c));
            }
        }
        // Bucket starts full: one immediately, then every 4 cycles.
        assert_eq!(released_at, vec![(0, 0), (1, 4), (2, 8)]);
        assert!(rt.ledger(TenantId(1)).unwrap().rate_stalls > 0);
    }

    #[test]
    fn drr_weights_share_bytes() {
        // Two always-backlogged tenants, weights 1:3, equal message
        // sizes, deficit-gated (tiny quantum, ample credits).
        let mut rt = TenancyRuntime::new(
            TenancyConfig::new(vec![
                VNicSpec::new(TenantId(1), "a", 1).credit_quota(10_000),
                VNicSpec::new(TenantId(2), "b", 3).credit_quota(10_000),
            ])
            .shared_credits(100_000)
            .quantum_bytes(66), // one 64B-payload message per weight unit
        );
        let mut id = 0;
        for _ in 0..200 {
            rt.submit(SubmitSource::Rx, msg(id, TenantId(1), 64), Cycle(0));
            rt.submit(SubmitSource::Rx, msg(id + 1, TenantId(2), 64), Cycle(0));
            id += 2;
        }
        let mut counts = BTreeMap::new();
        for c in 0..50u64 {
            for (t, _) in release_ids(&mut rt, Cycle(c)) {
                *counts.entry(t).or_insert(0u64) += 1;
            }
        }
        let a = counts[&TenantId(1)];
        let b = counts[&TenantId(2)];
        // 1:3 within rounding.
        assert!(b >= 3 * a && b <= 3 * a + 3, "a={a} b={b}");
    }

    #[test]
    fn rank_spreading_interleaves_within_a_cycle() {
        // Everything releasable in one cycle: the PIFO order should
        // interleave tenants by virtual time, not emit all of tenant 1
        // then all of tenant 2.
        let mut rt = TenancyRuntime::new(
            TenancyConfig::new(vec![
                VNicSpec::new(TenantId(1), "a", 1).credit_quota(100),
                VNicSpec::new(TenantId(2), "b", 1).credit_quota(100),
            ])
            .shared_credits(100)
            .quantum_bytes(1 << 20),
        );
        for i in 0..4 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 64), Cycle(0));
            rt.submit(SubmitSource::Rx, msg(10 + i, TenantId(2), 64), Cycle(0));
        }
        let order: Vec<TenantId> = release_ids(&mut rt, Cycle(0))
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(order.len(), 8);
        // Equal weights, equal sizes: strict alternation after the
        // first pair.
        let first_half = &order[..4];
        assert!(
            first_half.contains(&TenantId(1)) && first_half.contains(&TenantId(2)),
            "one tenant monopolized the release batch: {order:?}"
        );
    }

    #[test]
    fn conservation_base_closes_after_exits() {
        let mut rt = two_tenants(8, 64);
        for i in 0..5 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 32), Cycle(0));
        }
        let out = release_ids(&mut rt, Cycle(0));
        assert_eq!(out.len(), 5);
        for _ in 0..3 {
            rt.note_exit(TenantId(1), ExitKind::Wire, Some(Cycles(5)));
        }
        rt.note_exit(TenantId(1), ExitKind::Consumed, None);
        rt.note_exit(TenantId(1), ExitKind::Host, Some(Cycles(9)));
        let c = rt.conservation_base(TenantId(1)).unwrap();
        assert!(c.holds(), "{c}");
        assert_eq!(c.tx_wire, 3);
        assert_eq!(c.consumed, 1);
        assert_eq!(c.host, 1);
        assert_eq!(rt.shared_in_use(), 0);
        assert_eq!(rt.latency(TenantId(1)).unwrap().count(), 4);
    }

    #[test]
    fn duplicate_exit_returns_no_credit() {
        let mut rt = two_tenants(8, 64);
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        let _ = release_ids(&mut rt, Cycle(0));
        rt.note_reissued(TenantId(1));
        rt.note_exit(TenantId(1), ExitKind::Duplicate, None);
        assert_eq!(rt.shared_in_use(), 1, "duplicate must not free the credit");
        rt.note_exit(TenantId(1), ExitKind::Wire, Some(Cycles(2)));
        assert_eq!(rt.shared_in_use(), 0);
        let c = rt.conservation_base(TenantId(1)).unwrap();
        assert!(c.holds(), "{c}");
    }

    #[test]
    fn sync_implicit_returns_credits_once() {
        let mut rt = two_tenants(8, 64);
        for i in 0..4 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 32), Cycle(0));
        }
        let _ = release_ids(&mut rt, Cycle(0));
        assert_eq!(rt.shared_in_use(), 4);
        rt.sync_implicit(TenantId(1), 3);
        assert_eq!(rt.shared_in_use(), 1);
        // Same cumulative count again: no further return.
        rt.sync_implicit(TenantId(1), 3);
        assert_eq!(rt.shared_in_use(), 1);
        rt.sync_implicit(TenantId(1), 4);
        assert_eq!(rt.shared_in_use(), 0);
        assert_eq!(rt.ledger(TenantId(1)).unwrap().implicit_exits, 4);
    }

    #[test]
    fn foreign_exits_cannot_free_a_held_shared_credit() {
        // Shared pool of one, held by tenant 1's in-flight message.
        let mut rt = two_tenants(8, 1);
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        rt.submit(SubmitSource::Rx, msg(1, TenantId(1), 32), Cycle(0));
        assert_eq!(release_ids(&mut rt, Cycle(0)), vec![(TenantId(1), 0)]);
        // Copies of tenant 2 that never charged a credit here — one
        // that entered over the fabric, two destroyed in components —
        // leave: tenant 2 holds nothing, so the pool gets nothing back.
        rt.note_remote_rx(TenantId(2));
        rt.note_exit(TenantId(2), ExitKind::Wire, None);
        rt.sync_implicit(TenantId(2), 1);
        rt.sync_implicit_all(2, |t| if t == TenantId(2) { 2 } else { 0 });
        assert_eq!(rt.ledger(TenantId(2)).unwrap().implicit_exits, 2);
        assert_eq!(rt.shared_in_use(), 1, "tenant 1 still holds the credit");
        assert!(
            release_ids(&mut rt, Cycle(1)).is_empty(),
            "a second message in flight past shared_credits = 1"
        );
        rt.note_exit(TenantId(1), ExitKind::Wire, Some(Cycles(4)));
        assert_eq!(release_ids(&mut rt, Cycle(2)), vec![(TenantId(1), 1)]);
    }

    #[test]
    fn next_activity_none_when_drained() {
        let mut rt = two_tenants(8, 64);
        assert_eq!(rt.next_activity(Cycle(0)), None);
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        assert_eq!(rt.next_activity(Cycle(0)), Some(Cycle(1)));
        let _ = release_ids(&mut rt, Cycle(0));
        assert_eq!(rt.next_activity(Cycle(0)), None);
    }

    #[test]
    fn rate_blocked_hint_skips_to_refill() {
        let mut rt = TenancyRuntime::new(TenancyConfig::new(vec![VNicSpec::new(
            TenantId(1),
            "shaped",
            1,
        )
        .rate(RateSpec::one_per(8))]));
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        rt.submit(SubmitSource::Rx, msg(1, TenantId(1), 32), Cycle(0));
        // Cycle 0 releases the first (full bucket) and leaves the
        // second rate-blocked.
        assert_eq!(release_ids(&mut rt, Cycle(0)).len(), 1);
        let hint = rt.next_activity(Cycle(0)).unwrap();
        assert!(hint > Cycle(1), "rate-blocked hint should skip: {hint:?}");
        assert_eq!(hint, Cycle(8));
    }

    #[test]
    fn skip_idle_matches_stepped_accrual() {
        let build = || {
            let mut rt = TenancyRuntime::new(TenancyConfig::new(vec![VNicSpec::new(
                TenantId(1),
                "shaped",
                2,
            )
            .rate(RateSpec::per_cycles(1, 16, 2))]));
            rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
            rt.submit(SubmitSource::Rx, msg(1, TenantId(1), 32), Cycle(0));
            rt.submit(SubmitSource::Rx, msg(2, TenantId(1), 32), Cycle(0));
            // Drain the full bucket (burst 2) at cycle 0.
            let n = release_ids(&mut rt, Cycle(0)).len();
            assert_eq!(n, 2);
            rt
        };
        // Stepped: tick through the idle window.
        let mut stepped = build();
        for c in 1..=15u64 {
            assert!(release_ids(&mut stepped, Cycle(c)).is_empty());
        }
        // Fast-forwarded: one skip over the same window.
        let mut ff = build();
        let hint = ff.next_activity(Cycle(0)).unwrap();
        assert_eq!(hint, Cycle(16));
        ff.skip_idle(Cycle(1), Cycle(16));
        assert_eq!(
            stepped.ledger(TenantId(1)).unwrap(),
            ff.ledger(TenantId(1)).unwrap()
        );
        // Both release the third message at the wake-up cycle.
        assert_eq!(release_ids(&mut stepped, Cycle(16)).len(), 1);
        assert_eq!(release_ids(&mut ff, Cycle(16)).len(), 1);
        assert_eq!(
            stepped.ledger(TenantId(1)).unwrap(),
            ff.ledger(TenantId(1)).unwrap()
        );
    }

    #[test]
    fn zero_weight_served_only_alone() {
        let mut rt = TenancyRuntime::new(
            TenancyConfig::new(vec![
                VNicSpec::new(TenantId(1), "besteffort", 0).credit_quota(100),
                VNicSpec::new(TenantId(2), "paying", 1).credit_quota(100),
            ])
            .shared_credits(1000)
            .quantum_bytes(66),
        );
        for i in 0..10 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 64), Cycle(0));
        }
        rt.submit(SubmitSource::Rx, msg(100, TenantId(2), 64), Cycle(0));
        // While the paying tenant is backlogged, best-effort gets
        // nothing beyond its banked deficit (zero).
        let out = release_ids(&mut rt, Cycle(0));
        assert!(out.iter().all(|(t, _)| *t != TenantId(1)), "{out:?}");
        // Once the paying tenant drains, best-effort proceeds.
        let out = release_ids(&mut rt, Cycle(1));
        assert!(out.iter().any(|(t, _)| *t == TenantId(1)));
    }

    #[test]
    fn metrics_export_names_tenants() {
        let mut rt = two_tenants(8, 64);
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        let _ = release_ids(&mut rt, Cycle(0));
        rt.note_exit(TenantId(1), ExitKind::Wire, Some(Cycles(7)));
        let mut m = MetricsRegistry::new();
        rt.export_metrics(&mut m);
        assert_eq!(m.counter("tenancy.a.submitted"), Some(1));
        assert_eq!(m.counter("tenancy.a.tx_wire"), Some(1));
        assert_eq!(m.counter("tenancy.b.submitted"), Some(0));
        assert!(m.histogram("tenancy.a.latency").is_some());
    }

    /// Each key reads its own ledger field or gauge — what the key
    /// table in docs/TENANCY.md says — whichever order the values are
    /// gathered in.
    #[test]
    fn every_counter_key_exports_its_own_field() {
        let mut rt = two_tenants(8, 64);
        let state = rt.tenants.get_mut(&TenantId(1)).unwrap();
        state.ledger = TenantLedger {
            submitted_rx: 1,
            submitted_injected: 100,
            released: 2,
            reissued: 3,
            tx_wire: 4,
            host: 5,
            host_fallback: 6,
            consumed: 7,
            control: 8,
            unrouted: 9,
            duplicates: 10,
            remote_tx: 11,
            remote_rx: 12,
            implicit_exits: 13,
            rate_stalls: 14,
            credit_stalls: 15,
        };
        state.pending.push_back((Cycle(0), msg(0, TenantId(1), 32)));
        state.credits_in_use = 17;
        let mut m = MetricsRegistry::new();
        rt.export_metrics(&mut m);
        let want = [
            ("submitted", 101),
            ("released", 2),
            ("reissued", 3),
            ("tx_wire", 4),
            ("host", 5),
            ("host_fallback", 6),
            ("consumed", 7),
            ("control", 8),
            ("unrouted", 9),
            ("duplicates", 10),
            ("remote_tx", 11),
            ("remote_rx", 12),
            ("implicit_exits", 13),
            ("rate_stalls", 14),
            ("credit_stalls", 15),
            ("pending", 1),
            ("credits_in_use", 17),
        ];
        assert_eq!(want.map(|(key, _)| key), COUNTER_KEYS);
        for (key, value) in want {
            assert_eq!(m.counter(&format!("tenancy.a.{key}")), Some(value), "{key}");
        }
        assert_eq!(m.counters().count(), 17 + 15, "b has seen no crossing");
    }

    #[test]
    fn add_vnic_live_serves_and_updates_config() {
        let mut rt = two_tenants(8, 64);
        assert!(!rt.admits(TenantId(9)));
        assert!(rt.add_vnic(VNicSpec::new(TenantId(9), "late", 2).credit_quota(4), 0));
        // Double-add is a no-op.
        assert!(!rt.add_vnic(VNicSpec::new(TenantId(9), "late2", 1), 0));
        assert!(rt.admits(TenantId(9)));
        assert!(rt.config().vnic(TenantId(9)).is_some());
        rt.submit(SubmitSource::Rx, msg(0, TenantId(9), 32), Cycle(5));
        let out = release_ids(&mut rt, Cycle(5));
        assert_eq!(out, vec![(TenantId(9), 0)]);
        rt.note_exit(TenantId(9), ExitKind::Wire, Some(Cycles(3)));
        let c = rt.conservation_base(TenantId(9)).unwrap();
        assert!(c.holds(), "{c}");
    }

    #[test]
    fn add_vnic_baseline_shields_shared_pool() {
        let mut rt = two_tenants(8, 64);
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        let _ = release_ids(&mut rt, Cycle(0));
        assert_eq!(rt.shared_in_use(), 1);
        // Tenant 9's id racked up 5 implicit exits before its vNIC
        // existed; the baseline absorbs them so the first sync returns
        // nothing.
        assert!(rt.add_vnic(VNicSpec::new(TenantId(9), "late", 1), 5));
        rt.sync_implicit(TenantId(9), 5);
        assert_eq!(
            rt.shared_in_use(),
            1,
            "stale implicit exits must not free credits"
        );
    }

    #[test]
    fn remove_vnic_drains_then_finalizes() {
        let mut rt = two_tenants(8, 64);
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        rt.submit(SubmitSource::Rx, msg(1, TenantId(1), 32), Cycle(0));
        assert!(rt.begin_remove(TenantId(1)));
        assert!(!rt.admits(TenantId(1)), "draining vNIC stops admitting");
        assert!(rt.knows(TenantId(1)), "but keeps settling accounts");
        // Not drained: two parked messages.
        assert!(!rt.removal_drained(TenantId(1)));
        assert!(!rt.finalize_remove(TenantId(1)));
        let out = release_ids(&mut rt, Cycle(1));
        assert_eq!(out.len(), 2, "draining queue still releases");
        assert!(!rt.removal_drained(TenantId(1)), "credits still in flight");
        rt.note_exit(TenantId(1), ExitKind::Wire, Some(Cycles(2)));
        rt.note_exit(TenantId(1), ExitKind::Host, Some(Cycles(4)));
        assert!(rt.removal_drained(TenantId(1)));
        assert!(rt.finalize_remove(TenantId(1)));
        assert!(!rt.knows(TenantId(1)));
        assert!(rt.config().vnic(TenantId(1)).is_none());
        assert_eq!(rt.shared_in_use(), 0);
    }

    #[test]
    fn set_rate_clamps_carryover_tokens() {
        let mut rt = two_tenants(8, 64);
        // Unshaped -> shaped: bucket starts full.
        assert!(rt.set_rate(TenantId(1), Some(RateSpec::per_cycles(1, 4, 2))));
        rt.submit(SubmitSource::Rx, msg(0, TenantId(1), 32), Cycle(0));
        rt.submit(SubmitSource::Rx, msg(1, TenantId(1), 32), Cycle(0));
        rt.submit(SubmitSource::Rx, msg(2, TenantId(1), 32), Cycle(0));
        assert_eq!(
            release_ids(&mut rt, Cycle(0)).len(),
            2,
            "burst 2 on a full bucket"
        );
        // Shaped -> tighter shaped: the balance is clamped, not topped up.
        assert!(rt.set_rate(TenantId(1), Some(RateSpec::per_cycles(1, 8, 1))));
        assert!(
            release_ids(&mut rt, Cycle(1)).is_empty(),
            "no smuggled burst"
        );
        // Shaped -> unshaped releases immediately.
        assert!(rt.set_rate(TenantId(1), None));
        assert_eq!(release_ids(&mut rt, Cycle(2)).len(), 1);
        assert!(!rt.set_rate(TenantId(99), None), "unknown tenant refused");
    }

    #[test]
    fn set_weight_and_quota_take_effect_live() {
        let mut rt = two_tenants(1, 64);
        assert!(rt.set_credit_quota(TenantId(1), 3));
        for i in 0..3 {
            rt.submit(SubmitSource::Rx, msg(i, TenantId(1), 32), Cycle(0));
        }
        assert_eq!(
            release_ids(&mut rt, Cycle(0)).len(),
            3,
            "raised quota admits"
        );
        assert!(rt.set_weight(TenantId(2), 7));
        assert_eq!(rt.config().vnic(TenantId(2)).unwrap().weight, 7);
        assert!(!rt.set_weight(TenantId(99), 1));
        assert!(!rt.set_credit_quota(TenantId(99), 1));
    }

    #[test]
    fn duplicate_vnic_keeps_first() {
        let rt = TenancyRuntime::new(TenancyConfig::new(vec![
            VNicSpec::new(TenantId(1), "first", 1),
            VNicSpec::new(TenantId(1), "second", 9),
        ]));
        assert_eq!(rt.name(TenantId(1)), Some("first"));
    }
}
