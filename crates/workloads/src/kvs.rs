//! The multi-tenant KVS workload of §2.2 / §3.2.
//!
//! "Consider a key-value store like DynamoDB that serves requests from
//! multiple different tenants that may potentially be geodistributed
//! across multiple data centers." Each tenant has its own arrival
//! process, priority class, GET/SET mix, and WAN flag; keys are drawn
//! Zipf. WAN-bound requests are emitted as plaintext with `wan = true`
//! — the scenario wraps them in ESP with the tunnel configuration it
//! shares with its IPSec engine, so the workload crate stays
//! independent of engine internals.

use bytes::Bytes;
use packet::kvs::KvsRequest;
use packet::message::{Priority, TenantId};
use sim_core::rng::SimRng;

use crate::arrivals::ArrivalProcess;
use crate::frames::{ports, FrameFactory};
use crate::zipf::{PartitionedZipf, Zipf};

/// One tenant's traffic description.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id.
    pub tenant: TenantId,
    /// Arrival process for this tenant's requests.
    pub arrivals: ArrivalProcess,
    /// Priority class (drives slack computation in the NIC program).
    pub priority: Priority,
    /// Fraction of requests that are GETs (rest are SETs).
    pub get_ratio: f64,
    /// True if this tenant reaches the NIC over the WAN (IPSec).
    pub wan: bool,
    /// Value size for SETs (and for values stored under this tenant).
    pub value_size: usize,
    /// Per-tenant Zipf exponent override; `None` uses the workload's
    /// [`KvsWorkloadConfig::zipf_theta`]. Lets one tenant run a
    /// uniform scan while another hammers a hot set — the per-tenant
    /// arrival *mix* of a real multi-tenant store.
    pub zipf_theta: Option<f64>,
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct KvsWorkloadConfig {
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Number of distinct keys per tenant.
    pub keys_per_tenant: usize,
    /// Zipf exponent for key popularity.
    pub zipf_theta: f64,
    /// RNG seed.
    pub seed: u64,
    /// `true` carves one shared global key space into seeded,
    /// per-tenant [`PartitionedZipf`] stripes: tenants draw disjoint,
    /// individually Zipfian key streams from independent RNG streams
    /// (each stripe builds its Zipf CDF on its tenant's first arrival,
    /// not in [`KvsWorkload::new`]).
    /// `false` (the legacy layout) namespaces keys by tenant id in the
    /// top 32 bits and draws ranks from the workload's single RNG.
    pub partitioned_keys: bool,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct KvsEvent {
    /// Owning tenant spec index.
    pub tenant_idx: usize,
    /// The tenant id.
    pub tenant: TenantId,
    /// Priority class.
    pub priority: Priority,
    /// Whether the frame must be ESP-wrapped before injection.
    pub wan: bool,
    /// The decoded request (for checking replies).
    pub request: KvsRequest,
    /// The plaintext request frame.
    pub frame: Bytes,
}

/// The workload generator.
#[derive(Debug)]
pub struct KvsWorkload {
    tenants: Vec<TenantSpec>,
    /// One sampler per tenant (per-tenant θ override applied); all
    /// draw from the shared RNG in the legacy layout.
    zipfs: Vec<Zipf>,
    /// Per-tenant partitioned samplers (own RNG streams) when
    /// [`KvsWorkloadConfig::partitioned_keys`] is set.
    partitions: Option<Vec<PartitionedZipf>>,
    rng: SimRng,
    factory: FrameFactory,
    next_request_id: u32,
    /// Requests generated so far.
    pub generated: u64,
}

impl KvsWorkload {
    /// Builds the generator.
    ///
    /// # Panics
    /// Panics if no tenants are configured.
    #[must_use]
    pub fn new(config: KvsWorkloadConfig) -> KvsWorkload {
        assert!(!config.tenants.is_empty(), "no tenants");
        let theta_of = |spec: &TenantSpec| -> f64 { spec.zipf_theta.unwrap_or(config.zipf_theta) };
        let zipfs = config
            .tenants
            .iter()
            .map(|t| Zipf::new(config.keys_per_tenant, theta_of(t)))
            .collect();
        let partitions = config.partitioned_keys.then(|| {
            let n = config.tenants.len() as u64;
            config
                .tenants
                .iter()
                .enumerate()
                .map(|(idx, t)| {
                    PartitionedZipf::new(
                        config.seed,
                        idx as u64,
                        n,
                        config.keys_per_tenant,
                        theta_of(t),
                    )
                })
                .collect()
        });
        KvsWorkload {
            zipfs,
            partitions,
            tenants: config.tenants,
            rng: SimRng::new(config.seed),
            factory: FrameFactory::for_nic_port(0),
            next_request_id: 1,
            generated: 0,
        }
    }

    /// The key space size per tenant.
    #[must_use]
    pub fn keys_per_tenant(&self) -> usize {
        self.zipfs[0].len()
    }

    /// Namespaced key: tenant in the top bits, rank below.
    #[must_use]
    pub fn key_for(tenant: TenantId, rank: usize) -> u64 {
        (u64::from(tenant.0) << 32) | rank as u64
    }

    /// Deterministic value bytes for a key (verifiable end to end).
    #[must_use]
    pub fn value_for(key: u64, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len);
        let mut x = key ^ 0x0a1_0000 ^ 0x5555_5555;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.push((x >> 56) as u8);
        }
        Bytes::from(v)
    }

    /// Fast-forward hint: how many ticks from now until the next
    /// request from *any* tenant, mirroring
    /// [`ArrivalProcess::cycles_to_next`]; `u64::MAX` when no tenant
    /// will ever fire again.
    #[must_use]
    pub fn cycles_to_next(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.arrivals.cycles_to_next())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Replays `cycles` arrival-free ticks at once (valid only when
    /// `cycles < cycles_to_next()`; see [`ArrivalProcess::skip`]).
    pub fn skip(&mut self, cycles: u64) {
        for t in &mut self.tenants {
            t.arrivals.skip(cycles);
        }
    }

    /// Advances one cycle, returning the requests arriving this cycle
    /// (at most one per tenant).
    pub fn tick(&mut self) -> Vec<KvsEvent> {
        let mut events = Vec::new();
        for idx in 0..self.tenants.len() {
            let arrived = self.tenants[idx].arrivals.poll();
            if !arrived {
                continue;
            }
            let spec = &self.tenants[idx];
            let key = if let Some(parts) = &mut self.partitions {
                // Partitioned layout: the tenant's own sampler + RNG
                // stream; the shared RNG is not consumed for the key.
                parts[idx].next_key()
            } else {
                let rank = self.zipfs[idx].sample(&mut self.rng);
                Self::key_for(spec.tenant, rank)
            };
            let request_id = self.next_request_id;
            self.next_request_id = self.next_request_id.wrapping_add(1);
            let is_get = self.rng.gen_bool(spec.get_ratio);
            let request = if is_get {
                KvsRequest::get(spec.tenant.0, request_id, key)
            } else {
                KvsRequest::set(
                    spec.tenant.0,
                    request_id,
                    key,
                    Self::value_for(key, spec.value_size),
                )
            };
            let src_ip = if spec.wan {
                FrameFactory::wan_client_ip(spec.tenant.0)
            } else {
                FrameFactory::lan_client_ip(spec.tenant.0)
            };
            let frame = self.factory.inbound_udp(
                src_ip,
                20_000 + spec.tenant.0,
                ports::KVS,
                &request.encode(),
                64,
            );
            self.generated += 1;
            events.push(KvsEvent {
                tenant_idx: idx,
                tenant: spec.tenant,
                priority: spec.priority,
                wan: spec.wan,
                request,
                frame,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::kvs::KvsOp;

    fn config() -> KvsWorkloadConfig {
        KvsWorkloadConfig {
            tenants: vec![
                TenantSpec {
                    tenant: TenantId(1),
                    arrivals: ArrivalProcess::periodic(1, 4),
                    priority: Priority::Latency,
                    get_ratio: 0.9,
                    wan: false,
                    value_size: 32,
                    zipf_theta: None,
                },
                TenantSpec {
                    tenant: TenantId(2),
                    arrivals: ArrivalProcess::periodic(1, 2),
                    priority: Priority::Bulk,
                    get_ratio: 0.5,
                    wan: true,
                    value_size: 128,
                    zipf_theta: None,
                },
            ],
            keys_per_tenant: 100,
            zipf_theta: 0.99,
            seed: 11,
            partitioned_keys: false,
        }
    }

    #[test]
    fn rates_follow_arrival_processes() {
        let mut w = KvsWorkload::new(config());
        let mut per_tenant = [0u32; 2];
        for _ in 0..4000 {
            for e in w.tick() {
                per_tenant[e.tenant_idx] += 1;
            }
        }
        assert_eq!(per_tenant[0], 1000);
        assert_eq!(per_tenant[1], 2000);
        assert_eq!(w.generated, 3000);
    }

    #[test]
    fn get_set_mix_approximates_ratio() {
        let mut w = KvsWorkload::new(config());
        let mut gets = 0;
        let mut sets = 0;
        for _ in 0..4000 {
            for e in w.tick() {
                if e.tenant_idx == 0 {
                    match e.request.op {
                        KvsOp::Get => gets += 1,
                        KvsOp::Set => sets += 1,
                        _ => panic!("unexpected op"),
                    }
                }
            }
        }
        let ratio = f64::from(gets) / f64::from(gets + sets);
        assert!((0.85..0.95).contains(&ratio), "get ratio {ratio}");
    }

    #[test]
    fn frames_decode_back_to_requests() {
        let mut w = KvsWorkload::new(config());
        for _ in 0..100 {
            for e in w.tick() {
                // Frame is >= 64B and the embedded request matches.
                assert!(e.frame.len() >= 64);
                let decoded = KvsRequest::decode(&e.frame[42..]).unwrap();
                assert_eq!(decoded, e.request);
            }
        }
    }

    #[test]
    fn keys_are_tenant_namespaced_and_zipf_skewed() {
        let mut w = KvsWorkload::new(config());
        let mut rank0 = 0u32;
        let mut total = 0u32;
        for _ in 0..8000 {
            for e in w.tick() {
                assert_eq!(e.request.key >> 32, u64::from(e.tenant.0));
                if e.request.key & 0xffff_ffff == 0 {
                    rank0 += 1;
                }
                total += 1;
            }
        }
        // Rank 0 should be far above uniform (1%).
        let frac = f64::from(rank0) / f64::from(total);
        assert!(frac > 0.1, "rank-0 fraction {frac}");
    }

    #[test]
    fn values_are_deterministic_and_sized() {
        let a = KvsWorkload::value_for(42, 64);
        let b = KvsWorkload::value_for(42, 64);
        let c = KvsWorkload::value_for(43, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn wan_flag_and_addressing() {
        let mut w = KvsWorkload::new(config());
        for _ in 0..100 {
            for e in w.tick() {
                let src_octet = e.frame[26]; // IP src first octet
                if e.wan {
                    assert_eq!(src_octet, 198);
                } else {
                    assert_eq!(src_octet, 10);
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut w1 = KvsWorkload::new(config());
        let mut w2 = KvsWorkload::new(config());
        for _ in 0..200 {
            let e1 = w1.tick();
            let e2 = w2.tick();
            assert_eq!(e1.len(), e2.len());
            for (a, b) in e1.iter().zip(&e2) {
                assert_eq!(a.frame, b.frame);
            }
        }
    }

    #[test]
    fn skip_matches_stepped_ticks() {
        let mut stepped = KvsWorkload::new(config());
        let mut skipped = KvsWorkload::new(config());
        for _ in 0..50 {
            let k = stepped.cycles_to_next();
            assert!(k < u64::MAX);
            let mut events = Vec::new();
            for _ in 0..k {
                events = stepped.tick();
            }
            assert!(!events.is_empty(), "tick {k} fires");
            skipped.skip(k - 1);
            let fast = skipped.tick();
            assert_eq!(events.len(), fast.len());
            for (a, b) in events.iter().zip(&fast) {
                assert_eq!(a.frame, b.frame, "RNG stream must be unperturbed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no tenants")]
    fn empty_tenants_rejected() {
        let _ = KvsWorkload::new(KvsWorkloadConfig {
            tenants: vec![],
            keys_per_tenant: 1,
            zipf_theta: 0.0,
            seed: 0,
            partitioned_keys: false,
        });
    }

    /// The tenancy satellite's contract: two tenants built from the
    /// *same* workload seed but different `TenantId`s draw disjoint,
    /// individually Zipf-skewed key streams in the partitioned layout.
    #[test]
    fn partitioned_tenants_draw_disjoint_zipfian_streams() {
        let mut cfg = config();
        cfg.partitioned_keys = true;
        let mut w = KvsWorkload::new(cfg);
        let mut keys: [std::collections::BTreeMap<u64, u32>; 2] = Default::default();
        for _ in 0..20_000 {
            for e in w.tick() {
                *keys[e.tenant_idx].entry(e.request.key).or_insert(0) += 1;
            }
        }
        let a: std::collections::BTreeSet<u64> = keys[0].keys().copied().collect();
        let b: std::collections::BTreeSet<u64> = keys[1].keys().copied().collect();
        assert!(!a.is_empty() && !b.is_empty());
        assert!(a.is_disjoint(&b), "tenant key streams must be disjoint");
        for (idx, per_key) in keys.iter().enumerate() {
            let total: u32 = per_key.values().sum();
            let hottest = *per_key.values().max().unwrap();
            let frac = f64::from(hottest) / f64::from(total);
            // θ=0.99 over 100 keys: the hottest key carries ~19% of
            // the mass; uniform would be 1%.
            assert!(frac > 0.08, "tenant {idx} hottest-key fraction {frac}");
        }
    }

    /// A per-tenant θ override changes only that tenant's skew.
    #[test]
    fn per_tenant_theta_override_changes_mix() {
        let mut cfg = config();
        cfg.partitioned_keys = true;
        cfg.tenants[0].zipf_theta = Some(0.0); // uniform scanner
        cfg.tenants[1].zipf_theta = Some(1.2); // hot-set hammer
        let mut w = KvsWorkload::new(cfg);
        let mut keys: [std::collections::BTreeMap<u64, u32>; 2] = Default::default();
        for _ in 0..20_000 {
            for e in w.tick() {
                *keys[e.tenant_idx].entry(e.request.key).or_insert(0) += 1;
            }
        }
        let frac = |m: &std::collections::BTreeMap<u64, u32>| {
            let total: u32 = m.values().sum();
            f64::from(*m.values().max().unwrap()) / f64::from(total)
        };
        let uniform = frac(&keys[0]);
        let skewed = frac(&keys[1]);
        assert!(
            skewed > uniform * 3.0,
            "skewed {skewed} vs uniform {uniform}"
        );
    }

    /// The legacy (non-partitioned) layout is byte-identical with the
    /// new per-tenant samplers in place: same seed, same frames.
    #[test]
    fn legacy_layout_keys_stay_tenant_namespaced() {
        let mut w = KvsWorkload::new(config());
        for _ in 0..500 {
            for e in w.tick() {
                assert_eq!(e.request.key >> 32, u64::from(e.tenant.0));
            }
        }
    }
}
