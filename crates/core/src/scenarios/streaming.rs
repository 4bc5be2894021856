//! A guard that the mesh's stream step stays engaged on the benchmark's
//! configurations: a change that silently sends every worm back to the
//! per-run path fails here, not in a benchmark run.
//! `MeshNetwork::streamed_flit_hops` is the simulator's own work, not
//! the simulated mesh's, so no metric exports it.

use packet::message::{Priority, TenantId};
use trace::Tracer;
use workloads::arrivals::ArrivalProcess;
use workloads::kvs::TenantSpec;

use super::chain::{ChainScenario, ChainScenarioConfig};
use super::kvs::{KvsScenario, KvsScenarioConfig};
use crate::nic::PanicNic;

/// Streamed share of the flit-hops `run` moves after `warmup` cycles.
fn share<S>(
    s: &mut S,
    nic: fn(&S) -> &PanicNic,
    run: fn(&mut S, u64),
    warmup: u64,
    window: u64,
) -> f64 {
    run(s, warmup);
    let net = nic(s).network();
    let (hops, streamed) = (net.total_flit_hops(), net.streamed_flit_hops());
    run(s, window);
    let net = nic(s).network();
    let hops = net.total_flit_hops() - hops;
    assert!(hops > 0, "the window moved no flit");
    (net.streamed_flit_hops() - streamed) as f64 / hops as f64
}

/// The benchmark's `chain_saturated`: two-hop chains at the knee.
fn chain_saturated() -> ChainScenario {
    ChainScenario::new(ChainScenarioConfig {
        chain_len: 2,
        offered_fraction: 0.32,
        seed: 1,
        ..ChainScenarioConfig::default()
    })
}

/// The benchmark's `kvs_mixed`: the two-tenant default plus a third
/// tenant of 512 B writes.
fn kvs_mixed() -> KvsScenario {
    let mut config = KvsScenarioConfig::two_tenant_default();
    config.seed = 1;
    config.tenants.push(TenantSpec {
        tenant: TenantId(3),
        arrivals: ArrivalProcess::periodic(1, 250),
        priority: Priority::Normal,
        get_ratio: 0.1,
        wan: false,
        value_size: 512,
        zipf_theta: Some(0.0),
    });
    KvsScenario::new(config)
}

#[test]
fn most_flit_hops_stream_at_the_chain_knee() {
    let got = share(
        &mut chain_saturated(),
        ChainScenario::nic,
        ChainScenario::run,
        20_000,
        20_000,
    );
    assert!(got >= 0.75, "streamed share {got:.3} < 0.75");
}

#[test]
fn nearly_all_flit_hops_stream_under_kvs_mixed() {
    let got = share(
        &mut kvs_mixed(),
        KvsScenario::nic,
        KvsScenario::run,
        60_000,
        80_000,
    );
    assert!(got >= 0.90, "streamed share {got:.3} < 0.90");
}

#[test]
fn a_traced_mesh_streams_nothing() {
    let mut s = chain_saturated();
    s.attach_tracer(&Tracer::ring(1024));
    s.run(5_000);
    let net = s.nic().network();
    assert!(net.total_flit_hops() > 0);
    assert_eq!(net.streamed_flit_hops(), 0);
}
