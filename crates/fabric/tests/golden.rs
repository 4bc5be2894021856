//! Goldens that hold the boundary exchange to the bytes of commit
//! 14e65e1 — the last one with a separate fault-free exchange kept
//! beside the chaos one. Each case hashes everything a run exposes
//! (Chrome trace, metrics JSON, `FleetStats` / `ChaosStats` /
//! `conservation()` `Debug`), stepped and fast-forwarded, and is
//! re-run untraced to the same metrics and counters: an untraced mesh
//! streams and glides, a traced one does not.

mod common;

use common::{counters, ring_of, ring_pairs, COUNT, PERIOD};
use faults::{FabricFaultConfig, FabricFaultPlan, FabricFaultUniverse};
use sim_core::time::Cycle;
use trace::Tracer;

/// The benchmark's and `repro rack-chaos`'s pinned acceptance plan.
const PINNED: &str = "flap:0-1@6000+2000,mcrash:2@9000+64";
/// Frames per member under [`PINNED`]: traffic must outlast the crash.
const PINNED_COUNT: u64 = 150;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one ring to full quiescence in 10,000-cycle chunks and returns
/// `(trace JSON, metrics JSON + counters)`; the trace is empty when
/// `traced` is off.
fn observe(
    nics: usize,
    count: u64,
    plan: &FabricFaultPlan,
    stepped: bool,
    traced: bool,
) -> (String, String) {
    let cfg = FabricFaultConfig::new(plan.clone());
    let mut fabric = ring_of(nics, count, Some(cfg));
    let tracer = Tracer::chrome();
    if traced {
        fabric.attach_tracer(&tracer);
    }
    let mut now = Cycle(0);
    let mut quiet = false;
    for _ in 0..1024 {
        now = if stepped {
            fabric.run(now, 10_000)
        } else {
            fabric.run_ff(now, 10_000).0
        };
        quiet = fabric.is_quiescent() && !fabric.faults_pending();
        if quiet {
            break;
        }
    }
    assert!(quiet, "{nics}-ring under `{plan}` failed to drain");
    let counters = counters(&fabric);
    let trace = if traced {
        tracer.chrome_json().expect("chrome sink")
    } else {
        String::new()
    };
    (trace, counters)
}

/// `(stepped, fast-forwarded)` hashes of one case, each held to the
/// same counters untraced.
fn hashes(nics: usize, count: u64, plan: &FabricFaultPlan) -> (u64, u64) {
    let hash = |stepped: bool| {
        let (trace, counters) = observe(nics, count, plan, stepped, true);
        let (_, untraced) = observe(nics, count, plan, stepped, false);
        assert_eq!(
            counters, untraced,
            "{nics}-ring under `{plan}` (stepped: {stepped}): the untraced run must match \
             the traced one"
        );
        fnv1a(&(trace + &counters))
    };
    (hash(true), hash(false))
}

/// The seeded plan for `(nics, seed)`: `3 + seed` events over the
/// ring's links inside the traffic horizon.
fn seeded(nics: usize, seed: u64) -> FabricFaultPlan {
    let universe = FabricFaultUniverse::new(nics, ring_pairs(nics), Cycle(COUNT * PERIOD));
    FabricFaultPlan::generate(seed, &universe, 3 + seed as u32)
}

/// `(nics, seed, stepped, fast-forwarded)`, seed 0 = [`PINNED`];
/// printed by 14e65e1 (a mismatch prints the whole table as this
/// commit computes it).
const GOLDEN: &[(usize, u64, u64, u64)] = &[
    (4, 0, 0x7484d2ec0292d7fa, 0x9f2e58b6f9e13a65),
    (2, 1, 0xff8db07ef9df7ca1, 0x210e58134f637bcc),
    (2, 2, 0x8ae5d6f47864144a, 0x03fc39226fe23598),
    (2, 3, 0x439b1f3ec7d7a26f, 0xcebfb832bea1f60e),
    (2, 4, 0xb7f3e1b485f8c0ef, 0x343b76f9e6864652),
    (2, 5, 0x7d1047d1cfee55ef, 0x4d5f3a140f5ade5d),
    (2, 6, 0x0b05dabc1096132e, 0x4be23a14545d30c3),
    (2, 7, 0x91d9930eba77d0a2, 0x52759d5e20f4f613),
    (2, 8, 0x4a356a6b6525cebc, 0x79c047909426fca9),
    (3, 1, 0x4c72ef0a5e1a4b4c, 0xc6afa326cf3201f9),
    (3, 2, 0xa4a879c64f6181bc, 0xa23625cfcff79ce9),
    (3, 3, 0x48467391f30e7a9b, 0x2b5df06699e8bf08),
    (3, 4, 0x89d136751ded7f98, 0xbb2e7cc6ed95ead7),
    (3, 5, 0x571ef0ef73a02cbf, 0xe0fa248af3429b96),
    (3, 6, 0xc7581b19f813a541, 0x3fc4e03fd597231d),
    (3, 7, 0x960b851333010342, 0x4b386150b33a27db),
    (3, 8, 0x0a13ce7bda5b51ba, 0x1a35d32cd574ba91),
    (4, 1, 0x34f3f6b56d45a11e, 0x7a1ffd939927413f),
    (4, 2, 0x1c6b62aae29550aa, 0xa51e1af3475f7bae),
    (4, 3, 0x005441ce181c1a8a, 0x075494b047246919),
    (4, 4, 0xc8ddf99140151a6f, 0xe638926ac9053428),
    (4, 5, 0x42c505a8ff85fa71, 0x507cfa29cd9da01c),
    (4, 6, 0xc69e1975a78a61da, 0xc62e0eac0d70aab4),
    (4, 7, 0xc70f428ecfab8fe3, 0xade944872fe88318),
    (4, 8, 0x0bed38061294b585, 0x099ebafc076b5f9e),
    (5, 1, 0x1929a15143e665c2, 0x8dbb71dbb55fc5eb),
    (5, 2, 0x79b59e08b1917e83, 0x32d0058fc62fca0c),
    (5, 3, 0x03954f063f98bf6f, 0x324b0add8ef1be68),
    (5, 4, 0x6b081d09d3f38cc1, 0x4655389d57e5ba74),
    (5, 5, 0xf48978fca48782ba, 0x1931f35cd473e2e9),
    (5, 6, 0x58e2f0e9337307dc, 0xd383382953ab4418),
    (5, 7, 0xc2fe79bdaea0f167, 0xb4e996aff808c3e6),
    (5, 8, 0x18d7cd669dfc50ac, 0x5bbafdeb1a3ea36d),
];

#[test]
fn exchange_matches_the_pre_merge_goldens() {
    let pinned = FabricFaultPlan::parse(PINNED).expect("pinned plan parses");
    let mut actual = Vec::new();
    let (s, f) = hashes(4, PINNED_COUNT, &pinned);
    actual.push((4, 0, s, f));
    for nics in 2..=5 {
        for seed in 1..=8 {
            let (s, f) = hashes(nics, COUNT, &seeded(nics, seed));
            actual.push((nics, seed, s, f));
        }
    }
    if actual.as_slice() != GOLDEN {
        for (nics, seed, s, f) in &actual {
            eprintln!("    ({nics}, {seed}, {s:#018x}, {f:#018x}),");
        }
        let first = actual.iter().zip(GOLDEN).find(|(a, g)| a != g);
        panic!("golden mismatch, first at (actual, golden) {first:?}");
    }
}
