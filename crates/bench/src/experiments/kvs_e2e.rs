//! §3.2: the end-to-end multi-tenant KVS walk-through.
//!
//! Runs the [`KvsScenario`] at three cache sizes and reports, per
//! tenant, reply correctness and latency, plus the CPU-bypass
//! (cache-hit) path against the host path. The headline numbers are
//! the §2.2 motivation made concrete: hits never touch the CPU and
//! are far faster; every value byte is verified.

use panic_core::scenarios::kvs::{KvsScenario, KvsScenarioConfig};

use crate::fmt::{f, TableFmt};

/// Runs one scenario configuration.
#[must_use]
pub fn run_once(cached_hot_keys: usize, cycles: u64) -> KvsScenario {
    let mut cfg = KvsScenarioConfig::two_tenant_default();
    cfg.cached_hot_keys = cached_hot_keys;
    let mut s = KvsScenario::new(cfg);
    s.run(cycles);
    s
}

/// Regenerates the KVS end-to-end table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 60_000 } else { 400_000 };
    let mut t = TableFmt::new(
        "S3.2 — multi-tenant KVS: cache size sweep (cycles; 500MHz => 2ns/cycle)",
        &[
            "Hot keys cached",
            "Hit rate",
            "Hit-path p50/p99",
            "Host-path p50/p99",
            "Bad replies",
            "T1 (latency,LAN) p99",
            "T2 (bulk,WAN+IPSec) p99",
        ],
    );
    for cached in [0usize, 50, 200] {
        let s = run_once(cached, cycles);
        let r = s.report();
        let total = r.cache_hits + r.cache_misses;
        let bad: u64 = r.tenants.iter().map(|x| x.replies_bad).sum();
        t.row(vec![
            cached.to_string(),
            if total == 0 {
                "-".into()
            } else {
                f(r.cache_hits as f64 / total as f64, 2)
            },
            format!("{}/{}", r.hit_path.p50, r.hit_path.p99),
            format!("{}/{}", r.host_path.p50, r.host_path.p99),
            bad.to_string(),
            r.tenants[0].latency.p99.to_string(),
            r.tenants[1].latency.p99.to_string(),
        ]);
    }
    t.note(
        "Hits are served NIC-only (cache -> RDMA -> DMA read -> reply through the pipeline); \
         host-path GETs pay delivery + 5us software + TX injection. WAN tenant traffic is \
         ESP both ways (decrypt on RX, re-encrypt on TX). Replies are byte-verified against \
         the deterministic store.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn cold_cache_serves_mostly_host_path() {
        // With no warm entries, early GETs miss; SET write-through
        // populates the cache over time, so *some* hits appear — the
        // host path must still dominate.
        let s = super::run_once(0, 50_000);
        let r = s.report();
        assert!(
            r.cache_misses > r.cache_hits,
            "{:?}",
            (r.cache_hits, r.cache_misses)
        );
        assert!(r.host_path.count > 50);
    }

    #[test]
    fn bigger_cache_raises_hit_rate() {
        let small = super::run_once(10, 50_000).report();
        let big = super::run_once(200, 50_000).report();
        let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        assert!(
            rate(big.cache_hits, big.cache_misses) > rate(small.cache_hits, small.cache_misses),
            "small {:?} big {:?}",
            (small.cache_hits, small.cache_misses),
            (big.cache_hits, big.cache_misses)
        );
    }
}
