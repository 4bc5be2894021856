//! Pins Figure 2's bytes: the rendered `--quick` report of every
//! experiment that places PANIC beside an incumbent, hashed against
//! the values commit 2b9b21d printed — the last one where each
//! experiment stated its offered load once per design and hand-stepped
//! it. `repro <experiment> --quick` prints exactly these strings.

use panic_bench::experiments::{chain_crossover, hol, isolation, manycore_latency, rmt_limits};
use panic_bench::RunCtx;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(experiment id, hash of its quick report)`; printed by 2b9b21d (a
/// mismatch prints the whole table as this commit computes it).
const GOLDEN: &[(&str, u64)] = &[
    ("hol", 0x424056d26a3d6797),
    ("manycore", 0x8ff33466f536ec41),
    ("rmt-limits", 0xe5f7232d9eec317c),
    ("isolation", 0x4e98b0110b30644a),
    ("chain-crossover", 0xa7150ede96e60fc4),
];

#[test]
fn figure2_reports_match_the_parent_bytes() {
    type Run = fn(&mut RunCtx) -> String;
    let experiments: [(&str, Run); 5] = [
        ("hol", hol::run),
        ("manycore", manycore_latency::run),
        ("rmt-limits", rmt_limits::run),
        ("isolation", isolation::run),
        ("chain-crossover", chain_crossover::run),
    ];
    let actual: Vec<(&str, u64)> = experiments
        .iter()
        .map(|(id, run)| (*id, fnv1a(&run(&mut RunCtx::new(true)))))
        .collect();
    if actual != GOLDEN {
        for (id, hash) in &actual {
            eprintln!("    ({id:?}, {hash:#018x}),");
        }
        panic!("Figure 2 moved; table as this commit computes it is above");
    }
}
