//! Pins every experiment's bytes: the `--quick` report of all of
//! `repro`'s experiments, and for the ones with an observed window also
//! the report, metrics JSON and Chrome trace of an observed run —
//! hashed against the values commit fde0af6 printed, the last one
//! before the traffic loops moved into `rig`. `repro <experiment>
//! --quick [--metrics f --trace g]` writes exactly these strings.

use panic_bench::experiments;
use panic_bench::RunCtx;
use trace::Tracer;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The experiments that attach a tracer and export metrics when
/// observed.
const OBSERVED: [&str; 5] = ["table3", "hol", "fault-recovery", "rack", "rack-chaos"];

/// `(row, hash)`; printed by fde0af6, except the `rack` and
/// `rack-chaos` report rows, re-pinned when their notes dropped the
/// "for any --threads value" clauses (a mismatch prints the whole table
/// as this commit computes it).
const GOLDEN: &[(&str, u64)] = &[
    ("table1", 0x8a8b13a35a5ad1e1),
    ("table2", 0x16794f1dd39b763f),
    ("table3", 0x0cc09434e37fc4db),
    ("rmt-throughput", 0x02dd2a5df04033ed),
    ("chain-crossover", 0xa7150ede96e60fc4),
    ("hol", 0x424056d26a3d6797),
    ("manycore", 0x8ff33466f536ec41),
    ("rmt-limits", 0xe5f7232d9eec317c),
    ("kvs", 0xb7c844c5abcdc58d),
    ("isolation", 0x4e98b0110b30644a),
    ("slack-isolation", 0x6bc7b0fcd3eb47d6),
    ("memory", 0x5b80d6c4c8c326f6),
    ("fault-recovery", 0xdecfcb732d9b4dca),
    ("ab-chaining", 0x53b7e5dfb6386b78),
    ("ab-sched", 0x5ba27d47ecf08686),
    ("ab-crossbar", 0x94caa1127881d0f3),
    ("ab-pointer", 0x38caf9a3b74c7a3f),
    ("ab-splitnet", 0x426fc80d330290e5),
    ("rack", 0x065021c121686ed7),
    ("rack-chaos", 0x9e20599f16188623),
    ("ctl", 0xd359ce78e1bfbd7a),
    ("open-questions", 0x469b169ddd8a6177),
    ("open-lossless", 0x413fda5403c4b51c),
    ("table3 observed", 0x1ed80ed2a82b2d68),
    ("table3 metrics", 0x474f0c07cb34cd22),
    ("table3 trace", 0x48866b12ff93fdcf),
    ("hol observed", 0x8c7dd662ab82eef5),
    ("hol metrics", 0x334251ef52625e67),
    ("hol trace", 0x7ac1ad74e4e46bc1),
    ("fault-recovery observed", 0xdecfcb732d9b4dca),
    ("fault-recovery metrics", 0x4bc00e5347b92148),
    ("fault-recovery trace", 0xf90a28014f23d5a7),
    ("rack observed", 0x065021c121686ed7),
    ("rack metrics", 0x736bae83547a7bb8),
    ("rack trace", 0x60ec737a95452e6a),
    ("rack-chaos observed", 0x9e20599f16188623),
    ("rack-chaos metrics", 0x314574d9d38a685c),
    ("rack-chaos trace", 0xd7b523235e2dc1fa),
];

#[test]
fn every_experiment_matches_the_parent_bytes() {
    let all = experiments::all();
    let mut actual: Vec<(String, u64)> = all
        .iter()
        .map(|e| (e.id.to_string(), fnv1a(&(e.run)(&mut RunCtx::new(true)))))
        .collect();
    for e in all.iter().filter(|e| OBSERVED.contains(&e.id)) {
        let mut ctx = RunCtx::observed(true, Tracer::chrome(), true);
        let report = (e.run)(&mut ctx);
        let trace = ctx.tracer.chrome_json().expect("a chrome tracer renders");
        actual.push((format!("{} observed", e.id), fnv1a(&report)));
        actual.push((format!("{} metrics", e.id), fnv1a(&ctx.metrics.to_json())));
        actual.push((format!("{} trace", e.id), fnv1a(&trace)));
    }
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(r, h)| (r.to_string(), h)).collect();
    if actual != golden {
        for (row, hash) in &actual {
            eprintln!("    ({row:?}, {hash:#018x}),");
        }
        panic!("an experiment's bytes moved; table as this commit computes it is above");
    }
}
