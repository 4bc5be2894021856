//! `panic-lint` — statically verify shipped NIC scenario configurations.
//!
//! Runs the `panic-verify` lint pass over the plain-data spec of each
//! named scenario *without* constructing or simulating it, and reports
//! diagnostics with stable codes (`PV001`…):
//!
//! ```text
//! panic-lint                 # usage and the scenario list (exit 2)
//! panic-lint all             # lint every shipped scenario
//! panic-lint kvs chain       # lint a subset
//! panic-lint --json all      # machine-readable diagnostics
//! panic-lint --deny-warnings # exit nonzero on warnings too
//! panic-lint --check-fixtures # self-test: negative fixtures must fire
//! ```
//!
//! `--check-fixtures` lints a set of deliberately broken
//! configurations — tenancy (one per PV601–PV605), rack-fabric (one
//! per PV701–PV704), and fabric fault plane (PV802 and PV804) — and
//! *fails unless each one fires its expected diagnostic* — the lint
//! pass's own negative test, runnable in CI against the shipped
//! binary.
//!
//! Exit status: `0` when no scenario has error-severity diagnostics
//! (or, with `--deny-warnings`, no warnings either), `1` otherwise,
//! `2` on usage errors: no scenario, an unknown scenario, or an
//! unknown flag.

#![forbid(unsafe_code)]

use packet::{EngineId, TenantId};
use panic_core::scenarios::chain::PlacementStrategy;
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig, KvsScenario, KvsScenarioConfig};
use panic_verify::{FabricSpec, LinkSpec, NicSpec, Report, Severity};
use tenancy::{TenancyConfig, VNicSpec};

/// A lintable scenario: name, description, spec producer.
type Entry = (&'static str, &'static str, fn() -> NicSpec);

fn scenarios() -> Vec<Entry> {
    vec![
        (
            "chain",
            "synthetic offload chains, Figure 3c spread placement (Table 3 cross-check)",
            || ChainScenario::lint_spec(&ChainScenarioConfig::default()),
        ),
        (
            "chain-rowmajor",
            "the same chains with naive row-major placement (§6 placement question)",
            || {
                let config = ChainScenarioConfig {
                    placement: PlacementStrategy::RowMajor,
                    ..ChainScenarioConfig::default()
                };
                ChainScenario::lint_spec(&config)
            },
        ),
        (
            "chain-long",
            "six-hop chains on the reference mesh (chain-length sweep upper end)",
            || {
                let config = ChainScenarioConfig {
                    chain_len: 6,
                    ..ChainScenarioConfig::default()
                };
                ChainScenario::lint_spec(&config)
            },
        ),
        (
            "kvs",
            "the §3.2 multi-tenant geodistributed KVS (IPSec + cache + RDMA + DMA)",
            || KvsScenario::lint_spec(&KvsScenarioConfig::two_tenant_default()),
        ),
    ]
}

/// A negative fixture: name, the diagnostic it must trigger, and a
/// producer for the deliberately broken spec.
type Fixture = (&'static str, &'static str, fn() -> NicSpec);

/// The kvs scenario spec with `cfg` attached as its tenancy plane —
/// a realistic host for the PV6xx fixtures (real mesh, real engines).
fn kvs_with_tenancy(cfg: TenancyConfig) -> NicSpec {
    let mut spec = KvsScenario::lint_spec(&KvsScenarioConfig::two_tenant_default());
    spec.tenancy = Some(cfg);
    spec
}

/// Deliberately broken tenancy configs, one per PV6xx lint. Kept out
/// of [`scenarios`] so `panic-lint all` stays green; exercised by
/// `--check-fixtures` (CI) and `tests/panic_lint_fixtures.rs`.
fn fixtures() -> Vec<Fixture> {
    vec![
        ("fixture-pv601", "PV601", || {
            // Two vNICs claim tenant id 1.
            kvs_with_tenancy(TenancyConfig::new(vec![
                VNicSpec::new(TenantId(1), "first", 4),
                VNicSpec::new(TenantId(1), "imposter", 2),
            ]))
        }),
        ("fixture-pv602", "PV602", || {
            // Every weight is zero: nothing to divide.
            kvs_with_tenancy(TenancyConfig::new(vec![
                VNicSpec::new(TenantId(1), "a", 0),
                VNicSpec::new(TenantId(2), "b", 0),
            ]))
        }),
        ("fixture-pv603", "PV603", || {
            // A quota larger than the whole shared pool.
            kvs_with_tenancy(
                TenancyConfig::new(vec![
                    VNicSpec::new(TenantId(1), "greedy", 1).credit_quota(128)
                ])
                .shared_credits(16),
            )
        }),
        ("fixture-pv604", "PV604", || {
            // A declared chain through an engine outside the tenant's
            // entitlement list.
            kvs_with_tenancy(TenancyConfig::new(vec![VNicSpec::new(
                TenantId(1),
                "walled-in",
                1,
            )
            .entitled_to([EngineId(0)])
            .chain([EngineId(0), EngineId(1)])]))
        }),
        ("fixture-pv605", "PV605", || {
            // A name one byte past what a telemetry frame can carry.
            kvs_with_tenancy(TenancyConfig::new(vec![VNicSpec::new(
                TenantId(1),
                "x".repeat(VNicSpec::MAX_NAME_LEN + 1),
                1,
            )]))
        }),
    ]
}

/// A broken rack fixture: name, the diagnostic it must trigger, the
/// severity it fires at, and a producer for the fabric spec.
type FabricFixture = (&'static str, &'static str, Severity, fn() -> FabricSpec);

/// A two-member rack of kvs-scenario NICs, bidirectionally linked —
/// the clean baseline the PV7xx fixtures each break one way.
fn two_kvs_fabric() -> FabricSpec {
    let member = || KvsScenario::lint_spec(&KvsScenarioConfig::two_tenant_default());
    FabricSpec {
        members: vec![member(), member()],
        links: vec![LinkSpec::new(0, 1), LinkSpec::new(1, 0)],
        faults: None,
    }
}

/// Attaches a single-vNIC tenancy whose declared chain is `hops` to
/// member 0 of the clean two-member rack.
fn fabric_with_chain(hops: Vec<EngineId>) -> FabricSpec {
    let mut fabric = two_kvs_fabric();
    let mut spec = VNicSpec::new(TenantId(1), "crosser", 1);
    spec = spec.chain(hops);
    fabric.members[0].tenancy = Some(TenancyConfig::new(vec![spec]));
    fabric
}

/// Deliberately broken rack configurations, one per PV7xx and PV8xx
/// lint. Exercised by `--check-fixtures` alongside the PV6xx set.
fn fabric_fixtures() -> Vec<FabricFixture> {
    vec![
        ("fixture-pv701", "PV701", Severity::Error, || {
            // A chain hop addressing member 7 of a 2-member rack.
            fabric_with_chain(vec![EngineId::remote(7, EngineId(0))])
        }),
        ("fixture-pv702", "PV702", Severity::Error, || {
            // A self-loop link with an empty credit window.
            let mut fabric = two_kvs_fabric();
            fabric.links.push(LinkSpec::new(1, 1).credits(0));
            fabric
        }),
        ("fixture-pv703", "PV703", Severity::Warn, || {
            // 0 -> 1 declared, 1 -> 0 missing.
            let mut fabric = two_kvs_fabric();
            fabric.links.truncate(1);
            fabric
        }),
        ("fixture-pv704", "PV704", Severity::Error, || {
            // A chain crossing 0 -> 1 on a rack with no links at all.
            let mut fabric = fabric_with_chain(vec![EngineId::remote(1, EngineId(0))]);
            fabric.links.clear();
            fabric
        }),
        ("fixture-pv802", "PV802", Severity::Error, || {
            // Member 0 pinned to fail over to member 2, but the only
            // other member (1) has no link into the replica: failed-over
            // crossings from it could never be delivered.
            let member = || KvsScenario::lint_spec(&KvsScenarioConfig::two_tenant_default());
            FabricSpec {
                members: vec![member(), member(), member()],
                links: vec![LinkSpec::new(0, 1), LinkSpec::new(1, 0)],
                faults: Some(faults::FabricFaultConfig {
                    replicas: vec![(0, 2)],
                    ..faults::FabricFaultConfig::default()
                }),
            }
        }),
        ("fixture-pv804", "PV804", Severity::Error, || {
            // A hop-retry timeout shorter than the round trip the
            // slowest link implies: every crossing would "time out".
            let mut fabric = two_kvs_fabric();
            fabric.links = vec![
                LinkSpec::new(0, 1).latency(600),
                LinkSpec::new(1, 0).latency(600),
            ];
            fabric.faults = Some(faults::FabricFaultConfig::default());
            fabric
        }),
    ]
}

/// Runs every negative fixture and checks its expected code fires at
/// the expected severity. Returns `true` when all pass.
fn check_fixtures() -> bool {
    let mut ok = true;
    let mut show = |name: &str, code: &str, severity: Severity, report: &Report| {
        let fired = report
            .diagnostics()
            .iter()
            .any(|d| d.code.as_str() == code && d.severity == severity);
        println!(
            "{name}: {} (expects {code} at {severity:?})",
            if fired { "ok" } else { "MISSING" }
        );
        if !fired {
            for d in report.diagnostics() {
                println!("  saw {}", d.render());
            }
        }
        ok &= fired;
    };
    for (name, code, spec_fn) in fixtures() {
        show(
            name,
            code,
            Severity::Error,
            &panic_verify::verify(&spec_fn()),
        );
    }
    for (name, code, severity, spec_fn) in fabric_fixtures() {
        show(
            name,
            code,
            severity,
            &panic_verify::verify_fabric(&spec_fn()),
        );
    }
    ok
}

/// The flags `main` parses; any other `-`-prefixed argument is a
/// usage error.
const FLAGS: [&str; 4] = ["--json", "--deny-warnings", "-W", "--check-fixtures"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(a) = args
        .iter()
        .find(|a| a.starts_with('-') && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("unknown flag `{a}`; run with no args for usage");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--check-fixtures") {
        std::process::exit(i32::from(!check_fixtures()));
    }
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings" || a == "-W");
    let selected: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();

    let all = scenarios();
    if selected.is_empty() {
        eprintln!(
            "usage: panic-lint [--json] [--deny-warnings] <scenario>... | all | --check-fixtures\n"
        );
        eprintln!("scenarios:");
        for (id, desc, _) in &all {
            eprintln!("  {id:<16} {desc}");
        }
        std::process::exit(2);
    }

    let run_all = selected.iter().any(|s| s.as_str() == "all");
    for sel in &selected {
        if sel.as_str() != "all" && !all.iter().any(|(id, _, _)| *id == sel.as_str()) {
            eprintln!("unknown scenario `{sel}`; run with no args to list them");
            std::process::exit(2);
        }
    }

    let mut failed = false;
    let mut reports: Vec<(&str, Report)> = Vec::new();
    for (id, _, spec_fn) in &all {
        if run_all || selected.iter().any(|s| s.as_str() == *id) {
            let report = panic_verify::verify(&spec_fn());
            let bad = report.error_count() > 0 || (deny_warnings && report.warn_count() > 0);
            failed |= bad;
            reports.push((id, report));
        }
    }

    if json {
        // One JSON object per scenario, newline-delimited, in the
        // same envelope the management plane's online admission
        // rejections use (`panic-ctrl`): scenario, the control wire
        // protocol version, then the report.
        for (id, report) in &reports {
            println!(
                "{}",
                report.render_json_enveloped(id, u32::from(panic_ctrl::PROTO_VERSION))
            );
        }
    } else {
        for (id, report) in &reports {
            let verdict = if report.error_count() > 0 {
                "FAIL"
            } else if report.warn_count() > 0 {
                "warn"
            } else {
                "ok"
            };
            println!("{id}: {verdict}");
            for d in report.diagnostics() {
                if d.severity >= Severity::Warn || report.error_count() > 0 {
                    println!("  {}", d.render());
                }
            }
        }
    }

    std::process::exit(i32::from(failed));
}
