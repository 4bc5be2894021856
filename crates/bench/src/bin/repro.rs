//! `repro` — regenerate the paper's tables and figure claims.
//!
//! ```text
//! repro --help                   # full experiment catalog + flags
//! repro all                      # run everything (full length)
//! repro all --quick              # run everything (short simulations)
//! repro table3 kvs               # run a subset
//! repro table3 --trace t.json    # also capture a Chrome trace
//! repro table3 --metrics -       # also print counters/percentiles
//! ```
//!
//! `--trace` and `--metrics` attach a tracer/metrics registry to the
//! selected experiments' observed windows (see `docs/TRACING.md`).
//! Experiments without an instrumented window run unchanged, and the
//! run warns on stderr if that leaves a requested artifact empty;
//! `table3` additionally runs a full-NIC chain-scenario window so the
//! artifact contains router, engine, scheduler, and RMT events, and
//! `hol` re-runs its 50 % row on the pipeline NIC and on PANIC.

#![forbid(unsafe_code)]

use panic_bench::experiments;
use panic_bench::RunCtx;
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig, KvsScenario, KvsScenarioConfig};

/// Statically verifies the scenario configurations the experiments are
/// built on, so a broken config fails fast with readable diagnostics
/// instead of a mysterious mid-simulation panic. Error-severity
/// findings abort; warnings (e.g. PV002's chain-length model on
/// deliberately overdriven configs) are reported and tolerated.
fn preflight_lint() {
    let specs = [
        (
            "chain",
            ChainScenario::lint_spec(&ChainScenarioConfig::default()),
        ),
        (
            "kvs",
            KvsScenario::lint_spec(&KvsScenarioConfig::two_tenant_default()),
        ),
    ];
    for (name, spec) in &specs {
        let report = panic_verify::verify(spec);
        if report.error_count() > 0 {
            eprintln!(
                "preflight lint failed for `{name}`:\n{}",
                report.render_human()
            );
            std::process::exit(1);
        }
    }
}

fn print_catalog(all: &[experiments::Experiment]) {
    eprintln!("experiments:");
    for e in all {
        eprintln!("  {:<16} {}", e.id, e.desc);
    }
}

fn print_help(all: &[experiments::Experiment]) {
    eprintln!("usage: repro [flags] <experiment>... | all\n");
    eprintln!("flags:");
    eprintln!("  -q, --quick        shortened simulations (CI-sized)");
    eprintln!("  --trace <path>     write a Chrome trace_event JSON of the observed");
    eprintln!("                     windows to <path> (\"-\" = stdout); open in Perfetto");
    eprintln!("  --metrics <path>   write counters/histograms JSON to <path>");
    eprintln!("                     (\"-\" = render a markdown summary to stdout)");
    // Derived from the registry so the lists can't go stale.
    let by_scope = |scope: experiments::FaultScope| -> String {
        all.iter()
            .filter(|e| e.faults == scope)
            .map(|e| e.id)
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!("  --faults <arg>     fault schedule for fault-aware experiments:");
    eprintln!("                     a seed (decimal or 0x-hex) for the deterministic");
    eprintln!("                     generators, a NIC-level plan spec like");
    eprintln!(
        "                     `crash:1@500,stall:2@800+64` ({}),",
        by_scope(experiments::FaultScope::Nic)
    );
    eprintln!("                     or a fabric-level plan spec like");
    eprintln!(
        "                     `flap:0-1@500+64,mcrash:2@900+8` ({})",
        by_scope(experiments::FaultScope::Fabric)
    );
    eprintln!("                     — exit 2 if a plan's scope cannot match the selected");
    eprintln!("                     experiment or names components absent from the fabric");
    eprintln!("  -h, --help         this catalog\n");
    print_catalog(all);
}

/// Parsed command line.
struct Args {
    quick: bool,
    trace: Option<String>,
    metrics: Option<String>,
    faults: Option<faults::FaultArg>,
    selected: Vec<String>,
}

fn parse_args(all: &[experiments::Experiment]) -> Args {
    let mut out = Args {
        quick: false,
        trace: None,
        metrics: None,
        faults: None,
        selected: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut flag_with_value = |name: &str, a: &str, wants: &str| -> Option<String> {
            if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                return Some(v.to_string());
            }
            if a == name {
                return Some(it.next().unwrap_or_else(|| {
                    eprintln!("{name} requires {wants}");
                    std::process::exit(2);
                }));
            }
            None
        };
        if a == "--quick" || a == "-q" {
            out.quick = true;
        } else if a == "--help" || a == "-h" {
            print_help(all);
            std::process::exit(0);
        } else if let Some(v) = flag_with_value("--trace", &a, "a path argument (\"-\" = stdout)") {
            out.trace = Some(v);
        } else if let Some(v) = flag_with_value("--metrics", &a, "a path argument (\"-\" = stdout)")
        {
            out.metrics = Some(v);
        } else if let Some(v) = flag_with_value("--faults", &a, "a seed or plan spec") {
            match v.parse::<faults::FaultArg>() {
                Ok(arg) => out.faults = Some(arg),
                Err(e) => {
                    eprintln!("--faults: {e}");
                    std::process::exit(2);
                }
            }
        } else if a.starts_with('-') {
            eprintln!("unknown flag `{a}`; see --help");
            std::process::exit(2);
        } else {
            out.selected.push(a);
        }
    }
    out
}

/// Writes a `--trace` / `--metrics` artifact. `empty` means no
/// selected experiment fed it: the file is still written (scripts may
/// expect it), but the run says so instead of a bare "wrote".
fn write_artifact(flag: &str, path: &str, contents: &str, empty: bool) {
    if path == "-" {
        println!("{contents}");
    } else if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    } else if !empty {
        eprintln!("wrote {path}");
    }
    if empty {
        eprintln!(
            "warning: {flag} captured nothing: no selected experiment has an observed \
             window (docs/TRACING.md lists the ones that do)"
        );
    }
}

fn main() {
    let all = experiments::all();
    let args = parse_args(&all);

    if args.selected.is_empty() {
        print_help(&all);
        std::process::exit(2);
    }

    // Experiment ids use hyphens; accept underscores as a convenience
    // (`fault_recovery` == `fault-recovery`).
    let selected: Vec<String> = args.selected.iter().map(|s| s.replace('_', "-")).collect();

    // Reject unknown experiment names up front: a typo should fail
    // loudly, not silently run the subset that happened to match.
    let unknown: Vec<&String> = selected
        .iter()
        .filter(|s| s.as_str() != "all" && !all.iter().any(|e| e.id == s.as_str()))
        .collect();
    if !unknown.is_empty() {
        for u in &unknown {
            eprintln!("unknown experiment `{u}`");
        }
        eprintln!("\nvalid names (or `all`):");
        print_catalog(&all);
        std::process::exit(2);
    }

    let run_all = selected.iter().any(|s| s.as_str() == "all");

    // An explicit fault plan has a scope; handing it to an experiment
    // on the other plane is a spec error, not something to silently
    // ignore. Seeds are scope-agnostic, and under `all` both planes
    // run — each fault-aware experiment picks the argument up where it
    // applies.
    if let (Some(arg), false) = (&args.faults, run_all) {
        use experiments::FaultScope;
        let mismatch = |e: &experiments::Experiment| match (arg, e.faults) {
            (faults::FaultArg::Plan(_), FaultScope::Fabric) => Some(
                "a single-NIC fault plan, but it models rack-scale fabric faults — \
                 use fabric clauses (flap:/lag:/freeze:/part:/mcrash:/mloss:) or a seed",
            ),
            (faults::FaultArg::Fabric(_), FaultScope::Nic) => Some(
                "a fabric-level fault plan, but it models a single NIC — \
                 use NIC clauses (e.g. `crash:1@500,stall:2@800+64`) or a seed",
            ),
            _ => None,
        };
        for e in all
            .iter()
            .filter(|e| e.faults != FaultScope::None && selected.iter().any(|s| s.as_str() == e.id))
        {
            if let Some(why) = mismatch(e) {
                eprintln!("--faults: `{}` was handed {why}", e.id);
                std::process::exit(2);
            }
        }
    }

    preflight_lint();

    let tracer = if args.trace.is_some() {
        trace::Tracer::chrome()
    } else {
        trace::Tracer::disabled()
    };
    let mut ctx = RunCtx::observed(args.quick, tracer, args.metrics.is_some());
    ctx.faults = args.faults.clone();

    for e in &all {
        if run_all || selected.iter().any(|s| s.as_str() == e.id) {
            eprintln!("running {}: {} ...", e.id, e.desc);
            print!("{}", (e.run)(&mut ctx));
        }
    }

    if let Some(path) = &args.trace {
        // Empty = what a tracer nobody attached renders.
        let unused = trace::Tracer::chrome().chrome_json();
        match ctx.tracer.chrome_json() {
            Some(json) => write_artifact("--trace", path, &json, Some(&json) == unused.as_ref()),
            None => eprintln!("--trace: no trace captured (internal error)"),
        }
    }
    if let Some(path) = &args.metrics {
        let empty =
            ctx.metrics.counters().next().is_none() && ctx.metrics.histograms().next().is_none();
        let contents = if path == "-" {
            ctx.metrics.render_markdown()
        } else {
            ctx.metrics.to_json()
        };
        write_artifact("--metrics", path, &contents, empty);
    }
}
