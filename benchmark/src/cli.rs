//! Command line of `panic-benchmark` / `panic-benchmark-traced`
//! (normally reached through `benchmark/run.sh`).
//!
//! ```text
//! run.sh [--seed N] [--traced] [--smoke] [--workload W] [--seconds S]
//!     the suite: every workload (or just W), each in a child process;
//!     prints `workload metric value unit` lines, writes results.json
//!     (and trace.json when --traced) under --out-dir, which run.sh
//!     sets to benchmark/out
//! run.sh --workload W --seed N --seconds S --trace 0|1
//!     one run in this process, as the benchmark contract invokes it;
//!     the last stdout line is the JSON result
//! run.sh --compare A.json B.json
//! run.sh --print-benchmark-json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::catalog::{self, PER_LAYER, RUN_SECONDS};
use crate::json::{self, Value};
use crate::workloads::{self, WorkloadSpec, WORKLOADS};
use crate::{compare, e2e, layers, report};

/// `--smoke` runs each workload at this fraction of its size.
const SMOKE_DIV: u64 = 20;
/// Share of `--seconds` a traced run spends on repetitions; the rest
/// of its budget goes to the variant rounds and the layer kernels.
const TRACED_REP_SHARE: f64 = 0.4;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    out_dir: Option<PathBuf>,
    detail_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

fn usage() -> String {
    "usage: run.sh [--seed N] [--traced] [--smoke] [--workload W] [--seconds S]\n       \
     run.sh --workload W --seed N --seconds S --trace 0|1\n       \
     run.sh --compare A.json B.json\n       \
     run.sh --print-benchmark-json"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?),
            "--seed" => {
                args.seed = value(flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be finite and non-negative".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = Some(value(flag, &mut it)?.into()),
            "--detail-out" => args.detail_out = Some(value(flag, &mut it)?.into()),
            "--trace-out" => args.trace_out = Some(value(flag, &mut it)?.into()),
            "--compare" => {
                args.compare = Some((value(flag, &mut it)?.into(), value(flag, &mut it)?.into()));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static WorkloadSpec, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", names.join(", "))
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metric_lines(workload: &str, metrics: impl IntoIterator<Item = (&'static str, f64)>) {
    for (name, value) in metrics {
        let unit = catalog::unit_of(name).expect("catalogued metric");
        println!("{workload} {name} {value} {unit}");
    }
}

/// One run in this process; the last stdout line is the result.
fn single_run(args: &Args, name: &str, traced: bool) -> Result<ExitCode, String> {
    let full = find_workload(name)?;
    let spec = if args.smoke {
        full.scaled(SMOKE_DIV)
    } else {
        *full
    };
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let (correct, attempted, failed, gates, metrics, detail) = if traced {
        let t = layers::measure_traced(&spec, args.seed, seconds * TRACED_REP_SHARE, args.smoke);
        if let Some(path) = &args.trace_out {
            let id = WORKLOADS.iter().position(|w| w.name == name).unwrap_or(0) as u32;
            write_file(path, &t.recorder.chrome_json(name, id))?;
        }
        let metrics: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .map(|m| (m.name, t.metrics[m.name]))
            .collect();
        (
            t.gate_failures.is_empty(),
            t.attempted,
            t.failed,
            t.gate_failures.clone(),
            metrics,
            report::traced_detail(name, &t),
        )
    } else {
        let m = e2e::measure(&spec, args.seed, seconds, args.smoke);
        let metrics: Vec<(&'static str, f64)> = report::end_to_end(&m)
            .into_iter()
            .map(|(n, metric)| (n, metric.value))
            .collect();
        (
            m.gate_failures.is_empty(),
            m.attempted,
            m.failed,
            m.gate_failures.clone(),
            metrics,
            report::untraced_detail(name, &m),
        )
    };
    for g in &gates {
        eprintln!("{name}: GATE FAILED: {g}");
    }
    if let Some(path) = &args.detail_out {
        write_file(path, &detail.render_pretty())?;
    }
    print_metric_lines(name, metrics.iter().copied());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers were taken: enough to tell two machines apart.
fn machine_block(calib_ns: Option<f64>) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let or_unknown = |v: Option<String>| Value::str(v.unwrap_or_else(|| "unknown".into()));
    Value::obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Value::str(cpu_model)),
        ("rustc", or_unknown(command_output("rustc", &["--version"]))),
        (
            "git_commit",
            or_unknown(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("calib_ns", calib_ns.map_or(Value::Null, Value::Num)),
        ("calib_ref_ns", Value::Num(crate::calib::CALIB_REF_S * 1e9)),
    ])
}

/// The binary a child run uses: the traced sibling for traced runs.
fn child_binary(traced: bool) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    if !traced {
        return Ok(me);
    }
    let sibling = me.with_file_name("panic-benchmark-traced");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} not built (run through benchmark/run.sh)",
            sibling.display()
        ))
    }
}

/// Every workload (or the one named), each in its own child process so
/// `peak_rss_mb` is per workload.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&WorkloadSpec> = match &args.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let binary = child_binary(args.traced)?;
    let mut records = Vec::new();
    let mut trace_events: Vec<Value> = Vec::new();
    let mut all_correct = true;
    let mut calib_ns = None;
    for w in selected {
        let detail_path = out_dir.join(format!("{}.detail.json", w.name));
        let trace_path = out_dir.join(format!("{}.trace.json", w.name));
        let mut cmd = Command::new(&binary);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--detail-out")
            .arg(&detail_path);
        if args.traced {
            cmd.arg("--trace-out").arg(&trace_path);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        // The child's stdout (metric lines, then the result line) and
        // stderr (gate failures) pass straight through.
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
        all_correct &= status.success();
        let detail = std::fs::read_to_string(&detail_path)
            .map_err(|e| format!("{}: {e}", detail_path.display()))
            .and_then(|text| json::parse(&text))?;
        let _ = std::fs::remove_file(&detail_path);
        if args.traced {
            calib_ns = calib_ns.or_else(|| {
                detail
                    .get("per_layer")?
                    .get("harness.calib_ns")?
                    .get("value")?
                    .as_f64()
            });
            let text = std::fs::read_to_string(&trace_path)
                .map_err(|e| format!("{}: {e}", trace_path.display()))?;
            let _ = std::fs::remove_file(&trace_path);
            if let Some(events) = json::parse(&text)?
                .get("traceEvents")
                .and_then(Value::as_arr)
            {
                trace_events.extend_from_slice(events);
            }
        }
        records.push(detail);
    }
    let results = Value::obj([
        ("schema", Value::str("panic-benchmark/v1")),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("traced", Value::Bool(args.traced)),
        ("machine", machine_block(calib_ns)),
        ("workloads", Value::Arr(records)),
    ]);
    let results_path = out_dir.join("results.json");
    write_file(&results_path, &results.render_pretty())?;
    eprintln!("wrote {}", results_path.display());
    if args.traced {
        let trace = Value::obj([
            ("displayTimeUnit", Value::str("ns")),
            ("traceEvents", Value::Arr(trace_events)),
        ]);
        let trace_path = out_dir.join("trace.json");
        write_file(&trace_path, &trace.render())?;
        eprintln!("wrote {}", trace_path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (text, any_worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{text}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    if args.print_benchmark_json {
        print!("{}", catalog::benchmark_json().render_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    match (args.trace, &args.workload) {
        (Some(traced), Some(name)) => single_run(&args, name, traced),
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, _) => suite(&args),
    }
}

/// Entry point shared by both binaries. Usage errors exit 2, failed
/// correctness gates exit 1.
#[must_use]
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_string()).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = parse_args(&argv(&[
            "--workload",
            "chain_gap",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("chain_gap"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(8.0), Some(true)));
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
        assert!(dispatch(&argv(&["--trace", "0"])).is_err());
        assert!(dispatch(&argv(&["--workload", "nope", "--trace", "0"])).is_err());
    }
}
