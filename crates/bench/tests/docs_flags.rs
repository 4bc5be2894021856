//! The docs cite only flags `repro` has: every `--flag` on a line that
//! names `repro`, in the user-facing docs below, must appear in
//! `repro --help`. A flag `repro` drops then fails here until the docs
//! that still teach it are fixed.

use std::path::Path;
use std::process::{Command, Output};

/// The docs a reader learns `repro`'s command line from (docs/PERF.md,
/// CHANGES.md and ROADMAP.md are history, not instructions).
const DOCS: [&str; 9] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/README.md",
    "docs/FABRIC.md",
    "docs/FAULTS.md",
    "docs/CONTROL.md",
    "docs/TENANCY.md",
    "docs/TRACING.md",
];

/// Flags of another binary that share a line with `repro`, and why.
const OTHER_BINARIES: [(&str, &str); 2] = [
    (
        "--release",
        "cargo's profile flag in `cargo run --release --bin repro`",
    ),
    (
        "--bin",
        "cargo's target flag in `cargo run --release --bin repro`",
    ),
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// The `--flag` tokens in `line`, each the longest run of `[a-z0-9-]`
/// after the dashes.
fn flags(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("--") {
        let tail = &rest[at..];
        let end = tail[2..]
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .map_or(tail.len(), |n| n + 2);
        if tail[2..].starts_with(|c: char| c.is_ascii_lowercase()) {
            out.push(&tail[..end]);
        }
        rest = &tail[end.max(2)..];
    }
    out
}

#[test]
fn every_flag_the_docs_pass_to_repro_is_in_its_help() {
    let help = repro(&["--help"]);
    assert!(help.status.success(), "repro --help failed: {help:?}");
    let text =
        String::from_utf8_lossy(&help.stderr).into_owned() + &String::from_utf8_lossy(&help.stdout);
    let known = flags(&text);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut stale = Vec::new();
    for doc in DOCS {
        let body = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (n, line) in body.lines().enumerate() {
            if !line.contains("repro") {
                continue;
            }
            for flag in flags(line) {
                let other = OTHER_BINARIES.iter().any(|&(f, _)| f == flag);
                if !other && !known.contains(&flag) {
                    stale.push(format!("{doc}:{}: {flag}", n + 1));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "docs pass `repro` flags its --help does not list:\n{}",
        stale.join("\n")
    );
}

#[test]
fn threads_is_an_unknown_flag() {
    let out = repro(&["rack", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn flags_are_whole_tokens() {
    assert_eq!(
        flags("`repro rack --quick --metrics -` then --faults=0x1, -- and --9"),
        ["--quick", "--metrics", "--faults"]
    );
}
