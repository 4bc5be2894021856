//! Negative-fixture self-test for `panic-lint`: the shipped binary
//! must (a) stay green on the shipped scenarios, (b) fail each
//! deliberately broken PV6xx–PV8xx fixture with the expected
//! diagnostic, and (c) refuse a command line it does not parse.
//!
//! Exercising the *binary* (via `CARGO_BIN_EXE_panic-lint`) rather
//! than the library keeps the CLI surface — argument parsing, exit
//! codes, fixture wiring — under test, not just the lint pass.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_panic-lint"))
        .args(args)
        .output()
        .expect("spawn panic-lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn lint(args: &[&str]) -> (bool, String) {
    let (code, text) = run(args);
    (code == Some(0), text)
}

#[test]
fn shipped_scenarios_stay_green() {
    let (ok, text) = lint(&["all"]);
    assert!(ok, "shipped scenarios must lint clean:\n{text}");
}

#[test]
fn pv6xx_pv7xx_and_pv8xx_fixtures_all_fire() {
    let (ok, text) = lint(&["--check-fixtures"]);
    assert!(ok, "a lint fixture failed to fire:\n{text}");
    for code in [
        "PV601", "PV602", "PV603", "PV604", "PV605", "PV701", "PV702", "PV703", "PV704", "PV802",
        "PV804",
    ] {
        let line = text
            .lines()
            .find(|l| l.contains(code))
            .unwrap_or_else(|| panic!("no fixture line for {code}:\n{text}"));
        assert!(line.contains("ok"), "fixture for {code} missing:\n{text}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [
        &["--jsn", "all"][..],
        &["--explain", "PV101"],
        &["--check-fixtures", "-x"],
    ] {
        let (code, text) = run(args);
        assert_eq!(code, Some(2), "{args:?}:\n{text}");
        assert!(text.contains("unknown flag"), "{args:?}:\n{text}");
    }
}

#[test]
fn no_arguments_prints_usage() {
    let (code, text) = run(&[]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.starts_with("usage: panic-lint"), "{text}");
    assert!(text.contains("--check-fixtures"), "{text}");
}

/// The offline `--json` output uses the same envelope — scenario,
/// control-protocol version, report — that the management plane's
/// online admission rejections serialize (`panic-ctrl`), byte for
/// byte. A drift between the two serializers fails here.
#[test]
fn json_envelope_matches_the_online_admission_serializer() {
    let (ok, text) = lint(&["--json", "kvs"]);
    assert!(ok, "kvs must lint clean:\n{text}");
    let line = text.lines().next().expect("one JSON line");
    let spec = panic_core::scenarios::KvsScenario::lint_spec(
        &panic_core::scenarios::KvsScenarioConfig::two_tenant_default(),
    );
    let expected = panic_verify::verify(&spec)
        .render_json_enveloped("kvs", u32::from(panic_ctrl::PROTO_VERSION));
    assert_eq!(line, expected, "offline and online envelopes must agree");
    assert!(line.starts_with("{\"scenario\":\"kvs\",\"proto_version\":1,\"report\":{"));
}
