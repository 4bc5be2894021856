//! The lint catalogue, held to the code: DESIGN.md's diagnostic-code
//! table plus docs/FAULTS.md's PV8xx table give every code in
//! [`Code::ALL`] exactly one row, and no row names a code the verifier
//! cannot emit (a retired lint must leave the docs with the code).

use panic_verify::Code;

/// The code opening each row of the table that follows `heading` in
/// `doc`, up to the next heading.
fn rows(doc: &str, heading: &str) -> Vec<String> {
    let section = doc
        .split(heading)
        .nth(1)
        .and_then(|rest| rest.split("\n#").next())
        .unwrap_or_else(|| panic!("no section {heading:?}"));
    section
        .lines()
        .filter_map(|line| {
            let code = line.strip_prefix("| PV")?.split('|').next()?.trim();
            Some(format!("PV{code}"))
        })
        .collect()
}

#[test]
fn every_code_has_exactly_one_documented_row() {
    let mut documented = rows(
        include_str!("../../../DESIGN.md"),
        "Diagnostic codes are stable",
    );
    documented.extend(rows(
        include_str!("../../../docs/FAULTS.md"),
        "### Static lints (PV8xx)",
    ));
    for code in Code::ALL {
        let n = documented.iter().filter(|d| *d == code.as_str()).count();
        assert_eq!(n, 1, "{code}: {n} rows across DESIGN.md and docs/FAULTS.md");
    }
    for row in &documented {
        assert!(
            Code::ALL.iter().any(|c| c.as_str() == row),
            "{row} is documented but not in Code::ALL"
        );
    }
}
