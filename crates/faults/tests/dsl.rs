//! The fault DSLs are a text front door: whatever string arrives —
//! `repro --faults <spec>` hands them user input — parsing returns a
//! typed error or a plan whose every number is in range. Never a
//! panic, never a silently truncated value.

use faults::{FabricFaultPlan, FaultArg, FaultKind, FaultPlan};
use proptest::prelude::*;

/// Fragments the DSLs are made of, plus the numbers sitting on either
/// side of every width the parsers narrow to. Soups of these reach
/// deep into the clause grammars, where uniformly random text never
/// gets past the first `split_once`.
#[rustfmt::skip]
const VOCABULARY: [&str; 40] = [
    "crash", "stall", "degrade", "refuse", "drop", "slow", "hold",
    "flap", "lag", "freeze", "part", "mcrash", "mloss",
    ":", ":", "@", "@", "+", "+", "x", "/", "-", ",", ";", " ",
    "0", "1", "2", "4", "5", "7",
    "65535", "65536", "65539", "4294967295", "4294967296", "4294967297",
    "18446744073709551615", "18446744073709551616", "99999999999999999999999",
];

/// Arbitrary printable ASCII.
fn printable() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..48)
        .prop_map(|b| b.into_iter().map(char::from).collect())
}

/// A concatenation of [`VOCABULARY`] entries.
fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..VOCABULARY.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| VOCABULARY[i]).collect())
}

/// The duration of a windowed NIC-level fault.
fn window_of(kind: FaultKind) -> Option<u64> {
    match kind {
        FaultKind::EngineStall { duration, .. }
        | FaultKind::SchedRefuse { duration, .. }
        | FaultKind::LinkSlow { duration, .. }
        | FaultKind::CreditHold { duration, .. } => Some(duration.0),
        FaultKind::EngineCrash { .. }
        | FaultKind::EngineDegrade { .. }
        | FaultKind::FlitDrop { .. } => None,
    }
}

/// Every front door on one input: none may panic, and whatever a
/// parser accepts must survive a `Display` round trip with every
/// window ending on the clock.
fn check(spec: &str) {
    if let Ok(plan) = FaultPlan::parse(spec) {
        assert_eq!(
            FaultPlan::parse(&plan.to_string()),
            Ok(plan.clone()),
            "{spec:?}"
        );
        for ev in plan.events() {
            let end = ev.at.0.checked_add(window_of(ev.kind).unwrap_or(0));
            assert!(
                end.is_some(),
                "{spec:?} accepted a window past u64::MAX: {ev}"
            );
        }
    }
    if let Ok(plan) = FabricFaultPlan::parse(spec) {
        assert_eq!(
            FabricFaultPlan::parse(&plan.to_string()),
            Ok(plan),
            "{spec:?}"
        );
    }
    let _ = spec.parse::<FaultArg>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn printable_strings_never_panic(spec in printable()) {
        check(&spec);
    }

    #[test]
    fn token_soups_never_panic_and_accepted_plans_are_in_range(spec in token_soup()) {
        check(&spec);
    }

    /// Well-formed clauses over the full 64-bit range of every number:
    /// accepted exactly when each field fits its type, and then
    /// reproduced digit for digit — so an id, multiplier or credit
    /// count can never come back truncated.
    #[test]
    fn numeric_fields_are_range_checked(e in any::<u64>(), at in any::<u64>(), dur in any::<u64>(), n in any::<u64>()) {
        let fits = |v: u64, max: u64| v <= max;
        let window = at.checked_add(dur).is_some();
        let cases = [
            (format!("crash:{e}@{at}"), fits(e, u64::from(u16::MAX))),
            (format!("drop:{e}@{at}"), fits(e, u64::from(u16::MAX))),
            (format!("stall:{}@{at}+{dur}", e % 65536), window),
            (format!("refuse:{}@{at}+{dur}", e % 65536), window),
            (format!("slow:3:1@{at}+{dur}/{}", n.max(2)), window),
            (format!("hold:3:1@{at}+{dur}x{n}"), window && n >= 1 && fits(n, u64::from(u32::MAX))),
            (format!("degrade:3@{at}x{n}"), n >= 1 && fits(n, u64::from(u32::MAX))),
        ];
        for (spec, valid) in cases {
            match FaultPlan::parse(&spec) {
                Ok(plan) => {
                    prop_assert!(valid, "{} accepted", spec);
                    prop_assert_eq!(plan.to_string(), spec);
                }
                Err(why) => {
                    prop_assert!(!valid, "{} rejected: {}", spec, why);
                    prop_assert!(why.starts_with("bad fault clause"), "{}", why);
                }
            }
        }
        let lag = format!("lag:0-1@{at}+{dur}x{n}");
        match FabricFaultPlan::parse(&lag) {
            Ok(plan) => prop_assert_eq!(plan.to_string(), lag),
            Err(why) => prop_assert!(n < 2 || n > u64::from(u32::MAX), "{} rejected: {}", lag, why),
        }
    }
}

/// The literals from the defect report: each used to parse into a
/// different plan than the one written (or into one whose window
/// overflowed the clock at fire time). Each error names its field.
#[test]
fn out_of_range_literals_are_rejected_by_name() {
    let max = u64::MAX;
    for (spec, field) in [
        ("crash:65539@100", "engine id"),
        ("degrade:3@100x4294967297", "factor"),
        ("hold:3:1@10+5x4294967297", "credits"),
        (&*format!("stall:3@10+{max}"), "duration"),
        (&*format!("refuse:3@10+{max}"), "duration"),
        (&*format!("slow:3:1@10+{max}/2"), "duration"),
        (&*format!("hold:3:1@10+{max}x1"), "duration"),
    ] {
        let why = FaultPlan::parse(spec).expect_err(spec);
        assert!(why.starts_with("bad fault clause"), "{why}");
        assert!(
            why.contains(&format!("{field} out of range")),
            "{spec}: {why}"
        );
        assert!(spec.parse::<FaultArg>().is_err(), "{spec} via FaultArg");
    }
    let why = FabricFaultPlan::parse("lag:0-1@10+5x4294967297").expect_err("lag factor");
    assert!(why.contains("factor out of range"), "{why}");
    // The largest window that still ends on the clock is fine.
    let edge = format!("stall:3@10+{}", max - 10);
    assert_eq!(FaultPlan::parse(&edge).unwrap().to_string(), edge);
}
