//! The fault DSLs are a text front door: whatever string arrives —
//! `repro --faults <spec>` hands them user input — parsing returns a
//! typed error or a plan whose every number is in range. Never a
//! panic, never a silently truncated value.

use faults::{FabricFaultPlan, FabricFaultUniverse, FaultArg, FaultKind, FaultPlan, FaultUniverse};
use packet::EngineId;
use proptest::prelude::*;
use sim_core::time::Cycle;

mod parent_dsl;

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

/// One well-formed clause of every form the two DSLs accept.
const FORMS: [&str; 14] = [
    "crash:3@100",
    "drop:6@500",
    "stall:5@200+64",
    "refuse:1@400+32",
    "degrade:2@300x4",
    "slow:4:2@600+128/3",
    "hold:7:0@700+256x2",
    "flap:0-1@100+500",
    "freeze:2-3@50+64",
    "lag:1-2@200+300x4",
    "part:3@400+128",
    "part:2@900",
    "mcrash:1@600+8",
    "mloss:0@700",
];

/// Two well-formed clauses with up to four characters between them
/// each swapped for a [`VOCABULARY`] entry (or dropped). Unlike the
/// soups, these get past the clause prologue and into every per-kind
/// grammar, one or two mistakes deep — where the *order* in which a
/// grammar reads its fields decides which error is reported.
fn near_miss() -> impl Strategy<Value = String> {
    let edits = proptest::collection::vec((0usize..64, 0usize..=VOCABULARY.len()), 0..5);
    (0usize..FORMS.len(), 0usize..FORMS.len(), edits).prop_map(|(a, b, edits)| {
        let mut spec: Vec<String> = [FORMS[a], ",", FORMS[b]]
            .concat()
            .chars()
            .map(String::from)
            .collect();
        for (at, token) in edits {
            let at = at % spec.len();
            spec[at] = VOCABULARY.get(token).copied().unwrap_or("").to_string();
        }
        spec.concat()
    })
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
    check_against_parent(spec);
}

/// True when `spec` opens with `<kind>:` for a kind of either family —
/// where the parent's `FaultArg` knew which family's error to report.
fn opens_with_known_kind(spec: &str) -> bool {
    spec.trim().split_once(':').is_some_and(|(kind, _)| {
        VOCABULARY[..13].contains(&kind) // the thirteen kind names lead the table
    })
}

/// `FaultArg` against the parent's implementation: the same variant
/// and plan for every accepted input, the same error text wherever the
/// spec opens with a known kind. The two ways they may differ:
///
/// * a fabric window that runs past the end of the clock (`at + dur`
///   over 64 bits) is rejected now — the parent took it unchecked;
/// * when the spec does *not* open with `<kind>:` (an empty first
///   clause, a space before the colon), the parent worded the error as
///   a NIC one regardless; now the first non-empty clause's kind picks
///   the family. Only the wording of a rejection moves.
fn check_against_parent(spec: &str) {
    let new = spec.parse::<FaultArg>();
    let old = parent_dsl::fault_arg(spec);
    let past_the_clock = |why: &str| {
        why.starts_with("bad fabric fault clause") && why.contains("`at + dur` must fit in 64 bits")
    };
    match (&new, &old) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "{spec:?}"),
        (Err(why), Ok(FaultArg::Fabric(_))) => assert!(past_the_clock(why), "{spec:?}: {why}"),
        (Err(new), Err(old)) if opens_with_known_kind(spec) => {
            assert!(
                new == old || past_the_clock(new),
                "{spec:?}: {new:?} was {old:?}"
            );
        }
        (Err(_), Err(_)) => {}
        _ => panic!("{spec:?}: {new:?} was {old:?}"),
    }
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

    #[test]
    fn near_misses_never_panic_and_read_as_the_parent_read_them(spec in near_miss()) {
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
            check_against_parent(&spec);
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
        // The fabric forms, under the same range table: member indices
        // fit a `usize`, `<mult>` a `u32`, windows end on the clock.
        let member = usize::try_from(e).is_ok();
        let (a, b) = (e, e ^ 1);
        let cases = [
            (format!("flap:{a}-{b}@{at}+{dur}"), member && window),
            (format!("freeze:{a}-{b}@{at}+{dur}"), member && window),
            (format!("lag:0-1@{at}+{dur}x{n}"), window && n >= 2 && fits(n, u64::from(u32::MAX))),
            (format!("part:{e}@{at}+{dur}"), member && window),
            (format!("part:{e}@{at}"), member),
            (format!("mcrash:{e}@{at}+{n}"), member && n >= 1),
            (format!("mloss:{e}@{at}"), member),
        ];
        for (spec, valid) in cases {
            check_against_parent(&spec);
            match FabricFaultPlan::parse(&spec) {
                Ok(plan) => {
                    prop_assert!(valid, "{} accepted", spec);
                    prop_assert_eq!(plan.to_string(), spec);
                }
                Err(why) => {
                    prop_assert!(!valid, "{} rejected: {}", spec, why);
                    prop_assert!(why.starts_with("bad fabric fault clause"), "{}", why);
                }
            }
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
    // The fabric DSL holds its windows to the same rule.
    for form in ["flap:0-1@10+", "freeze:0-1@10+", "part:2@10+"] {
        let why = FabricFaultPlan::parse(&format!("{form}{max}")).expect_err(form);
        assert!(why.starts_with("bad fabric fault clause"), "{why}");
        assert!(why.contains("duration out of range"), "{form}: {why}");
        let edge = format!("{form}{}", max - 10);
        assert_eq!(FabricFaultPlan::parse(&edge).unwrap().to_string(), edge);
    }
    let why = FabricFaultPlan::parse(&format!("lag:0-1@10+{max}x2")).expect_err("lag window");
    assert!(why.contains("duration out of range"), "{why}");
    // A recovery delay is counted in epochs, not cycles: any length
    // parses, and one past the end of the clock means "never".
    let forever = format!("mcrash:2@300+{max}");
    assert_eq!(
        FabricFaultPlan::parse(&forever).unwrap().to_string(),
        forever
    );
}

/// What the seeded generators draw is part of every recorded seed's
/// meaning. These strings were printed by commit a803a06; a change to
/// the rng draw order, the weights or `Display` shows up here, not as
/// a silently different chaos run.
#[test]
fn seeded_plans_are_pinned() {
    let nic = FaultUniverse::new((0..8).map(EngineId).collect(), Cycle(10_000));
    assert_eq!(
        FaultPlan::generate(0xC0FFEE, &nic, 24).to_string(),
        "hold:3:1@320+129x2,degrade:1@636x6,hold:6:1@858+113x3,degrade:1@903x5,\
         refuse:7@1370+19,refuse:0@1547+39,hold:0:0@2658+156x3,degrade:3@2684x3,\
         slow:4:3@2942+427/3,degrade:7@3431x6,drop:3@4159,hold:3:3@5510+345x1,\
         refuse:7@5547+45,drop:6@6116,refuse:4@6207+113,stall:6@6308+240,drop:2@6451,\
         refuse:5@6464+76,drop:7@6490,hold:6:2@7516+123x2,crash:3@7909,\
         slow:7:1@8275+78/7,hold:2:2@9546+439x2,stall:2@9767+155"
    );
    let ring = vec![(0, 1), (1, 2), (2, 3), (0, 3)];
    let mut rack = FabricFaultUniverse::new(4, ring, Cycle(10_000));
    assert_eq!(
        FabricFaultPlan::generate(0xC0FFEE, &rack, 24).to_string(),
        "lag:2-3@53+827x6,flap:0-1@843+887,freeze:0-1@1301+425,flap:1-2@1401+917,\
         lag:2-3@2694+167x2,flap:0-3@2856+807,freeze:2-3@2939+225,lag:0-3@2974+652x5,\
         flap:1-2@3637+709,freeze:1-2@4028+131,freeze:2-3@4259+456,lag:0-1@4643+739x3,\
         freeze:0-3@5107+502,flap:0-3@6067+776,flap:0-1@6324+744,flap:2-3@6365+123,\
         freeze:2-3@7007+71,part:3@7565+491,flap:0-1@7846+632,mcrash:1@9001+4,\
         flap:2-3@9150+758,flap:0-3@9690+994,freeze:0-1@9714+339,freeze:2-3@9777+332"
    );
    // With permanent damage allowed, so `mloss` is drawn too.
    rack.allow_permanent = true;
    rack.max_member_crashes = 2;
    assert_eq!(
        FabricFaultPlan::generate(0xC0FFEE, &rack, 48).to_string(),
        "lag:2-3@53+827x6,lag:0-3@136+527x6,lag:2-3@601+920x5,flap:0-1@786+634,\
         flap:0-1@843+887,freeze:0-1@1301+425,flap:0-3@1315+643,flap:2-3@1345+149,\
         flap:1-2@1401+917,flap:2-3@1521+728,lag:1-2@1654+846x4,part:2@2545+363,\
         lag:2-3@2694+167x2,flap:0-3@2827+198,flap:0-3@2856+807,freeze:2-3@2939+225,\
         lag:0-3@2974+652x5,mloss:1@3637,freeze:1-2@4028+131,lag:2-3@4066+745x5,\
         freeze:2-3@4259+456,lag:0-1@4643+739x3,freeze:2-3@5064+424,\
         freeze:0-3@5107+502,flap:0-3@6062+763,flap:0-3@6067+776,flap:1-2@6133+264,\
         flap:0-1@6324+744,flap:2-3@6365+123,freeze:1-2@6562+195,freeze:1-2@6682+226,\
         freeze:2-3@7007+71,lag:0-3@7015+795x5,flap:2-3@7319+351,part:3@7565+491,\
         flap:1-2@7705+253,flap:2-3@7782+838,flap:0-1@7846+632,flap:2-3@8100+836,\
         part:2@8102+561,lag:0-1@8270+412x3,flap:1-2@8534+358,mcrash:1@9001+4,\
         flap:2-3@9150+758,flap:0-3@9690+994,freeze:0-1@9714+339,freeze:2-3@9777+332,\
         flap:0-1@9814+364"
    );
}
