//! The `--faults` front door as it stood at commit a803a06, before the
//! two DSLs shared one clause scanner: `parse_clause` (plan.rs),
//! `parse_fabric_clause` (fabric.rs) and `FaultArg::from_str`, bodies
//! verbatim, with the two `parse` clause loops as free functions.
//! Test-only: `dsl.rs` holds today's parsers to these over its token
//! soups.

use faults::{
    FabricFaultEvent, FabricFaultKind, FabricFaultPlan, FaultArg, FaultEvent, FaultKind, FaultPlan,
};
use packet::EngineId;
use sim_core::time::{Cycle, Cycles};

/// `FaultPlan::parse`.
pub fn nic_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut events = Vec::new();
    for clause in spec.split([',', ';']) {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        events.push(parse_clause(clause)?);
    }
    if events.is_empty() {
        return Err("empty fault spec".to_string());
    }
    Ok(FaultPlan::new(events))
}

/// `FabricFaultPlan::parse`.
pub fn fabric_plan(spec: &str) -> Result<FabricFaultPlan, String> {
    let mut events = Vec::new();
    for clause in spec.split([',', ';']) {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        events.push(parse_fabric_clause(clause)?);
    }
    if events.is_empty() {
        return Err("empty fabric fault spec".to_string());
    }
    Ok(FabricFaultPlan::new(events))
}

/// `<FaultArg as FromStr>::from_str`.
pub fn fault_arg(s: &str) -> Result<FaultArg, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16)
            .map(FaultArg::Seed)
            .map_err(|_| format!("bad hex fault seed {s:?}"));
    }
    if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
        return s
            .parse::<u64>()
            .map(FaultArg::Seed)
            .map_err(|_| format!("fault seed out of range {s:?}"));
    }
    // The kind names are disjoint between the two DSLs, so report
    // the error from the family the first clause belongs to.
    const FABRIC_KINDS: [&str; 6] = ["flap:", "lag:", "freeze:", "part:", "mcrash:", "mloss:"];
    let looks_fabric = FABRIC_KINDS.iter().any(|k| s.starts_with(k));
    match (nic_plan(s), fabric_plan(s)) {
        (Ok(p), _) => Ok(FaultArg::Plan(p)),
        (_, Ok(p)) => Ok(FaultArg::Fabric(p)),
        (Err(nic), Err(fab)) => Err(if looks_fabric { fab } else { nic }),
    }
}

/// Parses one `kind:args@at...` clause.
fn parse_clause(clause: &str) -> Result<FaultEvent, String> {
    let err = |why: &str| format!("bad fault clause {clause:?}: {why}");
    let (kind_name, rest) = clause
        .split_once(':')
        .ok_or_else(|| err("expected `kind:...`"))?;
    let (target, timing) = rest
        .split_once('@')
        .ok_or_else(|| err("expected `...@<cycle>`"))?;
    let parse_u64 = |s: &str, what: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| err(&format!("{what} is not a number ({s:?})")))
    };
    // Narrower fields parse wide and are then range-checked: a value
    // that does not fit is an error, never a silent truncation.
    let out_of_range = |s: &str, what: &str| err(&format!("{what} out of range ({s:?})"));
    let parse_u32 =
        |s: &str, what: &str| u32::try_from(parse_u64(s, what)?).map_err(|_| out_of_range(s, what));
    let engine_of = |s: &str| {
        u16::try_from(parse_u64(s, "engine id")?)
            .map(EngineId)
            .map_err(|_| out_of_range(s, "engine id"))
    };
    // A fault window must end on the clock: `at + dur` fits in 64 bits.
    let duration_of = |at: Cycle, dur: &str| {
        let cycles = parse_u64(dur, "duration")?;
        match at.0.checked_add(cycles) {
            Some(_) => Ok(Cycles(cycles)),
            None => Err(err(&format!(
                "duration out of range ({dur:?}: `at + dur` must fit in 64 bits)"
            ))),
        }
    };
    match kind_name.trim() {
        "crash" => Ok(FaultEvent {
            at: Cycle(parse_u64(timing, "cycle")?),
            kind: FaultKind::EngineCrash {
                engine: engine_of(target)?,
            },
        }),
        "drop" => Ok(FaultEvent {
            at: Cycle(parse_u64(timing, "cycle")?),
            kind: FaultKind::FlitDrop {
                engine: engine_of(target)?,
            },
        }),
        "stall" | "refuse" => {
            let (at, dur) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<dur>`"))?;
            let engine = engine_of(target)?;
            let at = Cycle(parse_u64(at, "cycle")?);
            let duration = duration_of(at, dur)?;
            let kind = if kind_name.trim() == "stall" {
                FaultKind::EngineStall { engine, duration }
            } else {
                FaultKind::SchedRefuse { engine, duration }
            };
            Ok(FaultEvent { at, kind })
        }
        "degrade" => {
            let (at, factor) = timing
                .split_once('x')
                .ok_or_else(|| err("expected `@<at>x<mult>`"))?;
            let factor = parse_u32(factor, "factor")?;
            if factor == 0 {
                return Err(err("factor must be >= 1"));
            }
            Ok(FaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FaultKind::EngineDegrade {
                    engine: engine_of(target)?,
                    factor,
                },
            })
        }
        "slow" | "hold" => {
            let (engine, port) = target
                .split_once(':')
                .ok_or_else(|| err("expected `<engine>:<port>`"))?;
            let engine = engine_of(engine)?;
            let port = parse_u64(port, "port")?;
            if port >= 5 {
                return Err(err("port must be 0..=4"));
            }
            let port = port as u8;
            let (at, tail) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<dur>...`"))?;
            let at = Cycle(parse_u64(at, "cycle")?);
            let kind = if kind_name.trim() == "slow" {
                let (dur, period) = tail
                    .split_once('/')
                    .ok_or_else(|| err("expected `+<dur>/<period>`"))?;
                let period = parse_u64(period, "period")?;
                if period < 2 {
                    return Err(err("period must be >= 2"));
                }
                FaultKind::LinkSlow {
                    engine,
                    port,
                    duration: duration_of(at, dur)?,
                    period,
                }
            } else {
                let (dur, credits) = tail
                    .split_once('x')
                    .ok_or_else(|| err("expected `+<dur>x<credits>`"))?;
                let credits = parse_u32(credits, "credits")?;
                if credits == 0 {
                    return Err(err("credits must be >= 1"));
                }
                FaultKind::CreditHold {
                    engine,
                    port,
                    credits,
                    duration: duration_of(at, dur)?,
                }
            };
            Ok(FaultEvent { at, kind })
        }
        other => Err(err(&format!("unknown fault kind {other:?}"))),
    }
}

/// Parses one `kind:target@at...` fabric clause.
fn parse_fabric_clause(clause: &str) -> Result<FabricFaultEvent, String> {
    let err = |why: &str| format!("bad fabric fault clause {clause:?}: {why}");
    let (kind_name, rest) = clause
        .split_once(':')
        .ok_or_else(|| err("expected `kind:...`"))?;
    let (target, timing) = rest
        .split_once('@')
        .ok_or_else(|| err("expected `...@<cycle>`"))?;
    let parse_u64 = |s: &str, what: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| err(&format!("{what} is not a number ({s:?})")))
    };
    let member_of = |s: &str, what: &str| parse_u64(s, what).map(|m| m as usize);
    let pair_of = |s: &str| -> Result<(usize, usize), String> {
        let (a, b) = s
            .split_once('-')
            .ok_or_else(|| err("expected `<a>-<b>` member pair"))?;
        let (a, b) = (member_of(a, "member")?, member_of(b, "member")?);
        if a == b {
            return Err(err("link endpoints must differ"));
        }
        Ok((a, b))
    };
    match kind_name.trim() {
        "flap" | "freeze" => {
            let (from, to) = pair_of(target)?;
            let (at, dur) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<dur>`"))?;
            let at = Cycle(parse_u64(at, "cycle")?);
            let duration = Cycles(parse_u64(dur, "duration")?);
            let kind = if kind_name.trim() == "flap" {
                FabricFaultKind::LinkFlap { from, to, duration }
            } else {
                FabricFaultKind::CreditFreeze { from, to, duration }
            };
            Ok(FabricFaultEvent { at, kind })
        }
        "lag" => {
            let (from, to) = pair_of(target)?;
            let (at, tail) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<dur>x<mult>`"))?;
            let (dur, factor) = tail
                .split_once('x')
                .ok_or_else(|| err("expected `+<dur>x<mult>`"))?;
            let factor = u32::try_from(parse_u64(factor, "factor")?)
                .map_err(|_| err(&format!("factor out of range ({factor:?})")))?;
            if factor < 2 {
                return Err(err("factor must be >= 2"));
            }
            Ok(FabricFaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FabricFaultKind::LinkDegrade {
                    from,
                    to,
                    duration: Cycles(parse_u64(dur, "duration")?),
                    factor,
                },
            })
        }
        "part" => {
            let member = member_of(target, "member")?;
            let (at, duration) = match timing.split_once('+') {
                Some((at, dur)) => (at, Some(Cycles(parse_u64(dur, "duration")?))),
                None => (timing, None),
            };
            Ok(FabricFaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FabricFaultKind::Partition { member, duration },
            })
        }
        "mcrash" => {
            let (at, epochs) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<epochs>`"))?;
            let recover_epochs = parse_u64(epochs, "recovery epochs")?;
            if recover_epochs == 0 {
                return Err(err("recovery epochs must be >= 1"));
            }
            Ok(FabricFaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FabricFaultKind::MemberCrash {
                    member: member_of(target, "member")?,
                    recover_epochs,
                },
            })
        }
        "mloss" => Ok(FabricFaultEvent {
            at: Cycle(parse_u64(timing, "cycle")?),
            kind: FabricFaultKind::MemberLoss {
                member: member_of(target, "member")?,
            },
        }),
        other => Err(err(&format!("unknown fabric fault kind {other:?}"))),
    }
}
