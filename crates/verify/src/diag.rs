//! Diagnostics: stable codes, severities, spans, and rendering.
//!
//! Every finding the verifier produces is a [`Diagnostic`] with a
//! stable [`Code`] (so tooling and docs can reference `PV102` forever),
//! a [`Severity`], a human message, and a [`Span`] describing *where*
//! in the configuration the problem lives (which engine, stage, table,
//! or field). A [`Report`] aggregates diagnostics and renders them as
//! plain text or JSON.

use std::fmt;

use trace::json::escape;

/// Stable diagnostic codes. Codes are never reused or renumbered;
/// retired checks leave holes. The block structure mirrors the check
/// families:
///
/// * `PV0xx` — offload-chain / placement checks,
/// * `PV1xx` — NoC deadlock and buffer checks,
/// * `PV2xx` — RMT program checks,
/// * `PV3xx` — scheduler checks,
/// * `PV4xx` — fault-plane / watchdog checks,
/// * `PV5xx` — simulator-performance checks (fast-forward efficacy),
/// * `PV6xx` — tenancy-plane checks (vNIC catalog soundness),
/// * `PV7xx` — rack-fabric checks (inter-NIC links and remote hops),
/// * `PV8xx` — fabric fault-plane checks (hop retry policy, failover
///   reachability, partition survivability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are documented by `explain`
pub enum Code {
    PV001,
    PV002,
    PV003,
    PV004,
    PV101,
    PV102,
    PV103,
    PV201,
    PV202,
    PV203,
    PV204,
    PV301,
    PV302,
    PV303,
    PV401,
    PV402,
    PV403,
    PV501,
    PV601,
    PV602,
    PV603,
    PV604,
    PV605,
    PV701,
    PV702,
    PV703,
    PV704,
    PV801,
    PV802,
    PV803,
    PV804,
}

impl Code {
    /// Every code the verifier can emit, in numeric order.
    pub const ALL: [Code; 31] = [
        Code::PV001,
        Code::PV002,
        Code::PV003,
        Code::PV004,
        Code::PV101,
        Code::PV102,
        Code::PV103,
        Code::PV201,
        Code::PV202,
        Code::PV203,
        Code::PV204,
        Code::PV301,
        Code::PV302,
        Code::PV303,
        Code::PV401,
        Code::PV402,
        Code::PV403,
        Code::PV501,
        Code::PV601,
        Code::PV602,
        Code::PV603,
        Code::PV604,
        Code::PV605,
        Code::PV701,
        Code::PV702,
        Code::PV703,
        Code::PV704,
        Code::PV801,
        Code::PV802,
        Code::PV803,
        Code::PV804,
    ];

    /// The code's stable name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PV001 => "PV001",
            Code::PV002 => "PV002",
            Code::PV003 => "PV003",
            Code::PV004 => "PV004",
            Code::PV101 => "PV101",
            Code::PV102 => "PV102",
            Code::PV103 => "PV103",
            Code::PV201 => "PV201",
            Code::PV202 => "PV202",
            Code::PV203 => "PV203",
            Code::PV204 => "PV204",
            Code::PV301 => "PV301",
            Code::PV302 => "PV302",
            Code::PV303 => "PV303",
            Code::PV401 => "PV401",
            Code::PV402 => "PV402",
            Code::PV403 => "PV403",
            Code::PV501 => "PV501",
            Code::PV601 => "PV601",
            Code::PV602 => "PV602",
            Code::PV603 => "PV603",
            Code::PV604 => "PV604",
            Code::PV605 => "PV605",
            Code::PV701 => "PV701",
            Code::PV702 => "PV702",
            Code::PV703 => "PV703",
            Code::PV704 => "PV704",
            Code::PV801 => "PV801",
            Code::PV802 => "PV802",
            Code::PV803 => "PV803",
            Code::PV804 => "PV804",
        }
    }

    /// One-line description of what the check catches (used by
    /// `panic-lint --explain` and the docs).
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Code::PV001 => "chain hop targets an engine absent from the topology",
            Code::PV002 => {
                "worst-case static chain length exceeds the header limit \
                 (Error) or the mesh's sustainable chain length (Warn)"
            }
            Code::PV003 => "statically-known slack budget below the target engine's service time",
            Code::PV004 => "engine placement infeasible (tile count, bounds, duplicates)",
            Code::PV101 => "channel-dependency graph of the routing function has a cycle",
            Code::PV102 => {
                "router buffer capacity no credit counter can represent: zero \
                 (a link that never gets a credit) or beyond u16::MAX flits"
            }
            Code::PV103 => "router input buffer too small (credit stall / multi-hop packets)",
            Code::PV201 => "parse graph contains a cycle",
            Code::PV202 => "PHV field read before any parser layer or earlier stage writes it",
            Code::PV203 => "program exceeds pipeline stage or table-entry capacity",
            Code::PV204 => "NIC needs at least one RMT portal on the mesh",
            Code::PV301 => "PIFO rank width cannot represent the scheduling horizon",
            Code::PV302 => "DRR quantum is zero (Error) or below the maximum frame size (Warn)",
            Code::PV303 => "engine declared lossless but admission policy can drop",
            Code::PV401 => {
                "failover enabled but an offload type has no replica \
                 (a failure degrades to host fallback)"
            }
            Code::PV402 => "watchdog retry budget is zero while failover is enabled",
            Code::PV403 => {
                "watchdog deadline not longer than the slowest engine's \
                 worst-case service time (guaranteed spurious re-issues)"
            }
            Code::PV501 => {
                "workload makes quiescence fast-forward a no-op (a source \
                 arrives every cycle); expect a stepped-speed simulation"
            }
            Code::PV601 => "two virtual NICs claim the same tenant id",
            Code::PV602 => {
                "every vNIC weight is zero: the weighted-fair scheduler \
                 has no shares to divide"
            }
            Code::PV603 => {
                "a vNIC's credit quota exceeds the shared buffer pool \
                 (Error) or the quotas oversubscribe it (Info)"
            }
            Code::PV604 => {
                "a vNIC's declared offload chain references an engine the \
                 tenant is not entitled to (or that does not exist)"
            }
            Code::PV605 => {
                "a vNIC's name is longer than VNicSpec::MAX_NAME_LEN bytes: \
                 its `tenancy.<name>.*` counters would not fit a telemetry frame"
            }
            Code::PV701 => {
                "dangling remote hop: a chain addresses a fabric member or \
                 a remote engine that does not exist (or the fabric exceeds \
                 the 32-member remote-address space)"
            }
            Code::PV702 => {
                "unroutable inter-NIC link: an endpoint is out of range, the \
                 link is a self-loop or a duplicate, or it has zero credits \
                 or zero bandwidth"
            }
            Code::PV703 => {
                "asymmetric link declaration: a link has no reverse-direction \
                 counterpart, so replies and credit returns cannot flow back"
            }
            Code::PV704 => {
                "a remote hop crosses between two fabric members that no \
                 declared link connects"
            }
            Code::PV801 => {
                "hop retry budget without duplicate suppression: retransmitted \
                 crossings would be delivered twice into the destination mesh"
            }
            Code::PV802 => {
                "replica redirect target with no route: a failover pin names a \
                 member that is out of range, the member itself, or one no \
                 other member has a link to"
            }
            Code::PV803 => {
                "a permanent partition isolates a member while host fallback \
                 is disabled: traffic addressed to it parks forever and the \
                 fabric can never drain"
            }
            Code::PV804 => {
                "hop retry timeout shorter than the round trip implied by \
                 LinkSpec: every crossing on the slowest link would \
                 retransmit spuriously"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; expected in some legitimate configurations.
    Info,
    /// Probably a mistake; the simulation will run but may behave
    /// pathologically (starvation, overload, silent truncation).
    Warn,
    /// The configuration is unsound: the simulation would deadlock,
    /// panic, or silently violate a modeled hardware invariant.
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the configuration a diagnostic points: a component scope
/// (e.g. `noc`, `rmt`) plus an optional subject (engine name, stage
/// name, field name) — span-like context without source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Check-family scope: `chain`, `noc`, `rmt`, or `sched`.
    pub scope: &'static str,
    /// The specific engine / stage / table / field, when known.
    pub subject: String,
}

impl Span {
    /// A span for `scope` pointing at `subject`.
    #[must_use]
    pub fn at(scope: &'static str, subject: impl Into<String>) -> Span {
        Span {
            scope,
            subject: subject.into(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.subject.is_empty() {
            f.write_str(self.scope)
        } else {
            write!(f, "{}:{}", self.scope, self.subject)
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity of this particular finding (a code can appear at more
    /// than one severity; e.g. [`Code::PV002`] errors past the header
    /// limit but only warns past the analytic sustainable length).
    pub severity: Severity,
    /// Where it points.
    pub span: Span,
    /// Human-readable description of the specific instance.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    #[must_use]
    pub fn new(
        code: Code,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
        }
    }

    /// `error[PV101] noc: ...` one-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The result of a verification pass: all findings, ordered by
/// severity (errors first) then code.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// A report from raw findings (sorted on construction).
    #[must_use]
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Report {
        diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
        Report { diagnostics }
    }

    /// All findings.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consumes the report, yielding the findings.
    #[must_use]
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Findings at exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Number of Error findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.at(Severity::Error).count()
    }

    /// Number of Warn findings.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.at(Severity::Warn).count()
    }

    /// True when no finding is an Error.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True if any finding carries `code`.
    #[must_use]
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Human rendering: one line per finding plus a summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.error_count(),
            self.warn_count(),
            self.at(Severity::Info).count()
        ));
        out
    }

    /// JSON rendering: `{"errors":N,"warnings":N,"diagnostics":[...]}`.
    /// Hand-rolled — the build environment has no serde.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warn_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"scope\":\"{}\",\"subject\":\"{}\",\"message\":\"{}\"}}",
                d.code,
                d.severity,
                escape(d.span.scope),
                escape(&d.span.subject),
                escape(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }

    /// The shared diagnostics envelope:
    /// `{"scenario":"...","proto_version":N,"report":{...}}`.
    ///
    /// Both `panic-lint --json` (offline) and the control plane's
    /// admission rejections (online, `panic-ctrl`) emit exactly this,
    /// so a rejected live mutation and an offline lint of the same
    /// spec are byte-identical. `proto_version` is the control wire
    /// protocol version the findings travelled (or would travel) over.
    #[must_use]
    pub fn render_json_enveloped(&self, scenario: &str, proto_version: u32) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"proto_version\":{},\"report\":{}}}",
            escape(scenario),
            proto_version,
            self.render_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code, severity: Severity) -> Diagnostic {
        Diagnostic::new(code, severity, Span::at("noc", "r(0,0)"), "test finding")
    }

    #[test]
    fn report_orders_errors_first() {
        let r = Report::new(vec![
            diag(Code::PV103, Severity::Info),
            diag(Code::PV101, Severity::Error),
            diag(Code::PV302, Severity::Warn),
        ]);
        assert_eq!(r.diagnostics()[0].code, Code::PV101);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has(Code::PV302));
        assert!(!r.has(Code::PV001));
    }

    #[test]
    fn human_rendering_mentions_code_and_span() {
        let r = Report::new(vec![diag(Code::PV102, Severity::Error)]);
        let text = r.render_human();
        assert!(
            text.contains("error[PV102] noc:r(0,0): test finding"),
            "{text}"
        );
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let mut d = diag(Code::PV001, Severity::Warn);
        d.message = "quote \" backslash \\ newline \n done".into();
        let json = Report::new(vec![d]).render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\\\""), "{json}");
        assert!(json.contains("\\\\"), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\"code\":\"PV001\""), "{json}");
        assert!(json.contains("\"errors\":0"), "{json}");
        trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    }

    #[test]
    fn enveloped_rendering_wraps_the_plain_report() {
        let r = Report::new(vec![diag(Code::PV102, Severity::Error)]);
        let enveloped = r.render_json_enveloped("ctl:set-weight", 1);
        assert!(
            enveloped
                .starts_with("{\"scenario\":\"ctl:set-weight\",\"proto_version\":1,\"report\":{"),
            "{enveloped}"
        );
        assert!(enveloped.ends_with("}}"), "{enveloped}");
        assert!(enveloped.contains(&r.render_json()), "{enveloped}");
    }

    #[test]
    fn every_code_has_name_and_explanation() {
        for c in Code::ALL {
            assert_eq!(c.as_str().len(), 5);
            assert!(c.as_str().starts_with("PV"));
            assert!(!c.explain().is_empty());
        }
        // ALL is sorted and duplicate-free.
        let mut sorted = Code::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), Code::ALL.len());
    }
}
