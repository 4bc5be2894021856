//! The tenancy counter catalogue, held three ways: the key table in
//! `docs/TENANCY.md`, [`tenancy::COUNTER_KEYS`] (what a vNIC's cached
//! counter names are built from) and what `export_metrics` hands a
//! sink must list the same keys in the same order.

use packet::TenantId;
use sim_core::stats::Histogram;
use tenancy::{TenancyConfig, TenancyRuntime, VNicSpec, COUNTER_KEYS};
use trace::MetricSink;

/// The keys only a vNIC that saw a fabric crossing exports.
const CONDITIONAL: [&str; 2] = ["remote_tx", "remote_rx"];

/// Records counter names in visit order. Implements `counter` alone, so
/// the cached names arrive through the default `counter_str`.
#[derive(Default)]
struct Names(Vec<String>);

impl MetricSink for Names {
    fn counter(&mut self, name: std::fmt::Arguments<'_>, _value: u64) {
        self.0.push(name.to_string());
    }
    fn histogram(&mut self, _name: std::fmt::Arguments<'_>, _h: &Histogram) {}
}

/// `(key, exported column)` of each row of the Observability key table.
fn documented() -> Vec<(String, String)> {
    let doc = include_str!("../../../docs/TENANCY.md");
    let section = doc
        .split("## Observability")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("docs/TENANCY.md has an Observability section");
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `")?.split('|');
            let key = cells.next()?.trim().trim_end_matches('`').to_string();
            let exported = cells.nth(1)?.trim().to_string();
            Some((key, exported))
        })
        .collect()
}

#[test]
fn the_documented_table_is_counter_keys() {
    let rows = documented();
    let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, COUNTER_KEYS, "docs/TENANCY.md key table, in order");
    for (key, exported) in &rows {
        let conditional = CONDITIONAL.contains(&key.as_str());
        assert_eq!(
            exported != "always",
            conditional,
            "{key}: documented as exported {exported:?}"
        );
    }
}

#[test]
fn export_visits_counter_keys_in_order_per_vnic() {
    let vnics = ["web", "dotted.name", ""];
    let mut rt = TenancyRuntime::new(TenancyConfig::new(
        (1u16..)
            .zip(vnics)
            .map(|(t, name)| VNicSpec::new(TenantId(t), name, 1))
            .collect(),
    ));
    let visit = |rt: &TenancyRuntime| {
        let mut names = Names::default();
        rt.export_metrics(&mut names);
        names.0
    };
    let expect = |crossed: &[&str]| -> Vec<String> {
        let mut names = Vec::new();
        for vnic in vnics {
            let keys = COUNTER_KEYS
                .iter()
                .filter(|k| crossed.contains(&vnic) || !CONDITIONAL.contains(k));
            names.extend(keys.map(|key| format!("tenancy.{vnic}.{key}")));
        }
        names
    };

    assert_eq!(visit(&rt), expect(&[]), "no crossing yet");
    rt.note_remote_rx(TenantId(2));
    assert_eq!(visit(&rt), expect(&["dotted.name"]), "one vNIC crossed");

    // A vNIC added live gets its names the same way.
    assert!(rt.add_vnic(VNicSpec::new(TenantId(9), "late", 1), 0));
    let late: Vec<String> = visit(&rt).into_iter().skip(15 + 17 + 15).collect();
    let unconditional = COUNTER_KEYS.iter().filter(|k| !CONDITIONAL.contains(k));
    let want: Vec<String> = unconditional.map(|k| format!("tenancy.late.{k}")).collect();
    assert_eq!(late, want);
}
