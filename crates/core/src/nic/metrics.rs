//! Metrics export: what the NIC reports, and under which name.

use packet::message::Priority;
use trace::MetricSink;

use super::PanicNic;

impl PanicNic {
    /// Exports every component's statistics into `m` under the uniform
    /// schema: NIC counters and per-priority latency histograms under
    /// `nic.*`, mesh traffic under `noc.*`, pipeline counters under
    /// `rmt.*`, and per-tile counters under `engine.<id>.<offload>.*`.
    ///
    /// `m` is any [`MetricSink`] — a `trace::MetricsRegistry` at the
    /// end of a run, the control endpoint's telemetry cursor every
    /// cycle. Each subtree (`nic.`, `tenancy.`, `perf.layer.`, `noc.`,
    /// `rmt.`, `engine.`) is visited only if the sink
    /// [wants](MetricSink::wants) it, so a sink reading one subtree
    /// pays for one.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S) {
        if m.wants("nic.") {
            self.export_nic_metrics(m);
        }
        // Tenancy counters exist only when the tenancy plane is
        // engaged.
        if let Some(tn) = &self.tenancy {
            tn.export_metrics(m);
        }
        // Per-layer cycle attribution: where simulated time goes when
        // the NIC is busy. The tenancy share appears only when the
        // tenancy plane is engaged, like the rest of its counters.
        if m.wants("perf.layer.") {
            let layer = &self.stats.layer;
            m.counter(format_args!("perf.layer.noc"), self.network.active_cycles());
            m.counter(format_args!("perf.layer.rmt"), layer.rmt);
            m.counter(format_args!("perf.layer.engines"), layer.engines);
            m.counter(format_args!("perf.layer.sched"), layer.sched);
            if self.tenancy.is_some() {
                m.counter(format_args!("perf.layer.tenancy"), layer.tenancy);
            }
        }
        if m.wants("noc.") {
            self.network.export_metrics(m, "noc");
        }
        if m.wants("rmt.") {
            self.pipeline.export_metrics(m, "rmt");
        }
        if m.wants("engine.") {
            for (id, tile) in self.engine_tiles() {
                tile.export_metrics(m, format_args!("engine.{}.{}", id.0, tile.offload_name()));
            }
        }
    }

    /// The `nic.*` subtree of [`PanicNic::export_metrics`].
    fn export_nic_metrics<S: MetricSink + ?Sized>(&self, m: &mut S) {
        let s = &self.stats;
        m.counter(format_args!("nic.rx_frames"), s.rx_frames);
        m.counter(format_args!("nic.tx_wire"), s.tx_wire);
        m.counter(format_args!("nic.host_deliveries"), s.host_deliveries);
        m.counter(format_args!("nic.consumed"), s.consumed);
        m.counter(format_args!("nic.control_completed"), s.control_completed);
        m.counter(format_args!("nic.unrouted"), s.unrouted);
        // Fault-plane counters exist only when the fault plane is
        // engaged, keeping fault-free metrics output byte-identical.
        if self.faults.is_some() {
            m.counter(format_args!("nic.injected_internal"), s.injected_internal);
            m.counter(format_args!("nic.reissued"), s.reissued);
            m.counter(format_args!("nic.failed"), s.failed);
            m.counter(format_args!("nic.duplicates"), s.duplicates);
            m.counter(format_args!("nic.host_fallback"), s.host_fallback);
            m.counter(
                format_args!("nic.downed_engines"),
                self.downed_engines().len() as u64,
            );
            if s.recovery.count() > 0 {
                m.histogram(format_args!("nic.recovery"), &s.recovery);
            }
            if s.time_to_failover.count() > 0 {
                m.histogram(format_args!("nic.time_to_failover"), &s.time_to_failover);
            }
        }
        // Fabric counters exist only once fabric traffic flowed, so a
        // 1-NIC fabric run exports byte-identically to a bare NIC.
        if s.remote_tx > 0 || s.remote_rx > 0 {
            m.counter(format_args!("nic.remote_tx"), s.remote_tx);
            m.counter(format_args!("nic.remote_rx"), s.remote_rx);
        }
        for (name, p) in [
            ("latency", Priority::Latency),
            ("normal", Priority::Normal),
            ("bulk", Priority::Bulk),
        ] {
            let h = s.latency_of(p);
            if h.count() > 0 {
                m.histogram(format_args!("nic.latency.{name}"), h);
            }
        }
    }
}
