//! The armed-but-empty satellite: a NIC with a control endpoint
//! attached and serviced at every chunk boundary — but with no
//! queued frames — produces byte-identical traces, metrics, and
//! ledgers to a NIC with no endpoint at all, in both run modes
//! (stepped, fast-forward).

mod common;

use common::TENANT;
use panic_ctrl::CtrlEndpoint;
use sim_core::time::Cycle;
use trace::{MetricsRegistry, Tracer};

const CHUNK: u64 = 256;
const CHUNKS: u64 = 24;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Stepped,
    FastForward,
}

/// One observed run: inject a frame at every chunk boundary, run the
/// chunk in `mode`, servicing an idle endpoint (or not), then render
/// trace + metrics + the conservation ledger.
fn observed(mode: Mode, with_endpoint: bool) -> (String, String, String) {
    let mut r = common::rig();
    let tracer = Tracer::chrome();
    r.nic.attach_tracer(&tracer);
    let mut ep = with_endpoint.then(|| CtrlEndpoint::new(r.spec.clone()));

    let mut now = Cycle(0);
    for k in 0..CHUNKS {
        r.inject(TENANT, k, now);
        if let Some(ep) = ep.as_mut() {
            assert!(ep.idle(), "endpoint must stay idle");
            ep.service(&mut r.nic, now);
        }
        now = match mode {
            Mode::Stepped => r.nic.run(now, CHUNK),
            Mode::FastForward => r.nic.run_ff(now, CHUNK).0,
        };
        let _ = r.nic.take_wire_tx();
    }
    now = r.drain(now);
    let _ = now;

    if let Some(ep) = ep.as_mut() {
        assert!(ep.idle());
        assert_eq!(ep.epoch(), 0, "no mutation, no epoch");
        assert!(ep.poll_response().is_none(), "silence in, silence out");
    }
    let mut m = MetricsRegistry::new();
    r.nic.export_metrics(&mut m);
    (
        tracer.chrome_json().expect("chrome sink"),
        m.to_json(),
        format!("{:?}", r.nic.conservation()),
    )
}

/// The satellite assertion: the silent endpoint changes nothing, in
/// either run mode — and the two modes agree with each other.
#[test]
fn silent_endpoint_is_byte_identical_in_all_run_modes() {
    let base = observed(Mode::Stepped, false);
    for mode in [Mode::Stepped, Mode::FastForward] {
        for with_endpoint in [false, true] {
            let got = observed(mode, with_endpoint);
            assert_eq!(
                got.0, base.0,
                "{mode:?} endpoint={with_endpoint}: trace must be byte-identical"
            );
            assert_eq!(
                got.1, base.1,
                "{mode:?} endpoint={with_endpoint}: metrics must be byte-identical"
            );
            assert_eq!(
                got.2, base.2,
                "{mode:?} endpoint={with_endpoint}: ledgers must be byte-identical"
            );
        }
    }
}
