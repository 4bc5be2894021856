//! The seven workloads: what runs, for how many simulated cycles, and
//! why each is here. Every constant is fixed in this file — none is
//! derived from the machine.

use crate::rigs::chain::ChainRig;
use crate::rigs::ctl::CtlRig;
use crate::rigs::kvs::KvsRig;
use crate::rigs::rack::{Faults, RackRig, RackShape};
use crate::rigs::{Mode, Rig};

/// Which simulator a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `ChainScenario` at this fraction of min-frame line rate.
    Chain {
        /// Offered load per port.
        offered_fraction: f64,
    },
    /// `KvsScenario`, three tenants.
    Kvs,
    /// The 4-member ring.
    Rack {
        /// `false` = one thread; `true` = `min(nproc, 4)` threads.
        multithreaded: bool,
        /// Fault plane.
        faults: Faults,
    },
    /// The control-plane churn rig.
    Ctl,
}

/// One workload and its fixed sizing.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as the driver passes it to `--workload`.
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    /// The simulator driven.
    pub kind: Kind,
    /// Untimed simulated cycles before the window, until modelled
    /// queues and caches are in steady state.
    pub warmup: u64,
    /// Timed simulated cycles per repetition.
    pub window: u64,
    /// The window advances in slices of this many cycles, each
    /// bracketed by a calibration sample (about 30–50 ms of host time
    /// on the reference box).
    pub slice: u64,
}

/// Highest offered fraction of min-frame line rate the 6×6 / 64-bit /
/// two-hop chain NIC carries without a growing backlog (0.325 already
/// queues without bound; README.md, "chain_saturated").
pub const CHAIN_KNEE: f64 = 0.32;

/// The workloads, in the order they run.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "chain_saturated",
        why: "Hot tick loop at the chain NIC's capacity knee (~30 flit-hops/cycle): noc and rmt \
              do the work, the run-mode driver skips nothing.",
        kind: Kind::Chain {
            offered_fraction: CHAIN_KNEE,
        },
        warmup: 20_000,
        window: 200_000,
        slice: 20_000,
    },
    WorkloadSpec {
        name: "chain_gap",
        why: "Same NIC at 0.2% load: ~97% of cycles are skippable, so next_activity/skip_idle \
              and per-frame work dominate; a NoC optimisation must not move it.",
        kind: Kind::Chain {
            offered_fraction: 0.002,
        },
        warmup: 1_000_000,
        window: 40_000_000,
        slice: 4_000_000,
    },
    WorkloadSpec {
        name: "kvs_mixed",
        why: "Reads beside writes beside IPSec: engines do byte work, rmt runs the multi-table \
              two-pass program, the DMA sched queue is contended; every reply is verified.",
        kind: Kind::Kvs,
        warmup: 60_000,
        window: 800_000,
        slice: 80_000,
    },
    WorkloadSpec {
        name: "rack_ring4",
        why: "4-NIC ring, one thread: fabric epoch exchange every 48 cycles and tenancy \
              admission/DRR over 32 vNICs per member, which no single-NIC workload runs.",
        kind: Kind::Rack {
            multithreaded: false,
            faults: Faults::Off,
        },
        warmup: 4_800,
        window: 480_000,
        slice: 48_000,
    },
    WorkloadSpec {
        name: "rack_ring4_mt",
        why: "Same ring on min(nproc,4) threads: identical simulated result by contract, but \
              every epoch pays a thread scope; shows whether threads help or hurt.",
        kind: Kind::Rack {
            multithreaded: true,
            faults: Faults::Off,
        },
        warmup: 4_800,
        window: 480_000,
        slice: 48_000,
    },
    WorkloadSpec {
        name: "rack_ring4_chaos",
        why: "Same ring with the pinned flap + member-crash plan armed: hop-ledger retries, \
              dedup, reroute and failover run; 100% delivery is asserted.",
        kind: Kind::Rack {
            multithreaded: false,
            faults: Faults::Chaos,
        },
        warmup: 4_800,
        window: 480_000,
        slice: 48_000,
    },
    WorkloadSpec {
        name: "ctl_churn",
        why: "NIC reconfigured over the control wire every 2000 cycles with telemetry streaming: \
              ctrl, a full verify per mutation and rmt compile on hot-swap; nothing else calls \
              ctrl.",
        kind: Kind::Ctl,
        warmup: 1_000,
        window: 24_000,
        slice: 2_000,
    },
];

/// Threads the multi-threaded ring uses on this machine.
#[must_use]
pub fn mt_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    /// This workload at `1/div` size (`--smoke` uses 20). Slices stay
    /// whole and the window stays a whole number of slices.
    #[must_use]
    pub fn scaled(&self, div: u64) -> WorkloadSpec {
        let mut slices = (self.window / self.slice / div).max(1);
        if self.kind == Kind::Ctl {
            // Every size runs one full pass of the control script, so
            // even a smoke run adds, swaps, rejects and removes.
            let pass = crate::rigs::ctl::SCRIPT_PERIOD * crate::rigs::ctl::SCRIPT_STEPS;
            slices = slices.max(pass.div_ceil(self.slice));
        }
        // The ring's fault events sit at fixed early cycles; its short
        // warm-up must stay ahead of them at any size.
        let warmup = if matches!(self.kind, Kind::Rack { .. }) {
            self.warmup
        } else {
            (self.warmup / div).max(1)
        };
        WorkloadSpec {
            warmup,
            window: slices * self.slice,
            ..*self
        }
    }

    /// Cycles during which arrivals are on.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.warmup + self.window
    }

    /// The ring's shape, for rack workloads.
    #[must_use]
    pub fn rack_shape(&self) -> Option<RackShape> {
        match self.kind {
            Kind::Rack {
                multithreaded,
                faults,
            } => Some(RackShape {
                members: 4,
                threads: if multithreaded { mt_threads() } else { 1 },
                faults,
            }),
            _ => None,
        }
    }

    /// Constructs the simulator under test from the seed. This call is
    /// what `setup_s` times.
    #[must_use]
    pub fn build(&self, seed: u64) -> Box<dyn Rig> {
        match self.kind {
            Kind::Chain { offered_fraction } => Box::new(ChainRig::build(seed, offered_fraction)),
            Kind::Kvs => Box::new(KvsRig::build(seed)),
            Kind::Rack { .. } => Box::new(RackRig::build(
                seed,
                self.horizon(),
                self.rack_shape().expect("rack kind"),
            )),
            Kind::Ctl => Box::new(CtlRig::build(seed, self.horizon())),
        }
    }

    /// Run modes this workload's simulator offers.
    #[must_use]
    pub fn modes(&self) -> &'static [Mode] {
        match self.kind {
            Kind::Ctl => &[Mode::Default],
            _ => &[Mode::Default, Mode::Event, Mode::Stepped],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_whole_slices_at_every_size() {
        for w in &WORKLOADS {
            for div in [1, 10, 20] {
                let s = w.scaled(div);
                assert!(
                    s.window >= s.slice && s.window % s.slice == 0,
                    "{} /{div}",
                    w.name
                );
                assert!(s.warmup >= 1);
            }
        }
    }

    #[test]
    fn ring_slices_fall_on_the_epoch_grid() {
        for w in WORKLOADS.iter().filter(|w| w.rack_shape().is_some()) {
            assert_eq!(w.slice % crate::rigs::rack::LINK_LATENCY, 0, "{}", w.name);
            assert_eq!(w.warmup % crate::rigs::rack::LINK_LATENCY, 0, "{}", w.name);
            assert!(
                w.warmup < 6_000,
                "{}: warm-up must precede the first fault",
                w.name
            );
        }
    }
}
