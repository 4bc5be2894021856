//! Calibration loop and speed-normalized timing.
//!
//! The sandbox this benchmark runs in shares its cores: the same code
//! runs up to ±20 % faster or slower from one second to the next, for
//! seconds at a time (README.md, "Noise method", has the measurements).
//! A median over repetitions does not remove a drift that outlasts the
//! run. What does is timing a fixed reference loop right before and
//! after every slice of measured work and reporting host time in
//! *reference seconds*: `wall × CALIB_REF_S ÷ calibration wall`. When
//! the machine runs the reference loop in exactly [`CALIB_REF_S`], a
//! reference second is a wall second. ROADMAP open item 1 asks for
//! exactly this normalisation.

use std::time::Instant;

/// Outer iterations of the calibration loop (fixed: it is the unit).
/// Each advances [`LANES`] independent xorshift streams.
const CALIB_ITERS: u64 = 600_000;
/// Independent dependency chains per iteration. A single chain is
/// latency-bound and slows less than the simulator does when a
/// neighbour takes issue slots; four chains keep the core as busy as
/// the simulator's tick loop does, so both slow by the same factor
/// (README.md, "Noise method", compares the candidates).
const LANES: usize = 4;
/// Table the loop scatters into: 64 Ki words = 512 KiB, L2-resident
/// like the simulator's hot state, so cache pressure from neighbours
/// moves the loop the way it moves the simulator.
const CALIB_TABLE_WORDS: usize = 1 << 16;
/// Wall time of one calibration loop on the 2-core reference box at
/// its typical speed. A constant, never derived from the machine.
pub const CALIB_REF_S: f64 = 2.6e-3;

/// The fixed integer + memory loop that stands for "machine speed".
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Allocates the loop's table and runs it twice untimed so the
    /// first timed sample sees warm caches and a ramped-up clock.
    #[must_use]
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            table: vec![0; CALIB_TABLE_WORDS],
        };
        c.sample();
        c.sample();
        c
    }

    /// Runs the loop once; returns its wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut lanes: [u64; LANES] = [
            0x9E37_79B9_7F4A_7C15,
            0xD1B5_4A32_D192_ED03,
            0x8CB9_2BA7_2F3D_8DD7,
            0xABCD_EF01_2345_6789,
        ];
        for i in 0..CALIB_ITERS {
            for x in &mut lanes {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                let slot = (*x as usize) & (CALIB_TABLE_WORDS - 1);
                self.table[slot] = self.table[slot].wrapping_add(i ^ *x);
            }
        }
        std::hint::black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

/// Host time of one measured stretch, raw and normalized.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// Reference seconds (see the module docs).
    pub norm_s: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.raw_s += other.raw_s;
        self.norm_s += other.norm_s;
    }
}

/// Times a sequence of slices, each bracketed by calibration samples.
/// Adjacent slices share the sample between them.
#[derive(Debug)]
pub struct SliceTimer<'a> {
    cal: &'a mut Calibrator,
    before: f64,
    total: Timed,
}

impl<'a> SliceTimer<'a> {
    /// Takes the leading calibration sample.
    pub fn start(cal: &'a mut Calibrator) -> SliceTimer<'a> {
        let before = cal.sample();
        SliceTimer {
            cal,
            before,
            total: Timed::default(),
        }
    }

    /// Runs and times one slice of work; returns its result and its
    /// own host time (also added to the running total).
    pub fn slice<R>(&mut self, work: impl FnOnce() -> R) -> (R, Timed) {
        let start = Instant::now();
        let out = work();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.cal.sample();
        let speed = (self.before + after) / 2.0;
        let timed = Timed {
            raw_s,
            norm_s: raw_s * CALIB_REF_S / speed,
        };
        self.total += timed;
        self.before = after;
        (out, timed)
    }

    /// Total over the slices so far.
    #[must_use]
    pub fn total(&self) -> Timed {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_time_tracks_raw_time() {
        let mut cal = Calibrator::new();
        let mut t = SliceTimer::start(&mut cal);
        let mut acc = 0u64;
        for _ in 0..3 {
            acc += t
                .slice(|| (0..200_000u64).map(std::hint::black_box).sum::<u64>())
                .0;
        }
        assert!(acc > 0);
        let total = t.total();
        assert!(total.raw_s > 0.0 && total.norm_s > 0.0);
        // Whatever the machine's speed, the factor is one number for
        // the whole stretch, and nowhere near an order of magnitude.
        let factor = total.norm_s / total.raw_s;
        assert!((0.1..10.0).contains(&factor), "factor {factor}");
    }
}
