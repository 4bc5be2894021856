//! Strongly-typed simulation time, frequency, and bandwidth.
//!
//! The paper's throughput arguments (§4.2, Tables 2 and 3) are all unit
//! conversions: line-rates in Gbps, clock frequencies in MHz, channel
//! widths in bits, packet sizes in bytes. Getting one conversion wrong
//! silently invalidates a table, so every quantity here is a newtype and
//! the conversions are centralized and unit-tested.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute point in simulated time, measured in clock cycles since
/// the start of the simulation.
///
/// `Cycle` is an *instant*; [`Cycles`] is a *duration*. The distinction
/// mirrors `std::time::Instant` vs `Duration` and prevents the classic
/// "added two timestamps" bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

/// A duration measured in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycle {
    /// The zeroth cycle (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; elapsed time in a
    /// monotonic simulation can never be negative, so this indicates a
    /// model bug.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> Cycles {
        assert!(
            earlier.0 <= self.0,
            "time ran backwards: {earlier} is after {self}"
        );
        Cycles(self.0 - earlier.0)
    }

    /// Saturating version of [`Cycle::since`]: returns zero if `earlier`
    /// is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: Cycle) -> Cycles {
        Cycles(self.0.saturating_sub(earlier.0))
    }

    /// The next cycle.
    #[must_use]
    pub fn next(self) -> Cycle {
        Cycle(self.0 + 1)
    }

    /// The earlier of two optional wake-up hints, where `None` means
    /// "quiescent / no constraint".
    #[must_use]
    pub fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

impl Cycles {
    /// Zero-length duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Duration in raw cycle count.
    #[must_use]
    pub fn count(self) -> u64 {
        self.0
    }
}

impl Add<Cycles> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycles) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Cycles> for Cycle {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Rem<u64> for Cycles {
    type Output = u64;
    fn rem(self, rhs: u64) -> u64 {
        self.0 % rhs
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency.
///
/// The paper's reference design runs RMT pipelines and the on-chip
/// network at 500 MHz (§4.2); engines may be clocked differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    hz: u64,
}

impl Freq {
    /// The paper's reference clock: 500 MHz.
    pub const PANIC_DEFAULT: Freq = Freq::mhz(500);

    /// Frequency from raw hertz.
    ///
    /// # Panics
    /// Panics on a zero frequency; a stopped clock cannot drive a
    /// simulation.
    #[must_use]
    pub const fn hz(hz: u64) -> Freq {
        assert!(hz > 0, "zero frequency");
        Freq { hz }
    }

    /// Frequency in megahertz.
    #[must_use]
    pub const fn mhz(mhz: u64) -> Freq {
        Freq::hz(mhz * 1_000_000)
    }

    /// Raw hertz.
    #[must_use]
    pub fn as_hz(self) -> u64 {
        self.hz
    }

    /// Duration of one cycle in picoseconds (rounded to nearest).
    ///
    /// 500 MHz ⇒ 2000 ps.
    #[must_use]
    pub fn cycle_picos(self) -> u64 {
        // 1e12 ps per second.
        (1_000_000_000_000u128 / u128::from(self.hz)) as u64
    }

    /// Converts a cycle count at this frequency into simulated time.
    #[must_use]
    pub fn cycles_to_time(self, cycles: Cycles) -> Time {
        Time::from_picos(u128::from(cycles.0) * u128::from(self.cycle_picos()))
    }

    /// Events per second for something that happens once per cycle.
    ///
    /// §4.2: "given a clock frequency of F and P parallel pipelines, the
    /// heavyweight RMT pipeline can process F × P packets per second."
    #[must_use]
    pub fn events_per_second(self, parallelism: u64) -> u64 {
        self.hz * parallelism
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", self.hz / 1_000_000_000)
        } else if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

/// A duration in simulated wall-clock time (picosecond resolution).
///
/// Useful for reporting ("the manycore NIC adds 10 µs") independent of
/// any particular component's clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time {
    picos: u128,
}

impl Time {
    /// From picoseconds.
    #[must_use]
    pub const fn from_picos(picos: u128) -> Time {
        Time { picos }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time {
            picos: self.picos + rhs.picos,
        }
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time {
            picos: self.picos.checked_sub(rhs.picos).expect("negative time"),
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.picos;
        if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A data rate.
///
/// Stored in bits per second; constructors for the Gbps figures the
/// paper uses. Conversions deliberately round *up* cycle counts
/// (serialization can't finish mid-cycle) and round *down* achievable
/// packet rates (you can't forward a fraction of a packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// From gigabits per second (decimal, as line-rates are quoted).
    #[must_use]
    pub const fn gbps(gbps: u64) -> Bandwidth {
        Bandwidth {
            bits_per_sec: gbps * 1_000_000_000,
        }
    }

    /// Bits per second.
    #[must_use]
    pub fn as_bps(self) -> u64 {
        self.bits_per_sec
    }

    /// Gigabits per second (fractional).
    #[must_use]
    pub fn as_gbps_f64(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// Bandwidth of a `width_bits`-wide channel clocked at `freq`
    /// moving one beat per cycle. E.g. 64 bits × 500 MHz = 32 Gbps.
    #[must_use]
    pub fn of_channel(width_bits: u64, freq: Freq) -> Bandwidth {
        Bandwidth {
            bits_per_sec: width_bits * freq.as_hz(),
        }
    }

    /// Packets per second achievable for fixed-size packets of
    /// `wire_bytes` (including all per-packet wire overhead), rounded
    /// down.
    ///
    /// # Panics
    /// Panics if `wire_bytes` is zero.
    #[must_use]
    pub fn packets_per_second(self, wire_bytes: u64) -> u64 {
        assert!(wire_bytes > 0, "zero-size packet");
        self.bits_per_sec / (wire_bytes * 8)
    }

    /// Scales the rate by an integer factor (e.g. ports × directions).
    #[must_use]
    pub fn scale(self, factor: u64) -> Bandwidth {
        Bandwidth {
            bits_per_sec: self.bits_per_sec * factor,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits_per_sec >= 1_000_000_000 && self.bits_per_sec.is_multiple_of(1_000_000) {
            write!(f, "{}Gbps", self.bits_per_sec as f64 / 1e9)
        } else {
            write!(f, "{}bps", self.bits_per_sec)
        }
    }
}

/// A size in bytes, with helpers for the wire/flit math used throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Minimum Ethernet frame: 64 bytes (incl. FCS).
    pub const MIN_ETHERNET_FRAME: ByteSize = ByteSize(64);
    /// Per-frame wire overhead: 7 B preamble + 1 B SFD + 12 B IFG.
    pub const ETHERNET_WIRE_OVERHEAD: ByteSize = ByteSize(20);

    /// Size in bits.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Number of `width_bits`-wide beats (flits/cycles) needed to carry
    /// this many bytes, rounding up.
    ///
    /// # Panics
    /// Panics if `width_bits` is zero.
    #[must_use]
    pub fn beats(self, width_bits: u64) -> u64 {
        assert!(width_bits > 0, "zero-width channel");
        self.bits().div_ceil(width_bits)
    }

    /// Byte count.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_instant_arithmetic() {
        let t0 = Cycle(10);
        let t1 = t0 + Cycles(5);
        assert_eq!(t1, Cycle(15));
        assert_eq!(t1.since(t0), Cycles(5));
        assert_eq!(t0.saturating_since(t1), Cycles::ZERO);
        assert_eq!(t0.next(), Cycle(11));
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn since_panics_on_reversed_instants() {
        let _ = Cycle(1).since(Cycle(2));
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(Cycles(7) + Cycles(3), Cycles(10));
        assert_eq!(Cycles(7) - Cycles(3), Cycles(4));
        assert_eq!(Cycles(7) * 3, Cycles(21));
        assert_eq!(Cycles(7) / 2, Cycles(3));
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn freq_cycle_time_roundtrip() {
        let f = Freq::mhz(500);
        assert_eq!(f.cycle_picos(), 2000);
        assert_eq!(
            f.cycles_to_time(Cycles(500_000_000)),
            Time::from_picos(1_000_000_000_000)
        );
    }

    #[test]
    fn freq_events_per_second_matches_paper_example() {
        // §4.2: "Two 500MHz pipelines can process packets at a rate of
        // 1000Mpps."
        assert_eq!(Freq::mhz(500).events_per_second(2), 1_000_000_000);
    }

    #[test]
    fn bandwidth_of_channel() {
        // 64-bit channel at 500MHz = 32 Gbps (Table 3 configuration).
        let bw = Bandwidth::of_channel(64, Freq::mhz(500));
        assert_eq!(bw, Bandwidth::gbps(32));
        // 128-bit channel at 500MHz = 64 Gbps.
        assert_eq!(
            Bandwidth::of_channel(128, Freq::mhz(500)),
            Bandwidth::gbps(64)
        );
    }

    #[test]
    fn min_frame_pps_matches_table2() {
        // Table 2 is derived from 84 wire-bytes per minimal frame
        // (64B frame + 20B preamble/IFG): 40Gbps one direction is
        // ~59.5Mpps; the table reports RX+TX across all ports.
        let wire = ByteSize::MIN_ETHERNET_FRAME + ByteSize::ETHERNET_WIRE_OVERHEAD;
        assert_eq!(wire, ByteSize(84));
        let pps_40g = Bandwidth::gbps(40).packets_per_second(wire.get());
        assert_eq!(pps_40g, 59_523_809);
        // 2 ports x 2 directions x 59.5Mpps ~= 238Mpps, the paper rounds
        // to 240Mpps. Checked precisely in the noc::analytic tests.
        assert!((pps_40g * 4).abs_diff(240_000_000) < 3_000_000);
    }

    #[test]
    fn bytesize_beats() {
        assert_eq!(ByteSize(64).beats(64), 8); // 512 bits / 64
        assert_eq!(ByteSize(65).beats(64), 9); // rounds up
        assert_eq!(ByteSize(64).beats(128), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Freq::mhz(500).to_string(), "500MHz");
        assert_eq!(Freq::hz(1_000_000_000).to_string(), "1GHz");
        assert_eq!(Bandwidth::gbps(100).to_string(), "100Gbps");
        assert_eq!(Time::from_picos(10_000_000).to_string(), "10.000us");
        assert_eq!(Time::from_picos(5_000).to_string(), "5.000ns");
        assert_eq!(ByteSize(84).to_string(), "84B");
        assert_eq!(Cycle(3).to_string(), "cycle 3");
        assert_eq!(Cycles(3).to_string(), "3 cycles");
    }
}
