//! Word-at-a-time iteration over occupancy bitmasks.
//!
//! The mesh keeps one bit per router that holds a flit and the NIC one
//! bit per tile that holds work; both visit only the set bits, lowest
//! first, so a cycle costs what is occupied rather than what was built
//! and the visit order stays the ascending order the traces depend on.

/// Iterates the positions of the set bits of `bits`, lowest first.
#[inline]
pub fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(bit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_set_bits_in_ascending_order() {
        assert_eq!(set_bits(0).count(), 0);
        let bits = (1 << 0) | (1 << 5) | (1 << 63);
        assert_eq!(set_bits(bits).collect::<Vec<_>>(), [0, 5, 63]);
        assert_eq!(set_bits(u64::MAX).count(), 64);
    }
}
