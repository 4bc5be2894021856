//! The host-memory model behind the DMA engine.
//!
//! The paper's substrate includes a host whose memory the NIC reads
//! and writes over PCIe. We model it as a sparse byte-addressable
//! store plus a bump allocator, which is all the §3.2 walk-through
//! needs: SETs append values to a log, the KVS cache records value
//! *locations*, and RDMA replies read them back.

use bytes::BufMut;
use std::collections::HashMap;

/// Sparse byte-addressable host memory, organized in 4 KiB pages.
///
/// Transfers move a page run at a time: one map probe and one
/// `copy_from_slice` per touched page, never a probe per byte
/// (docs/PERF.md §13). `host/reference.rs` keeps the per-byte model
/// this replaced as the test oracle.
#[derive(Debug, Default)]
pub struct HostMemory {
    pages: HashMap<u64, Box<[u8; Self::PAGE]>>,
    /// Next free address for [`HostMemory::alloc`].
    alloc_cursor: u64,
    /// Bytes read/written over the lifetime (traffic accounting).
    pub bytes_read: u64,
    /// Bytes written over the lifetime.
    pub bytes_written: u64,
}

/// What a page nobody wrote reads as.
static ZERO_PAGE: [u8; HostMemory::PAGE] = [0; HostMemory::PAGE];

/// Splits `len` bytes at `addr` into `(page, offset, run length)`, one
/// entry per touched page, in address order; nothing for `len == 0`.
/// Addresses wrap at 2^64 like the bus they model.
fn page_runs(mut addr: u64, mut len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    const PAGE: u64 = HostMemory::PAGE as u64;
    std::iter::from_fn(move || {
        if len == 0 {
            return None;
        }
        let off = (addr % PAGE) as usize;
        let run = len.min(HostMemory::PAGE - off);
        let item = (addr / PAGE, off, run);
        addr = addr.wrapping_add(run as u64);
        len -= run;
        Some(item)
    })
}

impl HostMemory {
    const PAGE: usize = 4096;

    /// An empty memory; allocation starts at `base`.
    #[must_use]
    pub fn new(base: u64) -> HostMemory {
        HostMemory {
            alloc_cursor: base,
            ..HostMemory::default()
        }
    }

    /// Reserves `len` bytes and returns their base address.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let addr = self.alloc_cursor;
        self.alloc_cursor += len.max(1);
        addr
    }

    /// Writes `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        let mut rest = data;
        for (page, off, run) in page_runs(addr, data.len()) {
            let (head, tail) = rest.split_at(run);
            self.pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; Self::PAGE]))[off..off + run]
                .copy_from_slice(head);
            rest = tail;
        }
    }

    /// Reads `len` bytes at `addr` (untouched bytes read as zero).
    #[must_use]
    pub fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(addr, len, &mut out);
        out
    }

    /// Appends the `len` bytes at `addr` to `out` (untouched bytes read
    /// as zero): [`HostMemory::read`] without the intermediate `Vec`,
    /// for a caller that is already building a buffer.
    pub fn read_into<B: BufMut>(&mut self, addr: u64, len: usize, out: &mut B) {
        self.bytes_read += len as u64;
        for (page, off, run) in page_runs(addr, len) {
            let src = self.pages.get(&page).map_or(&ZERO_PAGE, |p| &**p);
            out.put_slice(&src[off..off + run]);
        }
    }

    /// Number of resident pages (memory-pressure reporting).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_read_roundtrip() {
        let mut m = HostMemory::new(0x1000);
        m.write(0x1000, b"hello host");
        assert_eq!(m.read(0x1000, 10), b"hello host");
        assert_eq!(m.bytes_written, 10);
        assert_eq!(m.bytes_read, 10);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut m = HostMemory::new(0);
        assert_eq!(m.read(0xdead_0000, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn writes_span_page_boundaries() {
        let mut m = HostMemory::new(0);
        let addr = 4096 - 2;
        m.write(addr, &[1, 2, 3, 4]);
        assert_eq!(m.read(addr, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn alloc_is_disjoint_and_monotonic() {
        let mut m = HostMemory::new(0x10_0000);
        let a = m.alloc(100);
        let b = m.alloc(50);
        let c = m.alloc(0); // zero-size still gets a unique address
        assert_eq!(a, 0x10_0000);
        assert_eq!(b, a + 100);
        assert_eq!(c, b + 50);
        let d = m.alloc(8);
        assert_eq!(d, c + 1);
    }

    #[test]
    fn overwrite_replaces() {
        let mut m = HostMemory::new(0);
        m.write(8, b"aaaa");
        m.write(8, b"bb");
        assert_eq!(m.read(8, 4), b"bbaa");
    }

    #[test]
    fn zero_length_write_creates_no_page() {
        let mut m = HostMemory::new(0);
        m.write(0x2000, &[]);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.bytes_written, 0);
    }

    #[test]
    fn read_into_appends_after_what_is_there() {
        let mut m = HostMemory::new(0);
        m.write(4090, b"0123456789");
        let mut out = vec![0xEE, 0xFF];
        m.read_into(4088, 14, &mut out);
        assert_eq!(out, b"\xEE\xFF\0\x000123456789\0\0");
        assert_eq!(m.bytes_read, 14);
    }

    /// Deterministic non-zero filler, so a zero-fill where data should
    /// be (or the reverse) cannot pass by accident.
    fn filler(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (seed.wrapping_add(i.wrapping_mul(31)) as u8) | 1)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random scripts against the per-byte memory this replaced:
        /// the same bytes back from every read, the same resident
        /// pages and the same traffic counters after every step.
        /// Addresses sit in a sixteen-page window (plus whatever
        /// `alloc` hands out), so transfers of 0-9,000 bytes start
        /// mid-page, straddle one, two and three page ends, overwrite
        /// each other and read ranges nobody wrote.
        #[test]
        fn matches_the_per_byte_memory_step_for_step(
            script in proptest::collection::vec(
                (0u8..8, 0u64..16, 0u64..4096, 0usize..=9000, any::<u64>()),
                0..40,
            ),
        ) {
            const WINDOW: u64 = 0x1000_0000;
            let mut new = HostMemory::new(0x4000_0000);
            let mut old = reference::HostMemory::new(0x4000_0000);
            for (op, page, off, len, seed) in script {
                // Long transfers, short ones, empty and one-byte ones,
                // and ones that end within two bytes of a page end.
                let len = match seed % 4 {
                    0 => len,
                    1 => len % 97,
                    2 => len % 3,
                    _ => (4096 - off as usize + len % 5).saturating_sub(2),
                };
                let mut addr = WINDOW + page * 4096 + off;
                if op == 0 {
                    addr = new.alloc(len as u64);
                    prop_assert_eq!(addr, old.alloc(len as u64));
                }
                match op {
                    0..=3 => {
                        let data = filler(seed, len);
                        new.write(addr, &data);
                        old.write(addr, &data);
                    }
                    4 | 5 => prop_assert_eq!(new.read(addr, len), old.read(addr, len)),
                    _ => {
                        let mut out = filler(seed, (seed >> 8) as usize % 5);
                        let mut want = out.clone();
                        new.read_into(addr, len, &mut out);
                        want.extend(old.read(addr, len));
                        prop_assert_eq!(out, want);
                    }
                }
                // Read back around what was touched, a page either side.
                let (lo, span) = (addr.saturating_sub(4096), len + 2 * 4096);
                prop_assert_eq!(new.read(lo, span), old.read(lo, span));
                prop_assert_eq!(new.resident_pages(), old.resident_pages());
                prop_assert_eq!(
                    (new.bytes_read, new.bytes_written),
                    (old.bytes_read, old.bytes_written)
                );
            }
        }
    }
}
