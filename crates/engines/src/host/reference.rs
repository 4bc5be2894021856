//! [`super::HostMemory`] as it stood before it moved page runs: one
//! `HashMap::entry` per byte written, one `get` per byte read, at
//! commit d3c94ba, bodies verbatim. Test-only: the differential
//! proptest in `host.rs` replays random `alloc` / `write` / `read` /
//! `read_into` scripts against this and demands the same bytes, the
//! same resident pages and the same traffic counters after every step.

use std::collections::HashMap;

/// Sparse byte-addressable host memory, organized in 4 KiB pages.
#[derive(Debug, Default)]
pub(crate) struct HostMemory {
    pages: HashMap<u64, Box<[u8; Self::PAGE]>>,
    /// Next free address for [`HostMemory::alloc`].
    alloc_cursor: u64,
    /// Bytes read/written over the lifetime (traffic accounting).
    pub bytes_read: u64,
    /// Bytes written over the lifetime.
    pub bytes_written: u64,
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
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let page = a / Self::PAGE as u64;
            let off = (a % Self::PAGE as u64) as usize;
            self.pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; Self::PAGE]))[off] = b;
        }
    }

    /// Reads `len` bytes at `addr` (untouched bytes read as zero).
    #[must_use]
    pub fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.bytes_read += len as u64;
        (0..len)
            .map(|i| {
                let a = addr + i as u64;
                let page = a / Self::PAGE as u64;
                let off = (a % Self::PAGE as u64) as usize;
                self.pages.get(&page).map_or(0, |p| p[off])
            })
            .collect()
    }

    /// Number of resident pages (memory-pressure reporting).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}
