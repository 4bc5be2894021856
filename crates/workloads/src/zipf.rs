//! Zipf-distributed sampling.
//!
//! KVS key popularity is classically Zipfian (the DynamoDB/memcached
//! literature the paper's example leans on). The sampler precomputes
//! the CDF once — O(n) setup, O(log n) sampling by binary search —
//! which is fine at the 10^4–10^6 key counts experiments use.

use sim_core::rng::SimRng;

/// A Zipf(θ) sampler over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `theta`.
    /// `theta = 0` is uniform; `theta ≈ 0.99` is the YCSB default.
    ///
    /// # Panics
    /// Panics if `n` is zero or `theta` is negative.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "empty key space");
        assert!(theta >= 0.0, "negative exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point undershoot at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (n ≥ 1 by construction); for clippy symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `r`.
    #[must_use]
    pub fn pmf(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }
}

/// A per-tenant Zipf sampler over a seeded partition of one shared
/// global key space.
///
/// Multi-tenant stores don't give every tenant its own address space —
/// they carve one. The global space of `keys × num_partitions` keys is
/// striped by residue class: partition `p` owns every key `k` with
/// `k % num_partitions == p`, so two partitions are **disjoint by
/// construction**. Within its stripe, a seeded Fisher–Yates shuffle
/// maps Zipf rank to concrete key, so each partition's *hot set* lands
/// on different, seed-dependent keys. Each partition owns its own RNG
/// stream (derived from `seed` + the partition index), so two tenants
/// built from the same seed still draw independent, individually
/// Zipfian streams.
///
/// The rank → key permutation is built by [`PartitionedZipf::new`]; the
/// Zipf CDF (a `powf` per key) only by the first
/// [`PartitionedZipf::next_key`]. A stripe that is only ever asked
/// [`PartitionedZipf::key_of_rank`] — the rack's per-member stripes —
/// never pays for it (docs/PERF.md §13).
#[derive(Debug, Clone)]
pub struct PartitionedZipf {
    /// `None` until the first sample.
    zipf: Option<Zipf>,
    theta: f64,
    rng: SimRng,
    /// Rank → global key (seeded permutation of the stripe).
    slots: Vec<u64>,
    num_partitions: u64,
    partition: u64,
}

impl PartitionedZipf {
    /// Builds the sampler for `partition` of `num_partitions`, with
    /// `keys` keys per partition and Zipf exponent `theta`.
    ///
    /// # Panics
    /// Panics if `partition >= num_partitions`, or on the [`Zipf::new`]
    /// preconditions.
    #[must_use]
    pub fn new(seed: u64, partition: u64, num_partitions: u64, keys: usize, theta: f64) -> Self {
        assert!(
            partition < num_partitions,
            "partition {partition} out of {num_partitions}"
        );
        // `Zipf::new`'s preconditions, checked here because the CDF is
        // built later.
        assert!(keys > 0, "empty key space");
        assert!(theta >= 0.0, "negative exponent");
        // The permutation stays eager: Fisher–Yates fixes rank 0 last,
        // so even `key_of_rank(0)` needs the whole shuffle.
        let mut rng = SimRng::new(seed).derive(&format!("kvs-partition-{partition}"));
        let mut slots: Vec<u64> = (0..keys as u64)
            .map(|r| r * num_partitions + partition)
            .collect();
        rng.shuffle(&mut slots);
        PartitionedZipf {
            zipf: None,
            theta,
            rng,
            slots,
            num_partitions,
            partition,
        }
    }

    /// Draws the next key from this partition's stream.
    pub fn next_key(&mut self) -> u64 {
        let zipf = self
            .zipf
            .get_or_insert_with(|| Zipf::new(self.slots.len(), self.theta));
        self.slots[zipf.sample(&mut self.rng)]
    }

    /// The global key this partition maps rank `r` to.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn key_of_rank(&self, r: usize) -> u64 {
        self.slots[r]
    }

    /// True when `key` belongs to this partition's stripe.
    #[must_use]
    pub fn owns(&self, key: u64) -> bool {
        key % self.num_partitions == self.partition
    }

    /// Keys in this partition.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false (`Zipf` enforces ≥ 1 key).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SimRng::new(5);
        let mut head = 0;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99 and n=1000, the top-10 ranks carry ~38% of
        // the mass.
        let frac = f64::from(head) / f64::from(n);
        assert!((0.30..0.45).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn samples_cover_range_and_respect_ranking() {
        let z = Zipf::new(50, 1.0);
        let mut rng = SimRng::new(6);
        let mut counts = [0u32; 50];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[49]);
        assert!(counts.iter().all(|&c| c > 0), "full support");
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.8);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    fn single_item_always_samples_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn zero_items_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn partitions_are_disjoint_and_individually_zipfian() {
        // Two tenants, SAME seed, different partition index.
        let mut a = PartitionedZipf::new(42, 0, 2, 200, 0.99);
        let mut b = PartitionedZipf::new(42, 1, 2, 200, 0.99);
        let mut keys_a = std::collections::BTreeSet::new();
        let mut keys_b = std::collections::BTreeSet::new();
        let mut top_a = std::collections::BTreeMap::new();
        let mut top_b = std::collections::BTreeMap::new();
        let n = 40_000;
        for _ in 0..n {
            let ka = a.next_key();
            let kb = b.next_key();
            assert!(a.owns(ka) && !b.owns(ka));
            assert!(b.owns(kb) && !a.owns(kb));
            keys_a.insert(ka);
            keys_b.insert(kb);
            *top_a.entry(ka).or_insert(0u32) += 1;
            *top_b.entry(kb).or_insert(0u32) += 1;
        }
        assert!(keys_a.is_disjoint(&keys_b), "partitions must not overlap");
        // Each stream is individually Zipf-skewed: the hottest key is
        // far above the uniform 1/200 = 0.5% share.
        for top in [&top_a, &top_b] {
            let hottest = *top.values().max().unwrap();
            let frac = f64::from(hottest) / f64::from(n);
            assert!(frac > 0.05, "hottest-key fraction {frac}");
        }
        // Same seed, but per-partition RNG streams and shuffles: the
        // hot ranks land on different global keys.
        assert_ne!(a.key_of_rank(0) >> 1, b.key_of_rank(0) >> 1);
    }

    #[test]
    fn partition_mapping_is_seed_deterministic() {
        let mut x = PartitionedZipf::new(7, 1, 3, 64, 0.9);
        let mut y = PartitionedZipf::new(7, 1, 3, 64, 0.9);
        let mut z = PartitionedZipf::new(8, 1, 3, 64, 0.9);
        let xs: Vec<u64> = (0..500).map(|_| x.next_key()).collect();
        let ys: Vec<u64> = (0..500).map(|_| y.next_key()).collect();
        let zs: Vec<u64> = (0..500).map(|_| z.next_key()).collect();
        assert_eq!(xs, ys, "same seed + partition => same stream");
        assert_ne!(xs, zs, "different seed => different stream");
        assert_eq!(x.len(), 64);
        assert!(!x.is_empty());
    }

    /// `PartitionedZipf::new` as it stood at commit d3c94ba, body
    /// verbatim: CDF and permutation both built up front.
    fn eager(
        seed: u64,
        partition: u64,
        num_partitions: u64,
        keys: usize,
        theta: f64,
    ) -> PartitionedZipf {
        let mut rng = SimRng::new(seed).derive(&format!("kvs-partition-{partition}"));
        let mut slots: Vec<u64> = (0..keys as u64)
            .map(|r| r * num_partitions + partition)
            .collect();
        rng.shuffle(&mut slots);
        PartitionedZipf {
            zipf: Some(Zipf::new(keys, theta)),
            theta,
            rng,
            slots,
            num_partitions,
            partition,
        }
    }

    #[test]
    fn lazy_cdf_samples_like_its_eager_twin() {
        let cases: [(u64, u64, u64, usize, f64); 12] = [
            (0, 0, 1, 1, 0.0),
            (1, 0, 1, 2, 0.99),
            (7, 1, 3, 64, 0.9),
            (42, 0, 2, 200, 0.99),
            (42, 1, 2, 200, 0.99),
            (0xC0FFEE, 3, 4, 1000, 0.99),
            (0xC0FFEE, 0, 4, 1000, 0.5),
            (u64::MAX, 7, 8, 333, 1.2),
            (5, 2, 5, 4096, 0.0),
            (6, 4, 5, 17, 2.0),
            (1201, 1, 4, 2500, 0.99),
            (9, 15, 16, 50, 0.7),
        ];
        for (seed, partition, n, keys, theta) in cases {
            let mut lazy = PartitionedZipf::new(seed, partition, n, keys, theta);
            let mut twin = eager(seed, partition, n, keys, theta);
            assert!(lazy.zipf.is_none(), "construction builds no CDF");
            // Ranks first, as the rack asks: they must not need (or
            // build) the CDF.
            for r in 0..keys {
                assert_eq!(lazy.key_of_rank(r), twin.key_of_rank(r));
            }
            assert!(lazy.zipf.is_none(), "key_of_rank builds no CDF");
            let mut copy = lazy.clone();
            for i in 0..1000 {
                let want = twin.next_key();
                assert_eq!(lazy.next_key(), want, "draw {i} of {seed}/{partition}");
                assert_eq!(copy.next_key(), want, "clone, draw {i}");
            }
            assert_eq!((lazy.len(), lazy.owns(lazy.key_of_rank(0))), (keys, true));
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn empty_partition_rejected_at_construction() {
        let _ = PartitionedZipf::new(0, 0, 1, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn partition_index_out_of_range_rejected() {
        let _ = PartitionedZipf::new(0, 3, 3, 10, 1.0);
    }
}
