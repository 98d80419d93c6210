//! Deterministic input streams: every input of a run derives from the
//! `--seed` argument through these, so one seed gives one set of inputs.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson
    /// inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// A sub-seed for one named input of a run, so that workloads and
/// phases draw independent streams from one `--seed`.
pub fn derive(seed: u64, label: &str) -> u64 {
    // FNV-1a over the label, then one SplitMix step to spread the bits.
    let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Rng::new(seed ^ h).next_u64()
}
