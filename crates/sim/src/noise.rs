//! Deterministic, stream-addressable noise.
//!
//! The simulator must be reproducible: running the same kernel at the same
//! configuration with the same machine seed must yield bit-identical
//! results, regardless of evaluation order (a served `Run`, a replayed
//! journal and the offline sweep reach the same run by different paths).
//! We therefore derive all noise from a counter-mode hash of `(machine
//! seed, kernel, configuration, run, stream)` rather than from a shared
//! stateful RNG.

/// Identifies which quantity a noise sample perturbs, so that e.g. the
/// timing jitter and the L1-miss jitter of the same run are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
#[allow(missing_docs)] // variant names are self-describing quantity tags
pub enum Stream {
    Timing = 1,
    Power = 2,
    Sensor = 3,
    Instructions = 4,
    L1Miss = 5,
    L2Miss = 6,
    TlbMiss = 7,
    Branch = 8,
    Vector = 9,
    Stall = 10,
    FpuIdle = 11,
    Dram = 12,
    Interrupt = 13,
}

/// SplitMix64's Weyl increment (the golden-ratio gamma).
const GOLDEN_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64's first finalizer multiplier. The fault and arrival streams
/// also borrow it as an odd stream-separation multiplier.
pub(crate) const MIX_MUL: u64 = 0xBF58476D1CE4E5B9;

/// SplitMix64 finalizer: a strong 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The workspace's one seeded sequential stream: SplitMix64 as a stateful
/// generator. Output `i` of a stream seeded `s` is
/// `splitmix64(s + i·γ)`, so the determinism contract of every seeded
/// schedule (chaos rolls, served-stream requests, idempotency keys, bootstrap
/// resamples) is the one pinned by this module's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// A uniform draw in [0, 1) from the next output's 53 high bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a's offset basis: the hash of the empty string.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xCBF29CE484222325;

/// FNV-1a hash of a byte string, used to fold kernel names into the seed.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET_BASIS, bytes)
}

/// Continue an FNV-1a hash over more bytes: hashing a string piece by
/// piece gives the hash of the concatenation.
#[inline]
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// A deterministic noise source addressed by `(seed, kernel, config, run)`.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSource {
    base: u64,
}

impl NoiseSource {
    /// Build a noise source for one simulated kernel execution.
    pub fn new(machine_seed: u64, kernel_id: &str, config_index: usize, run: u64) -> Self {
        Self::from_id_hash(machine_seed, fnv1a(kernel_id.as_bytes()), config_index, run)
    }

    /// [`NoiseSource::new`] for a kernel id already hashed with [`fnv1a`]
    /// (`KernelCharacteristics::id_hash`), so one execution that needs
    /// several sources hashes its kernel once.
    pub(crate) fn from_id_hash(
        machine_seed: u64,
        id_hash: u64,
        config_index: usize,
        run: u64,
    ) -> Self {
        let mut base = splitmix64(machine_seed);
        base = splitmix64(base ^ id_hash);
        base = splitmix64(base ^ (config_index as u64).wrapping_mul(0x9E3779B97F4A7C15));
        base = splitmix64(base ^ run);
        Self { base }
    }

    /// Raw 64-bit sample for `stream`, with an extra lane index for streams
    /// that need more than one draw.
    #[inline]
    fn bits(&self, stream: Stream, lane: u64) -> u64 {
        splitmix64(self.base ^ (stream as u64).wrapping_mul(0xD1342543DE82EF95) ^ (lane << 32))
    }

    /// Uniform sample in [0, 1).
    #[inline]
    fn uniform(&self, stream: Stream, lane: u64) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.bits(stream, lane) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample via Box–Muller (deterministic per lane pair).
    pub fn standard_normal(&self, stream: Stream, lane: u64) -> f64 {
        let u1 = self.uniform(stream, lane * 2).max(1e-300);
        let u2 = self.uniform(stream, lane * 2 + 1);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative lognormal-ish jitter `exp(sigma * N(0,1))`, clamped to
    /// a sane band so a tail draw can never produce a negative or absurd
    /// measurement.
    pub fn jitter(&self, stream: Stream, sigma: f64) -> f64 {
        (sigma * self.standard_normal(stream, 0)).exp().clamp(0.5, 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_address_same_noise() {
        let a = NoiseSource::new(42, "LULESH/Small/K1", 7, 0);
        let b = NoiseSource::new(42, "LULESH/Small/K1", 7, 0);
        assert_eq!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
        assert_eq!(a.uniform(Stream::Power, 3), b.uniform(Stream::Power, 3));
    }

    #[test]
    fn a_hashed_id_addresses_the_same_source() {
        let id = "LULESH/Small/K1";
        for (seed, config, run) in [(42, 7, 0), (42 ^ 0xA5A5, 7, 0), (0, 41, 3), (u64::MAX, 0, 9)] {
            let named = NoiseSource::new(seed, id, config, run);
            let hashed = NoiseSource::from_id_hash(seed, fnv1a(id.as_bytes()), config, run);
            assert_eq!(named.base, hashed.base);
        }
    }

    #[test]
    fn different_streams_differ() {
        let a = NoiseSource::new(42, "k", 0, 0);
        assert_ne!(a.bits(Stream::Timing, 0), a.bits(Stream::Power, 0));
    }

    #[test]
    fn different_kernels_differ() {
        let a = NoiseSource::new(42, "k1", 0, 0);
        let b = NoiseSource::new(42, "k2", 0, 0);
        assert_ne!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
    }

    #[test]
    fn different_configs_differ() {
        let a = NoiseSource::new(42, "k", 0, 0);
        let b = NoiseSource::new(42, "k", 1, 0);
        assert_ne!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
    }

    #[test]
    fn different_runs_differ() {
        let a = NoiseSource::new(42, "k", 0, 0);
        let b = NoiseSource::new(42, "k", 0, 1);
        assert_ne!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let src = NoiseSource::new(7, "k", 3, 1);
        for lane in 0..1000 {
            let u = src.uniform(Stream::Sensor, lane);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let src = NoiseSource::new(99, "moments", 0, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| src.standard_normal(Stream::Timing, i)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn jitter_is_bounded_and_centered() {
        let src = NoiseSource::new(1, "jit", 0, 0);
        let j = src.jitter(Stream::Timing, 0.02);
        assert!((0.5..=2.0).contains(&j));
        // sigma=0 means exactly no jitter
        assert_eq!(src.jitter(Stream::Timing, 0.0), 1.0);
    }

    #[test]
    fn splitmix_stream_is_pinned() {
        // Reference vectors of Vigna's splitmix64.c; every seeded
        // transcript in the workspace derives from these.
        let first4 = |seed| {
            let mut s = SplitMix64(seed);
            [s.next_u64(), s.next_u64(), s.next_u64(), s.next_u64()]
        };
        assert_eq!(
            first4(0),
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
        );
        assert_eq!(
            first4(2014),
            [0xC5D011D42ADE5404, 0x02B74F80E778F7C3, 0xA0CDD6C523743EDB, 0x13884E303DBEE888]
        );
        // The stream is the free function walked along the Weyl sequence.
        let mut s = SplitMix64(2014);
        for i in 0..64u64 {
            assert_eq!(
                s.next_u64(),
                splitmix64(2014u64.wrapping_add(i.wrapping_mul(GOLDEN_GAMMA)))
            );
        }
    }

    #[test]
    fn next_f64_is_the_top_53_bits() {
        let (mut a, mut b) = (SplitMix64(7), SplitMix64(7));
        for _ in 0..1000 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert_eq!(f, (b.next_u64() >> 11) as f64 / 9007199254740992.0);
        }
    }

    #[test]
    fn fnv1a_distinguishes_strings() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }
}
