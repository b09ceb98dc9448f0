//! Seeded request streams.
//!
//! Every generated input is a pure function of `(--seed, lane, index)`:
//! a lane is one connection or generator thread, an index is the position
//! in that lane's stream. Nothing here keeps state between draws, so a
//! stream can be resumed at any index (the traced run continues the
//! stream its untraced phase started) and replayed in-process by the
//! layer replay without re-running the generator.

use acs_sim::noise::splitmix64;

/// One lane's stream of 64-bit draws.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    key: u64,
}

impl Stream {
    /// The stream of `lane` under `seed`.
    pub fn new(seed: u64, lane: u64) -> Self {
        Self { key: splitmix64(seed ^ splitmix64(lane)) }
    }

    /// The draw at `index`.
    pub fn at(&self, index: u64) -> u64 {
        splitmix64(self.key ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A further draw derived from `bits` (for requests that need more than
/// 64 random bits: batch members, feedback jitter).
pub fn derive(bits: u64, salt: u64) -> u64 {
    splitmix64(bits ^ splitmix64(salt))
}

/// Map 64 random bits to a uniform value in `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_agree_and_different_seeds_differ() {
        let a: Vec<u64> = (0..64).map(|i| Stream::new(2014, 1).at(i)).collect();
        let b: Vec<u64> = (0..64).map(|i| Stream::new(2014, 1).at(i)).collect();
        let other_seed: Vec<u64> = (0..64).map(|i| Stream::new(7, 1).at(i)).collect();
        let other_lane: Vec<u64> = (0..64).map(|i| Stream::new(2014, 2).at(i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, other_seed);
        assert_ne!(a, other_lane);
    }

    #[test]
    fn unit_stays_in_range() {
        for i in 0..1000 {
            let u = unit(Stream::new(1, 0).at(i));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
