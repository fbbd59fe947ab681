//! Deterministic random-number streams.
//!
//! Every stochastic element of a simulation (each traffic source, each ECMP
//! hash salt, each model initializer) draws from its own named stream derived
//! from one experiment seed. Streams are independent of the order in which
//! they are created, so adding instrumentation or reordering setup code never
//! perturbs results — a property the reproduction harness relies on.
//!
//! The one generator behind every stream is [`SmallRng`]: xoshiro256++
//! seeded through SplitMix64, bit for bit the generator `rand` 0.8 selects
//! as `SmallRng` on 64-bit targets. It offers only the draws the workspace
//! makes, as inherent methods.

use std::ops::Range;

/// Derives per-component RNGs from a single experiment seed.
#[derive(Clone, Copy, Debug)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory for the given experiment seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The experiment seed this factory was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the RNG for the stream named by `label` and `index`.
    ///
    /// The same `(seed, label, index)` triple always yields the same stream;
    /// distinct triples yield streams that are statistically independent
    /// (mixed through SplitMix64, the standard seed-expansion finalizer).
    pub fn stream(&self, label: &str, index: u64) -> SmallRng {
        let mut h = self.seed;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ b as u64);
        }
        h = splitmix64(h ^ index);
        // The `| 1` guards nothing (SplitMix64 expansion never yields an
        // all-zero state), but every stream's bits depend on it, so it stays.
        SmallRng::seed_from_u64(splitmix64(h) | 1)
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of `word`.
#[inline]
pub(crate) fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++: fast, small and statistically strong enough for
/// simulation use; not cryptographically secure.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Builds a generator from a 64-bit seed: word `i` of the state is
    /// `splitmix64(seed + i·0x9E37_79B9_7F4A_7C15)`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        SmallRng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next uniform 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// An integer in `[0, n)` (`next_u64() % n`; panics when `n` is 0).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[range.start, range.end)` (`lo + u·(hi − lo)`).
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_f64() * (range.end - range.start)
    }

    /// Uniform in `[range.start, range.end)` (`lo + u·(hi − lo)`).
    pub fn range_f32(&mut self, range: Range<f32>) -> f32 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_f32() * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn known_answers() {
        // The values of `rand` 0.8's `SmallRng` (xoshiro256++ seeded through
        // SplitMix64), which every golden fingerprint depends on.
        let mut r = SmallRng::seed_from_u64(0);
        assert_eq!(
            draws(&mut r, 3),
            [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc]
        );
        let mut s = RngFactory::new(42).stream("tcp", 3);
        assert_eq!(
            draws(&mut s, 3),
            [0x52f8a2dd3e564c5e, 0x8ea5d5e8a292ac9e, 0xad456a8b7086a7b8]
        );
        let mut r = SmallRng::seed_from_u64(7);
        assert_eq!(r.next_f64().to_bits(), 0x3fac583400555d20);
        assert_eq!(r.next_f32().to_bits(), 0x3e303f20);
        assert_eq!(r.below(10), 8);
        assert_eq!(r.range_f32(-2.0..2.0).to_bits(), 0xbe951308);
        assert_eq!(-3 + r.below(6) as i32, 1);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SmallRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.next_f64()));
            assert!((0.0..1.0).contains(&r.next_f32()));
            assert!((-2.0..3.0).contains(&r.range_f64(-2.0..3.0)));
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn same_triple_same_stream() {
        let f = RngFactory::new(42);
        let a = draws(&mut f.stream("tcp", 3), 16);
        let b = draws(&mut f.stream("tcp", 3), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        assert_ne!(
            draws(&mut f.stream("tcp", 0), 16),
            draws(&mut f.stream("ecmp", 0), 16)
        );
    }

    #[test]
    fn different_indices_differ() {
        let f = RngFactory::new(42);
        assert_ne!(
            draws(&mut f.stream("tcp", 0), 16),
            draws(&mut f.stream("tcp", 1), 16)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = draws(&mut RngFactory::new(1).stream("x", 0), 16);
        let b = draws(&mut RngFactory::new(2).stream("x", 0), 16);
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_avalanches() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = splitmix64(0x1234_5678);
        let flipped = splitmix64(0x1234_5679);
        let differing = (base ^ flipped).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "weak avalanche: {differing} bits"
        );
    }
}
