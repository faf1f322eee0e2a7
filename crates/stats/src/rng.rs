//! Deterministic random-number streams.
//!
//! Experiments in this workspace must be reproducible bit-for-bit: the same
//! master seed has to produce the same detection rates no matter how many
//! worker threads a sweep uses. We therefore give every simulation
//! component its own *substream* derived from `(master seed, stream id)`
//! with SplitMix64, and drive each substream with xoshiro256★★ — a fast,
//! well-tested generator whose output is stable across platforms and crate
//! versions (unlike `StdRng`, whose algorithm is allowed to change).
//!
//! ```
//! use linkpad_stats::rng::MasterSeed;
//!
//! let seed = MasterSeed::new(42);
//! let mut gw_rng = seed.stream(7);     // e.g. the sender gateway
//! let mut net_rng = seed.stream(8);    // e.g. a router
//! let a = gw_rng.next_f64();
//! let b = net_rng.next_f64();
//! assert_ne!(a, b);
//! // Re-derive the same stream: identical sequence.
//! let mut again = seed.stream(7);
//! assert_eq!(a, again.next_f64());
//! ```

use rand_core::{RngCore, SeedableRng};

/// SplitMix64 step — used for seeding and stream derivation.
///
/// This is the generator recommended by the xoshiro authors for expanding
/// a small seed into full generator state.
#[inline]
pub fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

/// Finalizer of SplitMix64: turns a state word into an output word.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256★★ pseudo-random generator (Blackman & Vigna, 2018).
///
/// Period 2²⁵⁶ − 1, passes BigCrush, four words of state, ~0.8 ns per
/// `next_u64` on modern x86-64. Implements [`rand_core::RngCore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Construct from four raw state words. At least one must be non-zero;
    /// an all-zero request is silently remapped to a fixed non-zero state
    /// (the all-zero state is a fixed point of the transition function).
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            // Derived from SplitMix64(0xDEADBEEF..): any fixed non-zero
            // state is acceptable; zero state would generate only zeros.
            Self {
                s: [
                    0x9E37_79B9_7F4A_7C15,
                    0xBF58_476D_1CE4_E5B9,
                    0x94D0_49BB_1331_11EB,
                    0x2545_F491_4F6C_DD1D,
                ],
            }
        } else {
            Self { s }
        }
    }

    /// Seed via SplitMix64 expansion of a single `u64`, as recommended by
    /// the xoshiro reference implementation.
    pub fn from_u64(seed: u64) -> Self {
        let mut st = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            splitmix64(&mut st);
            *w = splitmix64_mix(st);
        }
        Self::from_state(s)
    }

    /// The 2¹²⁸-step jump function: advances the generator as if 2¹²⁸
    /// `next_u64` calls had been made. Used to create non-overlapping
    /// sequences from one seed.
    pub fn jump(&mut self) {
        // Constants from the xoshiro256** reference implementation.
        const JUMP_REF: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for &jump in JUMP_REF.iter() {
            for b in 0..64 {
                if (jump & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Sample a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl RngCore for Xoshiro256StarStar {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, w) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(b);
        }
        Self::from_state(s)
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::from_u64(state)
    }
}

/// A master seed from which independent, reproducible substreams are
/// derived by stream id.
///
/// Stream derivation hashes `(seed, id)` through SplitMix64 twice, so
/// nearby ids (0, 1, 2, …) yield statistically unrelated generators. Every
/// simulation component, worker task, and replication in the workspace is
/// handed its own id; results are therefore independent of scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MasterSeed(u64);

impl MasterSeed {
    /// Wrap a raw seed value.
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The raw seed value.
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// Derive the generator for substream `id`.
    pub fn stream(&self, id: u64) -> Xoshiro256StarStar {
        // Two rounds of mixing decorrelate (seed, id) pairs.
        let a = splitmix64_mix(self.0 ^ 0x6A09_E667_F3BC_C909u64.wrapping_mul(id | 1));
        let b = splitmix64_mix(a.wrapping_add(id).wrapping_add(0x9E37_79B9_7F4A_7C15));
        Xoshiro256StarStar::from_u64(a ^ b.rotate_left(17))
    }

    /// Derive a child master seed (for nested replication structures:
    /// e.g. replication k of a sweep gets `seed.child(k)` and then hands
    /// out per-component streams itself).
    pub fn child(&self, id: u64) -> MasterSeed {
        MasterSeed(splitmix64_mix(self.0.rotate_left(23).wrapping_add(
            splitmix64_mix(id.wrapping_add(0xABCD_EF01_2345_6789)),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_matches_reference_vector() {
        // First three outputs of the public C reference implementation of
        // xoshiro256** seeded with state {1, 2, 3, 4}.
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        assert_eq!(rng.next_u64(), 11520);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.next_u64(), 1_509_978_240);
    }

    #[test]
    fn xoshiro_regression_sequence_is_stable() {
        let mut rng = Xoshiro256StarStar::from_u64(42);
        let v: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut rng2 = Xoshiro256StarStar::from_u64(42);
        let w: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
        assert_eq!(v, w, "same seed must give the same sequence");
        let mut rng3 = Xoshiro256StarStar::from_u64(43);
        let u: Vec<u64> = (0..4).map(|_| rng3.next_u64()).collect();
        assert_ne!(v, u, "different seeds must differ");
    }

    #[test]
    fn zero_state_is_remapped() {
        let mut rng = Xoshiro256StarStar::from_state([0; 4]);
        // Must not be stuck at zero.
        let outputs: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(outputs.iter().any(|&x| x != 0));
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_near_half() {
        let mut rng = Xoshiro256StarStar::from_u64(123);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn fill_bytes_handles_unaligned_lengths() {
        let mut rng = Xoshiro256StarStar::from_u64(9);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} produced all zeros");
            }
        }
    }

    #[test]
    fn jump_produces_disjoint_looking_streams() {
        let mut a = Xoshiro256StarStar::from_u64(5);
        let mut b = a.clone();
        b.jump();
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert!(xs.iter().all(|x| !ys.contains(x)));
    }

    #[test]
    fn master_seed_streams_are_reproducible_and_distinct() {
        let seed = MasterSeed::new(1234);
        let mut s0 = seed.stream(0);
        let mut s0b = seed.stream(0);
        let mut s1 = seed.stream(1);
        let a: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| s0b.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adjacent_stream_ids_are_decorrelated() {
        // Crude correlation check between streams id and id+1.
        let seed = MasterSeed::new(99);
        let mut x = seed.stream(10);
        let mut y = seed.stream(11);
        let n = 20_000;
        let mut dot = 0.0;
        for _ in 0..n {
            let a = x.next_f64() - 0.5;
            let b = y.next_f64() - 0.5;
            dot += a * b;
        }
        let corr = dot / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.05, "corr = {corr}");
    }

    #[test]
    fn child_seeds_differ_from_parent() {
        let seed = MasterSeed::new(7);
        assert_ne!(seed.child(0), seed);
        assert_ne!(seed.child(0), seed.child(1));
        // Children are deterministic.
        assert_eq!(seed.child(3), seed.child(3));
    }
}
