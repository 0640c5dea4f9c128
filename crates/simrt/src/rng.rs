//! Seeded randomness for the simulation.
//!
//! Every app-side stochastic decision in the simulator flows through
//! [`SimRng`], a thin wrapper over [`rand::rngs::StdRng`] that adds the
//! handful of distributions the runtime model needs (jitter factors,
//! approximate normals). The per-core kworker pulse trains draw from
//! SplitMix64 streams seeded once from it, so seeding the simulator
//! still fixes the entire run.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic random source used throughout the simulation.
#[derive(Debug)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator from this one.
    ///
    /// Used to give each app/user trace its own stream so that adding a
    /// probe or extra sampling does not perturb unrelated draws.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.random::<u64>())
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.random_range(lo..hi)
    }

    /// Returns a uniform integer in `[lo, hi]`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.random_range(lo..=hi)
    }

    /// Returns a multiplicative jitter factor in `[1 - j, 1 + j]`.
    ///
    /// `j` is clamped to `[0, 0.95]` so the factor stays positive.
    pub fn jitter(&mut self, j: f64) -> f64 {
        let j = j.clamp(0.0, 0.95);
        self.uniform_f64(1.0 - j, 1.0 + j)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.random::<f64>() < p
    }

    /// Draws an approximately normal sample via the Box-Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box-Muller: two independent uniforms to one normal deviate.
        let u1: f64 = self.inner.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.inner.random();
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Draws a positive log-normal-ish factor with the given spread.
    pub fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        self.normal(0.0, sigma).exp()
    }

    /// Returns a uniformly chosen index below `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.inner.random_range(0..len)
    }

    /// Returns a raw 64-bit draw (for deriving sub-seeds).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random()
    }
}

/// SplitMix64's state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijective mix of one state word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: a counter stepped by [`GAMMA`] and whitened by
/// [`mix`]. Each kworker pulse train owns one, seeded once from the
/// world's [`SimRng`], so pulses never draw from the stream app work
/// draws from. Because the state is a plain counter, the stream steps
/// back as cheaply as forward ([`Self::last`], [`Self::unwind`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next draw.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Returns the most recent draw again, without moving the stream.
    #[inline]
    pub(crate) fn last(&self) -> u64 {
        mix(self.state)
    }

    /// Steps the stream back by one draw: the draw [`Self::last`] returned
    /// comes out of [`Self::next_u64`] again.
    #[inline]
    pub(crate) fn unwind(&mut self) {
        self.state = self.state.wrapping_sub(GAMMA);
    }
}

/// Fans one 64-bit draw out into many small independent decisions.
///
/// The accrual kernel used to draw one full RNG value per derived PMU
/// event (~40 draws per [`crate::work::MemProfile::accrue`] call), which
/// pinned the fleet's hot loop on RNG throughput. A `JitterFan` instead
/// takes a single [`SimRng`] draw as its seed and expands it with
/// SplitMix64, handing out 8- and 16-bit slices of each expansion. The
/// parent stream advances by exactly one draw per accrue call no matter
/// how many derived events are produced, so scheduler-level determinism
/// never depends on the event mix.
#[derive(Debug)]
pub struct JitterFan {
    stream: SplitMix64,
    bits: u64,
    left: u32,
}

impl JitterFan {
    /// Creates a fan from one parent draw.
    #[inline]
    pub fn new(seed: u64) -> JitterFan {
        JitterFan {
            stream: SplitMix64::new(seed),
            bits: 0,
            left: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        self.bits = self.stream.next_u64();
        self.left = 64;
    }

    /// Returns the next 8 bits of the expansion.
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        if self.left < 8 {
            self.refill();
        }
        let v = self.bits as u8;
        self.bits >>= 8;
        self.left -= 8;
        v
    }

    /// Returns the next 16 bits of the expansion.
    #[inline]
    pub fn next_u16(&mut self) -> u16 {
        if self.left < 16 {
            self.refill();
        }
        let v = self.bits as u16;
        self.bits >>= 16;
        self.left -= 16;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = rng.jitter(0.2);
            assert!((0.8..=1.2).contains(&f), "jitter {f} out of band");
        }
    }

    #[test]
    fn jitter_clamps_extreme_spread() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(rng.jitter(5.0) > 0.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn jitter_fan_is_deterministic_per_seed() {
        let mut a = JitterFan::new(99);
        let mut b = JitterFan::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u8(), b.next_u8());
            assert_eq!(a.next_u16(), b.next_u16());
        }
        let mut c = JitterFan::new(100);
        let mut d = JitterFan::new(99);
        let differs = (0..64).filter(|_| d.next_u8() != c.next_u8()).count();
        assert!(differs > 0, "different seeds must diverge");
    }

    #[test]
    fn jitter_fan_bytes_are_roughly_uniform() {
        // 256 buckets x 4096 samples: every bucket must be populated and
        // no bucket may be wildly off the expected 16 hits.
        let mut fan = JitterFan::new(7);
        let mut hist = [0u32; 256];
        for _ in 0..4096 {
            hist[fan.next_u8() as usize] += 1;
        }
        assert!(hist.iter().all(|&h| h > 0), "empty bucket");
        assert!(hist.iter().all(|&h| h < 64), "overfull bucket");
    }

    #[test]
    fn split_mix_steps_back_exactly() {
        let mut rng = SplitMix64::new(0xDEAD_BEEF);
        let draws: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        for &draw in draws.iter().rev() {
            assert_eq!(rng.last(), draw);
            rng.unwind();
        }
        assert_eq!(rng, SplitMix64::new(0xDEAD_BEEF));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed_from_u64(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
