//! Deterministic randomness, percentiles, and body hashing.

/// SplitMix64: a tiny seeded generator, so every schedule is a pure
/// function of the workload seed on any platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x5EED_CAFE_F00D_D00D);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Samples beyond a percentile that a reported percentile needs.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in percent) of `sorted`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a small list of repeated measurements (lower middle for an
/// even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[(v.len() - 1) / 2])
}

/// A 64-bit hash of a response body with the `"cached"` flag
/// normalised, so a cache hit and a fresh solve of the same answer hash
/// alike. The flag sits in the first bytes of every answer body.
pub fn body_hash(body: &[u8]) -> u64 {
    const CACHED: &[u8] = b"\"cached\":true";
    let head = &body[..body.len().min(256)];
    match head.windows(CACHED.len()).position(|w| w == CACHED) {
        Some(at) => {
            let mut normal = Vec::with_capacity(body.len() + 1);
            normal.extend_from_slice(&body[..at]);
            normal.extend_from_slice(b"\"cached\":false");
            normal.extend_from_slice(&body[at + CACHED.len()..]);
            hash_bytes(&normal)
        }
        None => hash_bytes(body),
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_need_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p99 of 100 samples has one sample beyond it: not reported.
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank 990 has only nine beyond it.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
    }

    #[test]
    fn cached_flag_is_normalised() {
        let a = br#"{"algorithm":"approxrank","cached":true,"scores":[]}"#;
        let b = br#"{"algorithm":"approxrank","cached":false,"scores":[]}"#;
        assert_eq!(body_hash(a), body_hash(b));
        assert_ne!(
            body_hash(b),
            body_hash(br#"{"algorithm":"idealrank","cached":false}"#)
        );
    }
}
