//! Order statistics, seeded randomness and failure rates shared by every
//! workload and by `compare`.

use std::fmt;

/// SplitMix64: a tiny seeded generator. Every workload input is drawn from
/// one of these, so the same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for stream `index` of a run seeded with `seed`: independent
/// streams (clients, passes) that are still a pure function of the seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p`% of all samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above the `p`th percentile — the support
/// a tail percentile has.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    match percentile(sorted, p) {
        Some(v) => sorted.len() - sorted.partition_point(|&x| x <= v),
        None => 0,
    }
}

/// Median (mean of the two middle samples for an even count), as Python's
/// `statistics.median` computes it. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is how run-to-run spread is judged. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some([s[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Why a failure rate cannot be formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateError {
    /// Nothing was attempted, so there is no rate (not a rate of 0 or NaN).
    NoAttempts,
    /// More failures than attempts: the counts are inconsistent.
    FailedExceedsAttempted { failed: u64, attempted: u64 },
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::NoAttempts => f.write_str("no operations attempted"),
            RateError::FailedExceedsAttempted { failed, attempted } => {
                write!(f, "{failed} failures out of {attempted} attempts")
            }
        }
    }
}

/// Failed operations per attempted operation.
pub fn error_rate(failed: u64, attempted: u64) -> Result<f64, RateError> {
    if attempted == 0 {
        return Err(RateError::NoAttempts);
    }
    if failed > attempted {
        return Err(RateError::FailedExceedsAttempted { failed, attempted });
    }
    Ok(failed as f64 / attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Fewer than 100 samples: p99 is the maximum.
        assert_eq!(percentile(&sorted(&[3.0, 1.0, 2.0]), 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 99.0), 10);
        assert_eq!(beyond(&v, 50.0), 500);
        // Ties at the percentile value are not beyond it.
        assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0], 50.0), 0);
        assert_eq!(beyond(&[], 99.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn seeded_zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(10_000, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1979), draw(1979));
        assert_ne!(draw(1979), draw(4242));
        let ranks = draw(1979);
        assert!(ranks.iter().all(|&r| r < 10_000));
        // Rank 0 carries 1/H(10000) ≈ 10.2% of the mass.
        let top = ranks.iter().filter(|&&r| r == 0).count();
        assert!((120..=290).contains(&top), "rank 0 drawn {top} times");
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(1, 7), derive_seed(1, 7));
    }

    #[test]
    fn error_rate_is_typed_not_nan() {
        assert_eq!(error_rate(0, 0), Err(RateError::NoAttempts));
        assert_eq!(error_rate(0, 10), Ok(0.0));
        assert_eq!(error_rate(1, 4), Ok(0.25));
        assert_eq!(
            error_rate(5, 4),
            Err(RateError::FailedExceedsAttempted {
                failed: 5,
                attempted: 4
            })
        );
    }
}
