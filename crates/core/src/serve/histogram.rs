//! A fixed-bucket logarithmic histogram of `u64` samples: constant memory
//! however many samples it has seen, `O(buckets)` percentiles, and a
//! reported value within 6.25 % of the exact order statistic.
//!
//! Values below [`SUB`] get a bucket each; above that every power of two
//! is cut into [`SUB`] equal buckets, so a bucket is 1/8 of its lower
//! bound wide and its midpoint is at most 1/16 off any value in it.

/// Buckets per power of two.
const SUB: usize = 8;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// One bucket per value below `SUB`, then `SUB` per octave up to `u64::MAX`.
const BUCKETS: usize = SUB + (u64::BITS - SUB_BITS) as usize * SUB;

/// The histogram: a sample count per bucket.
#[derive(Debug, Clone, Copy)]
pub(super) struct LogHistogram {
    counts: [u64; BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram { counts: [0; BUCKETS] }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let octave = value.ilog2();
    let within = (value >> (octave - SUB_BITS)) as usize % SUB;
    SUB + (octave - SUB_BITS) as usize * SUB + within
}

/// The value a bucket reports: its midpoint (exact for one-value buckets).
fn midpoint(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    let (octave, within) = ((bucket - SUB) / SUB, (bucket - SUB) % SUB);
    let width = 1u64 << octave;
    (SUB + within) as u64 * width + width / 2
}

impl LogHistogram {
    pub(super) fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
    }

    /// The `p`-quantile (`0.0..=1.0`) as the midpoint of the bucket
    /// holding the sample of rank `round(p * (n - 1))`; 0 when empty.
    pub(super) fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (p * (total - 1) as f64).round() as u64;
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return midpoint(bucket);
            }
        }
        midpoint(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn every_value_lands_in_a_bucket_whose_midpoint_is_within_a_sixteenth() {
        let edges = (0..64).flat_map(|e| [(1u64 << e) - 1, 1 << e, (1 << e) + 1, (3 << e) / 2]);
        for v in (0..4096).chain(edges).chain([u64::MAX - 1, u64::MAX]) {
            let (bucket, mid) = (bucket_of(v), midpoint(bucket_of(v)));
            assert!(bucket < BUCKETS, "{v}");
            assert!(mid.abs_diff(v) as f64 <= v as f64 / 16.0, "{v} reported as {mid}");
            assert_eq!(bucket_of(mid), bucket, "{v}: a midpoint lies in its own bucket");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_the_exact_order_statistic_on_a_log_uniform_sample() {
        // Latencies from 50 us to ~50 s, uniform in the exponent.
        let mut rng = SplitMix64::new(0xfeed);
        let mut exact: Vec<u64> = (0..20_000)
            .map(|_| {
                let exponent = rng.next_below(20_000) as f64 / 1000.0;
                (50.0 * 2f64.powf(exponent)) as u64
            })
            .collect();
        let mut hist = LogHistogram::default();
        exact.iter().for_each(|&v| hist.record(v));
        exact.sort_unstable();
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let want = exact[(p * (exact.len() - 1) as f64).round() as usize];
            let got = hist.percentile(p);
            assert!(got.abs_diff(want) as f64 <= 0.1 * want as f64, "p{p}: {got} vs exact {want}");
        }
        assert_eq!(LogHistogram::default().percentile(0.99), 0);
    }
}
