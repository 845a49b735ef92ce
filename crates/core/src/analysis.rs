//! Offline packing analysis: what zero-skipping will buy, before running.
//!
//! The packing procedure "only needs to be done once for a given CNN model
//! such as VGG-16" (paper §III-B). Since cycle costs depend only on weight
//! sparsity and geometry, the packed form predicts per-layer throughput
//! exactly — this module computes those predictions plus the structural
//! statistics (non-zero histograms, lockstep bubbles, scratchpad bytes)
//! that explain them. The `zskip analyze` CLI prints the result.

use crate::config::AccelConfig;
use crate::weights::GroupWeights;
use zskip_nn::conv::QuantConvWeights;

/// Packing statistics for one conv layer on a given accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPackingStats {
    /// Layer name.
    pub name: String,
    /// Weight density (fraction non-zero).
    pub density: f64,
    /// Histogram of per-weight-tile non-zero counts (index 0..=16).
    pub nnz_histogram: [u64; 17],
    /// Total packed scratchpad bytes across all groups.
    pub scratchpad_bytes: u64,
    /// Weight-application steps with lockstep lanes (sum over groups and
    /// IFMs of the per-IFM maximum lane nnz).
    pub lockstep_steps: u64,
    /// Idle lane-slots from nnz imbalance across concurrent filters.
    pub bubble_slots: u64,
    /// Steps if each lane could skip independently (the ideal the paper's
    /// filter-grouping future work approaches).
    pub ideal_steps: u64,
    /// Steps actually charged after the 4-cycle IFM quad-load floor.
    pub floored_steps: u64,
    /// IFM channels skipped outright (all lanes zero).
    pub skipped_channels: u64,
    /// Filter lanes of the analyzed configuration.
    pub lanes: usize,
}

impl LayerPackingStats {
    /// Analyzes one quantized conv layer for an accelerator configuration.
    pub fn analyze(name: &str, qw: &QuantConvWeights, config: &AccelConfig) -> LayerPackingStats {
        let lanes = config.lanes;
        let mut s = LayerPackingStats {
            name: name.to_string(),
            density: qw.density(),
            nnz_histogram: [0; 17],
            scratchpad_bytes: 0,
            lockstep_steps: 0,
            bubble_slots: 0,
            ideal_steps: 0,
            floored_steps: 0,
            skipped_channels: 0,
            lanes,
        };
        for g in 0..qw.out_c.div_ceil(lanes) {
            let gw = GroupWeights::from_filters(qw, g * lanes, lanes);
            s.scratchpad_bytes += gw.total_bytes() as u64;
            for ifm in 0..gw.ifm_count() {
                let steps = gw.steps(ifm) as u64;
                let mut lane_sum = 0u64;
                for lane in 0..lanes {
                    let nnz = gw.lane_tile(ifm, lane).nnz();
                    s.nnz_histogram[nnz.min(16)] += 1;
                    lane_sum += nnz as u64;
                }
                if steps == 0 {
                    s.skipped_channels += 1;
                    continue;
                }
                s.lockstep_steps += steps;
                s.bubble_slots += steps * lanes as u64 - lane_sum;
                s.ideal_steps += lane_sum.div_ceil(lanes as u64);
                s.floored_steps += steps.max(4);
            }
        }
        s
    }

    /// Fraction of lane-slots wasted as bubbles (0 when perfectly
    /// balanced).
    pub fn bubble_fraction(&self) -> f64 {
        let total = self.lockstep_steps * self.lanes as u64;
        if total == 0 {
            0.0
        } else {
            self.bubble_slots as f64 / total as f64
        }
    }

    /// Predicted speedup of zero-skipping over the no-skip baseline
    /// (16 cycles per weight tile), after the 4-cycle floor. Fully-skipped
    /// channels count as free under skipping and 16 cycles without it.
    pub fn predicted_skip_speedup(&self) -> f64 {
        if self.floored_steps == 0 {
            return 1.0;
        }
        // Histogram entries are per (group, ifm, lane): divide by the lane
        // count to recover (group, ifm) weight-tile applications.
        let group_ifm_pairs = self.nnz_histogram.iter().sum::<u64>() / self.lanes as u64;
        (group_ifm_pairs.max(1) * 16) as f64 / self.floored_steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_hls::AccelArch;
    use zskip_quant::{Requantizer, Sm8};

    fn config() -> AccelConfig {
        AccelConfig::from_arch(&AccelArch::full(1), 150.0)
    }

    fn layer(out_c: usize, in_c: usize, keep_mod: usize) -> QuantConvWeights {
        QuantConvWeights::new(
            out_c,
            in_c,
            3,
            (0..out_c * in_c * 9)
                .map(|i| if i % keep_mod == 0 { Sm8::from_i32_saturating((i % 13) as i32 - 6) } else { Sm8::ZERO })
                .collect(),
            vec![0; out_c],
            Requantizer::IDENTITY,
            true,
        )
    }

    #[test]
    fn dense_layer_has_no_bubbles_and_nine_steps() {
        // keep_mod 1: every weight non-zero except values that hash to 0.
        let mut qw = layer(8, 4, 1);
        qw.w = (0..8 * 4 * 9).map(|_| Sm8::from_i32_saturating(3)).collect();
        qw.invalidate_caches();
        let s = LayerPackingStats::analyze("dense", &qw, &config());
        assert_eq!(s.density, 1.0);
        assert_eq!(s.bubble_slots, 0);
        // Every tile has exactly 9 nnz (3x3 kernel in a 4x4 tile).
        assert_eq!(s.nnz_histogram[9], 8 * 4 / 4 * 4);
        assert_eq!(s.lockstep_steps, (8 / 4 * 4 * 9) as u64);
        assert_eq!(s.skipped_channels, 0);
    }

    #[test]
    fn sparse_layer_shows_bubbles_and_floor() {
        let qw = layer(8, 8, 7); // ~1-2 nnz per tile, uneven
        let s = LayerPackingStats::analyze("sparse", &qw, &config());
        assert!(s.density < 0.2, "density {}", s.density);
        assert!(s.bubble_slots > 0, "uneven lanes must bubble");
        assert!(s.floored_steps >= s.lockstep_steps, "floor only adds");
        assert!(s.ideal_steps <= s.lockstep_steps, "ideal skips lane-independently");
        assert!(s.bubble_fraction() > 0.0 && s.bubble_fraction() < 1.0);
    }

    #[test]
    fn fully_zero_layer_skips_all_channels() {
        let mut qw = layer(4, 4, 1);
        qw.w.iter_mut().for_each(|w| *w = Sm8::ZERO);
        qw.invalidate_caches();
        let s = LayerPackingStats::analyze("zero", &qw, &config());
        assert_eq!(s.skipped_channels, 4);
        assert_eq!(s.lockstep_steps, 0);
        assert_eq!(s.predicted_skip_speedup(), 1.0);
    }

    #[test]
    fn skip_speedup_bounded_by_four() {
        let qw = layer(8, 8, 16); // extremely sparse
        let s = LayerPackingStats::analyze("very-sparse", &qw, &config());
        let speedup = s.predicted_skip_speedup();
        assert!(speedup <= 4.0 + 1e-9, "floor bounds speedup, got {speedup}");
        assert!(speedup > 3.0, "sparse layer should approach the bound, got {speedup}");
    }

    #[test]
    fn scratchpad_bytes_match_group_serialization() {
        let qw = layer(8, 4, 3);
        let s = LayerPackingStats::analyze("l", &qw, &config());
        let manual: u64 = (0..2).map(|g| GroupWeights::from_filters(&qw, g * 4, 4).as_bytes().len() as u64).sum();
        assert_eq!(s.scratchpad_bytes, manual);
    }
}
