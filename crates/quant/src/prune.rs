//! Magnitude pruning to per-layer density targets (paper §IV-B).
//!
//! The paper's pruned VGG-16 model was produced "using Caffe, in a manner
//! similar to \[Han et al., Deep Compression\]". ImageNet and the trained
//! model are not available here, so we reproduce the *sparsity structure*:
//! synthetic weights are magnitude-pruned to the per-layer density profile
//! published for VGG-16 by Deep Compression. Throughput and zero-skipping
//! behaviour depend only on which weights are zero, not on their trained
//! values, so this preserves the evaluation.

/// Prunes `weights` in place so that approximately `density` of them remain
/// non-zero, zeroing the smallest-magnitude entries first. Returns the
/// magnitude threshold used.
///
/// `density` is clamped to `[0, 1]`. Ties at the threshold are kept, so the
/// achieved density can slightly exceed the target when values repeat.
pub fn prune_to_density(weights: &mut [f32], density: f64) -> f32 {
    prune_to_density_in_runs(weights, density, weights.len())
}

/// [`prune_to_density`] with each pass over the weights cut into runs of
/// `run_len`, every run after the first on a scoped thread of its own.
/// The threshold is the rank-th smallest magnitude of the whole layer
/// however it is cut, so the result is [`prune_to_density`]'s bit for bit.
pub fn prune_to_density_in_runs(weights: &mut [f32], density: f64, run_len: usize) -> f32 {
    let density = density.clamp(0.0, 1.0);
    if weights.is_empty() {
        return 0.0;
    }
    let keep = ((weights.len() as f64) * density).round() as usize;
    if keep >= weights.len() {
        return 0.0;
    }
    if keep == 0 {
        weights.iter_mut().for_each(|w| *w = 0.0);
        return f32::INFINITY;
    }
    let run_len = run_len.max(1);
    // Threshold = magnitude of the keep-th largest element.
    let threshold = nth_magnitude(weights, weights.len() - keep, run_len);
    // An unconditional store: which weights fall below is a coin flip per
    // weight, so a branch here mispredicts its way through the layer.
    in_runs(weights.chunks_mut(run_len), |run| {
        for w in run {
            *w = if w.abs() < threshold { 0.0 } else { *w };
        }
    });
    threshold
}

/// Leading magnitude bits (8 exponent + 4 mantissa) that pick a bucket.
const BUCKET_BITS: u32 = 12;

/// The magnitude of a non-NaN float, as bits that order like it.
fn magnitude(w: &f32) -> u32 {
    w.to_bits() & 0x7fff_ffff
}

fn bucket(m: u32) -> usize {
    (m >> (31 - BUCKET_BITS)) as usize
}

/// The `rank`-th smallest magnitude of `weights` (0-based, ties counted),
/// each pass cut into runs of `run_len`.
///
/// Magnitudes of non-NaN floats order exactly like their bit patterns, so
/// instead of partially sorting a full-size copy this counts them by
/// their leading bits, finds the bucket the rank falls in, and selects
/// inside that bucket alone: two streaming passes and a buffer a few
/// percent of the layer's size. The rank-th smallest of a multiset does
/// not depend on the order its members are gathered in, so neither the
/// counts nor the selection depend on the cut.
fn nth_magnitude(weights: &[f32], rank: usize, run_len: usize) -> f32 {
    let histograms = in_runs(weights.chunks(run_len), |run| {
        let mut counts = [0usize; 1 << BUCKET_BITS];
        let mut largest = 0;
        for m in run.iter().map(magnitude) {
            counts[bucket(m)] += 1;
            largest = largest.max(m);
        }
        (counts, largest)
    });
    let largest = histograms.iter().map(|&(_, l)| l).max().unwrap_or(0);
    assert!(largest <= f32::INFINITY.to_bits(), "weights must not be NaN");
    let mut below = 0;
    let mut target = 0;
    for b in 0..1 << BUCKET_BITS {
        let count: usize = histograms.iter().map(|(c, _)| c[b]).sum();
        if below + count > rank {
            target = b;
            break;
        }
        below += count;
    }
    // The bucket's members, gathered run by run into one buffer allocated
    // here: memory a short-lived thread frees stays resident in its
    // allocator arena.
    let mut inside = vec![0u32; histograms.iter().map(|(c, _)| c[target]).sum()];
    let mut slots = inside.as_mut_slice();
    let pieces = histograms.iter().zip(weights.chunks(run_len)).map(|((counts, _), run)| {
        let (slot, rest) = std::mem::take(&mut slots).split_at_mut(counts[target]);
        slots = rest;
        (slot, run)
    });
    in_runs(pieces, |(slot, run)| {
        for (to, m) in slot.iter_mut().zip(run.iter().map(magnitude).filter(|&m| bucket(m) == target)) {
            *to = m;
        }
    });
    let (_, &mut nth, _) = inside.select_nth_unstable(rank - below);
    f32::from_bits(nth)
}

/// Calls `f` on every piece — the first on the calling thread, each other
/// on a scoped thread of its own — and returns the results in piece order.
fn in_runs<P: Send, R: Send>(pieces: impl IntoIterator<Item = P>, f: impl Fn(P) -> R + Sync) -> Vec<R> {
    let mut pieces = pieces.into_iter();
    let Some(first) = pieces.next() else { return Vec::new() };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = pieces.map(|p| s.spawn(move || f(p))).collect();
        let mut results = vec![f(first)];
        results.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))));
        results
    })
}

/// Fraction of zero entries in a slice.
pub fn sparsity(weights: &[f32]) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    weights.iter().filter(|&&w| w == 0.0).count() as f64 / weights.len() as f64
}

/// Per-convolution-layer density profile (fraction of weights kept).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityProfile {
    densities: Vec<f64>,
    name: &'static str,
}

impl DensityProfile {
    /// A dense (unpruned) profile for `layers` conv layers. This models the
    /// paper's "reduced precision" (variant #1) network, in which weights
    /// are non-zero except for those that quantize to zero.
    pub fn dense(layers: usize) -> DensityProfile {
        DensityProfile { densities: vec![1.0; layers], name: "dense" }
    }

    /// A uniform profile keeping `density` of the weights in every layer.
    pub fn uniform(layers: usize, density: f64) -> DensityProfile {
        DensityProfile { densities: vec![density.clamp(0.0, 1.0); layers], name: "uniform" }
    }

    /// The per-layer density profile of the Deep Compression pruned VGG-16
    /// (Han et al. 2015, Table 4), which the paper's pruned model follows
    /// ("in a manner similar to \[9\]"). Thirteen conv layers.
    pub fn deep_compression_vgg16() -> DensityProfile {
        DensityProfile {
            densities: vec![
                0.58, // conv1_1
                0.22, // conv1_2
                0.34, // conv2_1
                0.36, // conv2_2
                0.53, // conv3_1
                0.24, // conv3_2
                0.42, // conv3_3
                0.32, // conv4_1
                0.27, // conv4_2
                0.34, // conv4_3
                0.35, // conv5_1
                0.29, // conv5_2
                0.36, // conv5_3
            ],
            name: "deep-compression-vgg16",
        }
    }

    /// Density for conv layer `i`; defaults to 1.0 past the profile's end.
    pub fn density(&self, layer: usize) -> f64 {
        self.densities.get(layer).copied().unwrap_or(1.0)
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.densities.len()
    }

    /// Whether the profile covers no layers.
    pub fn is_empty(&self) -> bool {
        self.densities.is_empty()
    }

    /// Profile name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Mean density across layers (1.0 for an empty profile).
    pub fn mean_density(&self) -> f64 {
        if self.densities.is_empty() {
            1.0
        } else {
            self.densities.iter().sum::<f64>() / self.densities.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 }).collect()
    }

    #[test]
    fn prunes_smallest_magnitudes_first() {
        let mut w = ramp(10);
        prune_to_density(&mut w, 0.3);
        // Keeps the 3 largest magnitudes: 8, -9 (wait: ramp alternates), check by magnitude.
        let kept: Vec<f32> = w.iter().copied().filter(|&v| v != 0.0).collect();
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|v| v.abs() >= 8.0));
    }

    #[test]
    fn density_one_keeps_everything() {
        let mut w = ramp(16);
        let orig = w.clone();
        assert_eq!(prune_to_density(&mut w, 1.0), 0.0);
        assert_eq!(w, orig);
    }

    #[test]
    fn density_zero_zeroes_everything() {
        let mut w = ramp(16);
        prune_to_density(&mut w, 0.0);
        assert!(w.iter().all(|&v| v == 0.0));
        assert_eq!(sparsity(&w), 1.0);
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut w: Vec<f32> = vec![];
        assert_eq!(prune_to_density(&mut w, 0.5), 0.0);
        assert_eq!(sparsity(&w), 0.0);
    }

    #[test]
    fn deep_compression_profile_matches_published_mean() {
        let p = DensityProfile::deep_compression_vgg16();
        assert_eq!(p.len(), 13);
        // Deep Compression keeps roughly a third of VGG conv weights.
        let mean = p.mean_density();
        assert!((0.3..0.4).contains(&mean), "mean {mean}");
        assert_eq!(p.name(), "deep-compression-vgg16");
        // Past-the-end layers are dense.
        assert_eq!(p.density(99), 1.0);
    }

    #[test]
    fn uniform_profile_clamps() {
        let p = DensityProfile::uniform(3, 1.5);
        assert_eq!(p.density(0), 1.0);
        let p = DensityProfile::uniform(3, -0.5);
        assert_eq!(p.density(2), 0.0);
    }

    /// The threshold by the definition: sort every magnitude, index.
    fn nth_magnitude_by_sorting(weights: &[f32], rank: usize) -> f32 {
        let mut mags: Vec<f32> = weights.iter().map(|w| w.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        mags[rank]
    }

    #[test]
    fn nth_magnitude_handles_zeros_subnormals_infinities_and_ties() {
        let w = [0.0f32, -0.0, f32::MIN_POSITIVE / 4.0, -f32::MIN_POSITIVE, 1.5, -1.5, 1.5, f32::INFINITY, -3.0e38, 2.0e-30];
        for rank in 0..w.len() {
            let got = nth_magnitude(&w, rank, w.len());
            assert_eq!(got.to_bits(), nth_magnitude_by_sorting(&w, rank).to_bits(), "rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "weights must not be NaN")]
    fn nan_weights_are_rejected() {
        prune_to_density(&mut [1.0, f32::NAN, 2.0], 0.5);
    }

    proptest! {
        /// The bucketed selection returns what sorting every magnitude
        /// returns, on values spread over many buckets and crowded into
        /// one (so the rank falls inside a bucket with ties).
        #[test]
        fn nth_magnitude_matches_sorting(
            n in 1usize..400,
            rank_seed in 0usize..10_000,
            spread in 0u32..3,
            seed in 0u64..1000,
            runs in 1usize..5,
        ) {
            let w: Vec<f32> = (0..n as u64)
                .map(|i| {
                    let h = (i + seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                    let unit = h as f32 / (1u64 << 24) as f32 - 0.5;
                    match spread {
                        0 => unit * 1e-3,                         // a few buckets
                        1 => (unit * 40.0).exp2() * unit.signum(), // 80 octaves
                        _ => (h % 7) as f32 * 0.25 - 0.75,         // heavy ties
                    }
                })
                .collect();
            let rank = rank_seed % n;
            let want = nth_magnitude_by_sorting(&w, rank).to_bits();
            prop_assert_eq!(nth_magnitude(&w, rank, n.div_ceil(runs)).to_bits(), want, "{} runs", runs);
        }

        /// Cut into runs, pruning zeroes exactly the weights the one-run
        /// prune zeroes, with the same threshold.
        #[test]
        fn pruning_in_runs_is_pruning_in_one(
            n in 1usize..300,
            density in prop_oneof![Just(0.0f64), 0.0f64..1.0, Just(1.0f64)],
            seed in 0u64..1000,
            run_len in 1usize..80,
        ) {
            let w: Vec<f32> = (0..n as u64)
                .map(|i| ((i + seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
                .collect();
            let (mut one, mut cut) = (w.clone(), w);
            let t_one = prune_to_density(&mut one, density);
            let t_cut = prune_to_density_in_runs(&mut cut, density, run_len);
            prop_assert_eq!(t_one.to_bits(), t_cut.to_bits());
            prop_assert_eq!(one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), cut.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }

        #[test]
        fn achieved_density_close_to_target(
            n in 1usize..500,
            density in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            // Distinct magnitudes (no ties) derived from a permutation.
            let mut w: Vec<f32> = (0..n)
                .map(|i| ((i as u64 * 2654435761 + seed) % 100000) as f32 / 100.0 + 0.001 + i as f32 * 1e-7)
                .collect();
            prune_to_density(&mut w, density);
            let achieved = 1.0 - sparsity(&w);
            let expect = ((n as f64) * density).round() / n as f64;
            prop_assert!((achieved - expect).abs() <= 1.0 / n as f64 + 1e-9,
                "n={} target={} achieved={}", n, density, achieved);
        }

        #[test]
        fn pruning_never_changes_surviving_values(n in 1usize..200, density in 0.0f64..1.0) {
            let orig = ramp(n);
            let mut w = orig.clone();
            prune_to_density(&mut w, density);
            for (a, b) in w.iter().zip(&orig) {
                prop_assert!(*a == 0.0 || a == b);
            }
        }
    }
}
