//! Multi-instance placement scheduling: stripe-parallel, image-parallel
//! and layer-pipelined execution across N accelerator instances.
//!
//! The paper's fastest variant (`512-opt`) is already two instances
//! working separate stripes of one layer. This module generalizes that to
//! N instances and adds two placements the paper's scale-out remark
//! ("software changes alone would allow us to scale out the design
//! further") enables:
//!
//! * [`Placement::Stripe`] — every instance works separate stripes (or
//!   split OFM groups) of the *same* layer, exactly the existing
//!   [`pipeline`](crate::exec::pipeline) distribution; images run
//!   sequentially. Best single-image latency on shallow networks.
//! * [`Placement::Image`] — a batch is sharded round-robin across
//!   instances, one whole image per instance. Near-linear throughput,
//!   but every image still pays its full weight-staging cost.
//! * [`Placement::Pipeline`] — the network's layers are partitioned into
//!   N contiguous blocks; instance k runs block k of image i while
//!   instance k-1 runs block k-1 of image i+1. Block weights are loaded
//!   once and stay resident, so the per-image weight staging of the
//!   serial schedule is hidden behind upstream compute.
//! * [`Placement::Auto`] — pick one of the above from the instance
//!   count, batch size and network depth (see [`Placement::resolve`]).
//!
//! **One batch path.** [`Session::run_batch`](crate::session::Session::run_batch)
//! runs every image on the batch engine — through the N-instance driver
//! for the stripe placement, through a single-instance view of it (same
//! bank capacity, same stripe plans, same DMA descriptors) for image and
//! pipeline — and a placement is then a pure schedule over the per-image
//! reports (`schedule`). Every placement is therefore bit-identical to
//! an `instances: 1` run of the same configuration: the stripe
//! placement's instance distribution never changes the arithmetic.
//! Placement only decides *when* and *where* work runs in simulated
//! time; `tests/sharding.rs` locks this down differentially across all
//! three backends.
//!
//! The per-N cost model ([`CostModel`]) comes from the HLS model's
//! congestion-derated fmax: N instances are synthesized onto the
//! smallest device of a ladder (the paper's Arria 10 SX660, the GT1150
//! it names for scale-out, then hypothetically doubled GT1150-class
//! parts) and the resulting operating clock converts the schedule's
//! makespan cycles into wall time.

use crate::driver::{Driver, DriverError};
use crate::report::{InferenceReport, LayerReport};
use zskip_hls::{synthesize, AccelArch, Device, Variant};
use zskip_nn::layer::LayerSpec;
use zskip_nn::model::QuantizedNetwork;

/// How work is placed onto the configured accelerator instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Pick a placement from instance count, batch size and network depth.
    Auto,
    /// All instances work separate stripes of the same layer (the
    /// `512-opt` distribution, generalized); images run sequentially.
    Stripe,
    /// One whole image per instance, round-robin over the batch.
    Image,
    /// Contiguous layer blocks per instance, images streamed through.
    Pipeline,
}

impl Placement {
    /// All placements, in documentation order.
    pub const ALL: [Placement; 4] =
        [Placement::Auto, Placement::Stripe, Placement::Image, Placement::Pipeline];

    /// The CLI/serialization name (`auto` | `stripe` | `image` | `pipeline`).
    pub fn name(self) -> &'static str {
        match self {
            Placement::Auto => "auto",
            Placement::Stripe => "stripe",
            Placement::Image => "image",
            Placement::Pipeline => "pipeline",
        }
    }

    /// Resolves `Auto` for a concrete workload: `instances` simulated
    /// instances, `images` batch items, `accel_layers` accelerator-run
    /// layers (conv + pool). Explicit placements resolve to themselves.
    ///
    /// The heuristic: one instance has nothing to place (`Stripe`); a
    /// single image cannot be image-sharded, so deep networks pipeline
    /// and shallow ones stripe; a batch at least as large as the
    /// instance count shards image-parallel (near-linear throughput);
    /// a smaller batch pipelines to keep every instance busy.
    pub fn resolve(self, instances: usize, images: usize, accel_layers: usize) -> Placement {
        match self {
            Placement::Auto => {
                if instances <= 1 {
                    Placement::Stripe
                } else if images <= 1 {
                    if accel_layers >= 2 {
                        Placement::Pipeline
                    } else {
                        Placement::Stripe
                    }
                } else if images >= instances {
                    Placement::Image
                } else {
                    Placement::Pipeline
                }
            }
            explicit => explicit,
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Placement, String> {
        match s {
            "auto" => Ok(Placement::Auto),
            "stripe" => Ok(Placement::Stripe),
            "image" => Ok(Placement::Image),
            "pipeline" => Ok(Placement::Pipeline),
            other => {
                Err(format!("unknown placement '{other}' (use auto | stripe | image | pipeline)"))
            }
        }
    }
}

/// The HLS-derived cost of running N instances: the smallest device of
/// the scale-out ladder that fits them, and the congestion-derated
/// operating clock there. This is what makes cross-N comparisons honest:
/// more instances may mean a bigger (hypothetical) device or a slower
/// clock, never free parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// The architecture synthesized (variant datapath, N instances,
    /// bank capacity dividing the fixed RAM budget).
    pub arch: AccelArch,
    /// Congestion-derated operating clock in MHz.
    pub clock_mhz: f64,
    /// Name of the chosen device.
    pub device: &'static str,
    /// ALM utilization on that device (drives the congestion derate).
    pub alm_utilization: f64,
    /// Whether the design fits the device. `false` only past the end of
    /// the ladder; the clock is then heavily derated.
    pub fits: bool,
}

/// The device ladder for scale-out: the paper's SX660, the GT1150 it
/// names for further scale-out, then hypothetically doubled GT1150-class
/// parts (the paper's extrapolation taken literally).
fn device_ladder() -> [Device; 5] {
    let g = Device::arria10_gt1150();
    [
        Device::arria10_sx660(),
        g,
        Device { name: "Arria 10 GT1150 x2", alms: g.alms * 2, dsps: g.dsps * 2, m20k: g.m20k * 2 },
        Device { name: "Arria 10 GT1150 x4", alms: g.alms * 4, dsps: g.dsps * 4, m20k: g.m20k * 4 },
        Device { name: "Arria 10 GT1150 x8", alms: g.alms * 8, dsps: g.dsps * 8, m20k: g.m20k * 8 },
    ]
}

impl CostModel {
    /// Highest device utilization the model considers routable. The
    /// paper's 512-opt closed timing at ~82% ALM but "routing ... failed
    /// at higher performance targets due to high congestion"; above this
    /// ceiling the design moves to the next ladder device instead of
    /// shipping an unroutable part.
    pub const ROUTABLE_UTILIZATION: f64 = 0.85;

    /// Synthesizes `instances` copies of `variant`'s datapath onto the
    /// smallest ladder device that fits with routable headroom
    /// ([`CostModel::ROUTABLE_UTILIZATION`]), returning the
    /// congestion-derated cost there; past the end of the ladder the
    /// largest device is used regardless. The single- and two-instance
    /// points reproduce the paper's 256-opt (150 MHz) and 512-opt
    /// (congestion-limited ~117 MHz) numbers because the SX660 is first
    /// on the ladder and the ceiling sits above its 512-opt utilization.
    ///
    /// # Panics
    /// When `instances` is zero (the knob's setter rejects it upstream).
    pub fn for_instances(variant: Variant, instances: usize) -> CostModel {
        let arch = variant.arch(instances);
        let constraints = variant.constraints();
        let ladder = device_ladder();
        let mut best = None;
        for device in &ladder {
            let r = synthesize(&arch, &constraints, device);
            let fits = r.utilization.fits();
            best = Some(CostModel {
                arch,
                clock_mhz: r.operating_mhz,
                device: device.name,
                alm_utilization: r.utilization.alm,
                fits,
            });
            if fits && r.utilization.max() <= Self::ROUTABLE_UTILIZATION {
                break;
            }
        }
        // `device_ladder()` is a fixed, non-empty list, so the loop ran.
        best.expect("ladder is non-empty")
    }
}

/// A placement's simulated timeline over one batch's per-image reports;
/// the fields mean what the same fields of
/// [`BatchReport`](crate::batch::BatchReport) do.
pub(crate) struct Timeline {
    pub makespan_cycles: u64,
    pub serial_cycles: u64,
    pub per_instance_busy: Vec<u64>,
    pub layer_bubbles: Vec<(String, u64)>,
    pub staging_exposed_cycles: u64,
    pub staging_hidden_cycles: u64,
}

/// Accelerator-run layers of a spec (conv + pool; FC and softmax run on
/// the host ARM).
pub(crate) fn accel_layer_count(qnet: &QuantizedNetwork) -> usize {
    qnet.spec
        .layers
        .iter()
        .filter(|l| matches!(l, LayerSpec::Conv { .. } | LayerSpec::MaxPool { .. }))
        .count()
}

/// A `Driver` view with the same geometry but a single instance: the
/// reference schedule image- and layer-pipelined placements execute each
/// image through. Bank capacity is untouched, so stripe plans, DMA
/// descriptors, cycle counts and outputs are exactly those of an
/// `instances: 1` run. The view records its own stats walk, so a session
/// that runs both placements keeps both records; a one-instance driver
/// is its own view.
pub(crate) fn single_instance_view(driver: &Driver) -> Driver {
    if driver.config.instances == 1 {
        return driver.clone();
    }
    let mut view = Driver { stats: Default::default(), ..driver.clone() };
    view.config.instances = 1;
    view
}

/// Checks that an *explicit* stripe placement kept every one of `n`
/// instances busy on at least one layer, reading the instance
/// distribution off the images that ran under it. Which instances a
/// layer occupies depends on geometry alone, never on values, so the
/// first image's report decides it for the batch.
///
/// # Errors
/// [`DriverError::InvalidConfig`] (stable code `config.invalid`) naming
/// the widest layer and how many instances it occupied.
pub(crate) fn check_stripe_coverage(n: usize, items: &[InferenceReport]) -> Result<(), DriverError> {
    let occupied = |l: &LayerReport| l.stats.per_instance_cycles.iter().filter(|&&c| c > 0).count();
    let widest = items
        .first()
        .into_iter()
        .flat_map(|r| r.layers.iter())
        .map(|l| (l, occupied(l)))
        .reduce(|best, next| if next.1 > best.1 { next } else { best });
    match widest {
        // Nothing ran on the accelerator: nothing to cover.
        None | Some((_, 0)) => Ok(()),
        Some((_, c)) if c >= n => Ok(()),
        Some((layer, c)) => Err(DriverError::InvalidConfig(format!(
            "stripe placement cannot cover {n} instances: the widest layer ('{}') \
             occupies only {c} (use --placement image | pipeline, or fewer instances)",
            layer.name
        ))),
    }
}

/// Schedules a batch's per-image reports onto `n` instances under a
/// resolved placement. `items` ran on the `n`-instance driver for
/// [`Placement::Stripe`] and on [`single_instance_view`] otherwise.
pub(crate) fn schedule(placement: Placement, n: usize, items: &[InferenceReport]) -> Timeline {
    match placement {
        Placement::Stripe => stripe_timeline(items, n),
        Placement::Image => image_timeline(items, n),
        Placement::Pipeline => pipeline_timeline(items, n),
        // `Placement::resolve` maps `Auto` to one of the three above.
        Placement::Auto => unreachable!("resolve never returns Auto"),
    }
}

/// Stripe placement: the in-layer instance distribution the images ran
/// with; images run back to back. The serial cost is reconstructed per
/// layer: compute is the *sum* over instances (one instance would run
/// every batch itself) under the same `max(compute, io) + weight`
/// overlap.
fn stripe_timeline(items: &[InferenceReport], n: usize) -> Timeline {
    let mut busy = vec![0u64; n];
    let mut serial = 0u64;
    let mut exposed = 0u64;
    for l in items.iter().flat_map(|r| r.layers.iter()) {
        for (k, c) in l.stats.per_instance_cycles.iter().enumerate() {
            busy[k] += c;
        }
        let compute: u64 = l.stats.per_instance_cycles.iter().sum();
        serial += compute.max(l.stats.io_dma_cycles) + l.stats.weight_dma_cycles;
        exposed += l.stats.weight_dma_cycles;
    }
    Timeline {
        makespan_cycles: items.iter().map(|r| r.total_cycles).sum(),
        serial_cycles: serial,
        per_instance_busy: busy,
        layer_bubbles: Vec::new(),
        staging_exposed_cycles: exposed,
        staging_hidden_cycles: 0,
    }
}

/// Image placement: image `i` runs whole on instance `i mod n`; the
/// batch's makespan is the busiest instance's lane.
fn image_timeline(items: &[InferenceReport], n: usize) -> Timeline {
    let mut lane = vec![0u64; n];
    for (i, r) in items.iter().enumerate() {
        lane[i % n] += r.total_cycles;
    }
    Timeline {
        makespan_cycles: lane.iter().copied().max().unwrap_or(0),
        serial_cycles: items.iter().map(|r| r.total_cycles).sum(),
        per_instance_busy: lane,
        layer_bubbles: Vec::new(),
        staging_exposed_cycles: items.iter().flat_map(|r| r.layers.iter()).map(|l| l.stats.weight_dma_cycles).sum(),
        staging_hidden_cycles: 0,
    }
}

/// Splits `cycles.len()` layers into `blocks` contiguous blocks balanced
/// by cycle weight, returning each layer's block id. Every block gets at
/// least one layer.
fn partition_blocks(cycles: &[u64], blocks: usize) -> Vec<usize> {
    let total: u64 = cycles.iter().sum::<u64>().max(1);
    let mut assign = vec![0usize; cycles.len()];
    let mut b = 0usize;
    let mut cum = 0u64;
    for (i, c) in cycles.iter().enumerate() {
        // Latest index at which block b+1 can still open while leaving
        // one layer for every later block.
        let must_open = i >= cycles.len() - (blocks - 1 - b);
        let past_boundary = cum * blocks as u64 >= (b as u64 + 1) * total;
        if b + 1 < blocks && i > 0 && (past_boundary || must_open) {
            b += 1;
        }
        assign[i] = b;
        cum += c;
    }
    assign
}

/// The pipeline's event recurrence over one contiguous partition.
struct Stream {
    makespan: u64,
    /// Compute cycles per block.
    busy: Vec<u64>,
    /// Cycles each block sat ready while waiting on its upstream block.
    bubbles: Vec<u64>,
    /// Resident-weight preload cycles upstream compute did not cover.
    exposed: u64,
}

/// Streams images through the blocks: block `k` preloads its resident
/// weights (`w[k]`) once, then runs each image's block compute (one
/// `x[k]` per image) as soon as it is free and block `k - 1` is done
/// with that image.
fn stream<'a>(w: &[u64], images: impl IntoIterator<Item = &'a [u64]>) -> Stream {
    // avail[k] is when block k is next free: after its preload, then
    // after each image's block.
    let mut avail = w.to_vec();
    let mut busy = vec![0u64; w.len()];
    let mut bubbles = vec![0u64; w.len()];
    let mut exposed = 0u64;
    let mut makespan = 0u64;
    for (i, x) in images.into_iter().enumerate() {
        let mut upstream = 0u64;
        for k in 0..w.len() {
            if i == 0 {
                // The preload is exposed only where upstream compute
                // does not already cover the wait.
                exposed += avail[k].saturating_sub(upstream).min(w[k]);
            }
            let start = upstream.max(avail[k]);
            bubbles[k] += start - avail[k];
            busy[k] += x[k];
            avail[k] = start + x[k];
            upstream = avail[k];
        }
        makespan = upstream;
    }
    Stream { makespan, busy, bubbles, exposed }
}

/// Picks the contiguous partition with the smallest simulated makespan,
/// searching every boundary placement when the combination count is
/// small (it is for real networks: VGG-16 at 8 blocks is ~80k
/// candidates) and falling back to the balanced heuristic otherwise.
/// The search is what lets a single image win: it leaves weight-heavy
/// layers downstream so their resident preload hides under upstream
/// compute.
fn choose_partition(layer_w: &[u64], layer_x: &[u64], blocks: usize, images: usize) -> Vec<usize> {
    let n = layer_x.len();
    let fallback = partition_blocks(layer_x, blocks);
    if blocks < 2 || n < blocks {
        return fallback;
    }
    // C(n-1, blocks-1) candidates; cap the exact search.
    let mut count: u128 = 1;
    for i in 0..(blocks - 1) {
        count = count * (n - 1 - i) as u128 / (i + 1) as u128;
        if count > 200_000 {
            return fallback;
        }
    }
    let makespan = |assign: &[usize]| {
        let w = block_sums(layer_w, assign, blocks);
        let x = block_sums(layer_x, assign, blocks);
        stream(&w, std::iter::repeat_n(&x[..], images)).makespan
    };
    let mut best_span = makespan(&fallback);
    let mut best = fallback;
    // Enumerate boundary sets recursively: bounds[b] is the first layer
    // of block b+1.
    let mut bounds = vec![0usize; blocks - 1];
    let mut stack = vec![(0usize, 1usize)]; // (boundary index, candidate position)
    while let Some((bi, pos)) = stack.pop() {
        if pos > n - (blocks - 1 - bi) {
            continue;
        }
        stack.push((bi, pos + 1));
        bounds[bi] = pos;
        if bi + 1 < blocks - 1 {
            stack.push((bi + 1, pos + 1));
            continue;
        }
        let mut assign = vec![0usize; n];
        let mut b = 0usize;
        for (i, a) in assign.iter_mut().enumerate() {
            if b < blocks - 1 && i == bounds[b] {
                b += 1;
            }
            *a = b;
        }
        let span = makespan(&assign);
        if span < best_span {
            best_span = span;
            best = assign;
        }
    }
    best
}

/// Per-block sums of a per-layer quantity under a block assignment.
fn block_sums(per_layer: &[u64], assign: &[usize], blocks: usize) -> Vec<u64> {
    let mut sums = vec![0u64; blocks];
    for (&v, &b) in per_layer.iter().zip(assign) {
        sums[b] += v;
    }
    sums
}

/// Layer-pipelined placement: contiguous layer blocks per instance,
/// images streamed through; block weights loaded once and resident, so
/// a block's per-image compute excludes the weight staging the serial
/// schedule pays.
fn pipeline_timeline(items: &[InferenceReport], n: usize) -> Timeline {
    let Some(first) = items.first() else {
        return Timeline {
            makespan_cycles: 0,
            serial_cycles: 0,
            per_instance_busy: vec![0; n],
            layer_bubbles: Vec::new(),
            staging_exposed_cycles: 0,
            staging_hidden_cycles: 0,
        };
    };
    let compute = |r: &InferenceReport| {
        r.layers.iter().map(|l| l.stats.total_cycles - l.stats.weight_dma_cycles).collect::<Vec<_>>()
    };

    // Partition layers into contiguous blocks by minimizing the
    // simulated makespan over boundary placements (cycle counts are
    // value-independent, so the first image speaks for all).
    let layer_w: Vec<u64> = first.layers.iter().map(|l| l.stats.weight_dma_cycles).collect();
    let layer_x = compute(first);
    let active = layer_x.iter().filter(|&&c| c > 0).count();
    let blocks = n.min(active).max(1);
    let assign = choose_partition(&layer_w, &layer_x, blocks, items.len());

    let mut first_layer = vec![None::<String>; blocks];
    for (l, &b) in first.layers.iter().zip(&assign) {
        if first_layer[b].is_none() && l.stats.total_cycles > 0 {
            first_layer[b] = Some(l.name.clone());
        }
    }
    let w = block_sums(&layer_w, &assign, blocks);
    let x: Vec<Vec<u64>> = items.iter().map(|r| block_sums(&compute(r), &assign, blocks)).collect();
    let s = stream(&w, x.iter().map(Vec::as_slice));
    let staged_serial = w.iter().sum::<u64>() * items.len() as u64;
    Timeline {
        makespan_cycles: s.makespan,
        serial_cycles: items.iter().map(|r| r.total_cycles).sum(),
        per_instance_busy: s.busy,
        layer_bubbles: first_layer
            .into_iter()
            .zip(s.bubbles)
            .map(|(name, b)| (name.unwrap_or_else(|| "host".into()), b))
            .collect(),
        staging_exposed_cycles: s.exposed,
        staging_hidden_cycles: staged_serial.saturating_sub(s.exposed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_names_round_trip() {
        for p in Placement::ALL {
            assert_eq!(p.name().parse::<Placement>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
    }

    #[test]
    fn unknown_placement_name_is_an_error() {
        let err = "diagonal".parse::<Placement>().unwrap_err();
        assert!(err.contains("unknown placement 'diagonal'"), "{err}");
        assert!(err.contains("auto | stripe | image | pipeline"), "{err}");
    }

    #[test]
    fn auto_resolution_heuristic() {
        use Placement::*;
        assert_eq!(Auto.resolve(1, 8, 10), Stripe);
        assert_eq!(Auto.resolve(4, 1, 10), Pipeline);
        assert_eq!(Auto.resolve(4, 1, 1), Stripe);
        assert_eq!(Auto.resolve(4, 8, 10), Image);
        assert_eq!(Auto.resolve(4, 2, 10), Pipeline);
        // Explicit placements are never overridden.
        assert_eq!(Stripe.resolve(4, 8, 10), Stripe);
        assert_eq!(Image.resolve(1, 1, 1), Image);
        assert_eq!(Pipeline.resolve(1, 1, 1), Pipeline);
    }

    #[test]
    fn partition_is_contiguous_balanced_and_exhaustive() {
        let cycles = [10, 10, 10, 10, 40, 10, 10, 10];
        let assign = partition_blocks(&cycles, 4);
        assert_eq!(assign.len(), cycles.len());
        // Monotone block ids covering 0..blocks.
        let mut prev = 0;
        for &b in &assign {
            assert!(b >= prev && b <= prev + 1, "contiguous: {assign:?}");
            prev = b;
        }
        assert_eq!(prev, 3, "all blocks used: {assign:?}");
        // The heavy layer does not get lumped with everything after it.
        let heavy_block = assign[4];
        let heavy_total: u64 =
            cycles.iter().zip(&assign).filter(|(_, &b)| b == heavy_block).map(|(c, _)| *c).sum();
        assert!(heavy_total <= 60, "balanced: {assign:?}");
    }

    #[test]
    fn partition_degenerate_cases() {
        assert_eq!(partition_blocks(&[5], 1), vec![0]);
        assert_eq!(partition_blocks(&[5, 5], 2), vec![0, 1]);
        // More blocks requested than layers is prevented by the caller
        // (blocks = n.min(active)); equal counts give one layer each.
        assert_eq!(partition_blocks(&[1, 100, 1], 3), vec![0, 1, 2]);
        // All-zero cycle weights still partition without panicking.
        assert_eq!(partition_blocks(&[0, 0, 0], 2).last(), Some(&1));
    }

    #[test]
    fn cost_model_reproduces_paper_points_and_scales_out() {
        let one = CostModel::for_instances(Variant::U256Opt, 1);
        assert_eq!(one.device, "Arria 10 SX660");
        assert!((one.clock_mhz - 150.0).abs() < 1.0, "256-opt {:.0} MHz", one.clock_mhz);

        let two = CostModel::for_instances(Variant::U256Opt, 2);
        assert_eq!(two.device, "Arria 10 SX660");
        assert!((105.0..=135.0).contains(&two.clock_mhz), "512-opt {:.0} MHz", two.clock_mhz);

        // Four instances fit the GT1150 only at ~93% ALM — past the
        // routability ceiling — so they land on the first hypothetical
        // scale-out device, back at the requested clock.
        let four = CostModel::for_instances(Variant::U256Opt, 4);
        assert!(four.fits, "4x must fit the ladder: {four:?}");
        assert_eq!(four.device, "Arria 10 GT1150 x2");
        assert!(four.clock_mhz >= 140.0, "4x clock {:.0} MHz", four.clock_mhz);
        assert!(four.alm_utilization <= CostModel::ROUTABLE_UTILIZATION);
        assert_eq!(four.arch.bank_tiles, 32_768 / 4);

        let eight = CostModel::for_instances(Variant::U256Opt, 8);
        assert!(eight.fits, "8x must fit the ladder: {eight:?}");
    }
}
