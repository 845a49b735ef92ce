//! [`BackendKind::Model`] and [`BackendKind::Cpu`], one path: the golden
//! walk, with modelled statistics.
//!
//! A network run on either name is two independent computations. Its
//! output is the software golden model's —
//! [`QuantizedNetwork::forward_quant_scratch`] on the caller's
//! [`Scratch`] arena, at the driver's kernel tier and worker count — so
//! the backend's arithmetic is the golden walk by construction. Its
//! report (every layer's cycles and activity counters, the DDR bytes) is
//! a stats-only walk's ([`Driver::run_staged`] without an arena: the
//! plan's steps by shape, every pass on the transaction model, which
//! counts its DMA traffic and costs its instructions but moves no bytes
//! and computes no output): zero-skipping depends on weights, never on
//! activations, so every statistic is a pure function of the network's
//! weights, its geometry and the accelerator configuration.
//!
//! The report is therefore paid **once per (network, configuration)**,
//! not once per image: the first run records it in a process-wide memo
//! ([`stats_memo_stats`]), and every later image is one lookup plus the
//! golden walk — no pass is issued and no SoC model is created. With
//! [`functional`](Driver::functional) off the golden walk is skipped too:
//! the run is the report alone, with an empty `output`.
//!
//! An attached fault plan bypasses the memo: the stats-only walk is
//! issued for every image, because its DMA descriptor sequence is where
//! `dma:*` injections fire, and it returns any error before the golden
//! walk starts. Only `Ok`, fault-plan-free reports are recorded.
//!
//! [`BackendKind::Model`]: crate::exec::BackendKind::Model
//! [`BackendKind::Cpu`]: crate::exec::BackendKind::Cpu
//! [`Scratch`]: zskip_nn::scratch::Scratch

use crate::driver::{Driver, DriverError, InferenceReport, LayerReport};
use std::sync::{Arc, OnceLock};
use zskip_nn::layer::{LayerRef, LayerSpec, NetworkSpec};
use zskip_nn::model::QuantizedNetwork;
use zskip_nn::scratch::Scratch;
use zskip_quant::cache::{CacheStats, Fingerprint, WeightCache};
use zskip_tensor::Tensor;

/// The process-wide stats memo, keyed by [`memo_key`]. Like the
/// packed-weight cache it never evicts: it holds one report per distinct
/// (network, configuration) pair, however many images are served.
fn stats_memo() -> &'static WeightCache<InferenceReport> {
    static MEMO: OnceLock<WeightCache<InferenceReport>> = OnceLock::new();
    MEMO.get_or_init(WeightCache::new)
}

/// Statistics of the process-wide stats memo of the model and cpu
/// backends (entries, hits, misses, resident bytes) — surfaced by `zskip
/// analyze` and the serve `stats` op. A warm image is one hit.
pub fn stats_memo_stats() -> CacheStats {
    stats_memo().stats()
}

/// Memo key of one network run: every configuration field that reaches
/// the cycle model or the stripe planner, the two packing flags, the
/// input shape, each conv's weight fingerprint and the spec itself —
/// every layer's geometry and its name, which the report carries. DDR
/// addresses are absent: they move no cycle and no byte.
fn memo_key(driver: &Driver, qnet: &QuantizedNetwork, input: &Tensor<f32>) -> u64 {
    let (c, s) = (&driver.config, input.shape());
    let fields = [
        c.units,
        c.lanes,
        c.instances,
        c.bank_tiles,
        c.fifo_depth,
        c.weight_bytes_per_cycle,
        c.scratchpad_bytes,
        driver.zero_skipping as usize,
        driver.filter_grouping as usize,
        s.c,
        s.h,
        s.w,
    ];
    let fp = fields.into_iter().fold(Fingerprint::new(), |fp, v| fp.u64(v as u64));
    let fp = qnet.conv.iter().fold(fp, |fp, l| fp.u64(l.weights.fingerprint()));
    spec_fingerprint(fp, &qnet.spec).finish()
}

/// Absorbs every field of `spec`: its name and input shape, and each
/// layer's kind, name, geometry, `relu` flag and `from` index. A string
/// goes in after its length, so no two specs share an encoding.
fn spec_fingerprint(fp: Fingerprint, spec: &NetworkSpec) -> Fingerprint {
    let text = |fp: Fingerprint, s: &str| fp.u64(s.len() as u64).bytes(s.as_bytes());
    let nums = |fp: Fingerprint, vs: &[usize]| vs.iter().fold(fp, |fp, &v| fp.u64(v as u64));
    let from = |r: &LayerRef| match r {
        LayerRef::Input => 0,
        LayerRef::Layer(i) => i + 1,
    };
    let input = [spec.input.c, spec.input.h, spec.input.w, spec.layers.len()];
    spec.layers.iter().fold(nums(text(fp, &spec.name), &input), |fp, layer| match layer {
        LayerSpec::Conv { name, in_c, out_c, k, stride, pad, relu } => {
            nums(text(fp.u64(0), name), &[*in_c, *out_c, *k, *stride, *pad, *relu as usize])
        }
        LayerSpec::MaxPool { name, k, stride } => nums(text(fp.u64(1), name), &[*k, *stride]),
        LayerSpec::Fc { name, in_features, out_features, relu } => {
            nums(text(fp.u64(2), name), &[*in_features, *out_features, *relu as usize])
        }
        LayerSpec::Softmax => fp.u64(3),
        LayerSpec::Ref { name, from: r } => nums(text(fp.u64(4), name), &[from(r)]),
        LayerSpec::Add { name, from: r, relu } => nums(text(fp.u64(5), name), &[from(r), *relu as usize]),
        LayerSpec::GlobalAvgPool { name } => text(fp.u64(6), name),
        LayerSpec::BatchNorm { name, relu } => nums(text(fp.u64(7), name), &[*relu as usize]),
    })
}

/// Bytes a memoized report holds: the report and its layer list, and
/// each layer's name, per-instance cycles and counters on the heap (its
/// `output` is empty).
fn report_bytes(r: &InferenceReport) -> usize {
    let heap = |l: &LayerReport| {
        let cycles = l.stats.per_instance_cycles.capacity() * size_of::<u64>();
        l.name.capacity() + cycles + l.stats.counters.heap_bytes()
    };
    let layers = r.layers.capacity() * size_of::<LayerReport>();
    size_of::<InferenceReport>() + layers + r.layers.iter().map(heap).sum::<usize>()
}

/// [`Driver::run_network_scratch`] on the model and cpu backends (see
/// module docs).
pub(crate) fn run_network(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    scratch: &mut Scratch,
) -> Result<InferenceReport, DriverError> {
    let stats_only = || driver.run_staged(qnet, input, None);
    let report = if driver.fault_plan.is_some() {
        Arc::new(stats_only()?)
    } else {
        stats_memo().try_get_or_insert_with(memo_key(driver, qnet, input), stats_only, report_bytes)?
    };
    let output = if driver.functional {
        scratch.set_threads(driver.threads);
        scratch.set_tier(driver.kernel_tier);
        qnet.forward_quant_scratch(input, scratch).to_vec()
    } else {
        Vec::new()
    };
    let InferenceReport { layers, total_cycles, ddr_bytes, .. } = &*report;
    Ok(InferenceReport { layers: layers.clone(), output, total_cycles: *total_cycles, ddr_bytes: *ddr_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use crate::session::{Session, SessionBuilder};
    use zskip_hls::AccelArch;
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
    use zskip_nn::model::{Network, SyntheticModelConfig};
    use zskip_quant::DensityProfile;
    use zskip_tensor::Shape;

    /// The memo's replay is the uncached stats-only walk, field for field.
    /// Per configuration, two different images run through one driver —
    /// the first records the report (or replays another test's record of
    /// the same key), the second replays it — and each run reports what a
    /// fresh staged walk reports, with the golden walk's output. Tiny
    /// banks stripe every layer.
    #[test]
    fn memo_replay_equals_an_uncached_stats_only_walk() {
        let spec = NetworkSpec {
            name: "memo".into(),
            input: Shape::new(3, 12, 12),
            layers: vec![
                conv3x3("c1", 3, 6),
                maxpool2x2("p1"),
                conv3x3("c2", 6, 9),
                LayerSpec::Fc { name: "fc".into(), in_features: 9 * 6 * 6, out_features: 5, relu: false },
            ],
        };
        let density = DensityProfile::uniform(2, 0.5);
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed: 5, density });
        let qnet = net.quantize(&synthetic_inputs(6, 2, spec.input));
        let inputs = synthetic_inputs(7, 2, spec.input);
        type Knob = fn(SessionBuilder) -> SessionBuilder;
        let cases: [(&str, usize, Knob); 5] = [
            ("plain", 1, |b| b),
            ("zero skipping off", 1, |b| b.zero_skipping(false)),
            ("filter grouping", 1, |b| b.filter_grouping(true)),
            ("two instances", 2, |b| b),
            ("three threads", 1, |b| b.threads(3)),
        ];
        for (what, instances, knob) in cases {
            let arch = AccelArch { conv_units: 4, lanes: 4, instances, bank_tiles: 24 };
            let session = knob(Session::builder(AccelConfig::from_arch(&arch, 100.0))).build().expect("valid config");
            let driver = session.driver();
            let uncached = driver.run_staged(&qnet, &inputs[0], None).expect("fits");
            assert!(uncached.layers.iter().any(|l| l.stats.stripes > 1), "{what}: striped");
            let mut scratch = Scratch::new();
            for (i, input) in inputs.iter().enumerate() {
                let hits = stats_memo_stats().hits;
                let run = run_network(driver, &qnet, input, &mut scratch).expect("fits");
                // Other tests share the process-wide memo: a lower bound.
                assert!(i == 0 || stats_memo_stats().hits > hits, "{what}: image {i} reads the memo");
                assert_eq!(run.output, qnet.forward_quant(input), "{what}: image {i} output");
                assert_eq!(run.total_cycles, uncached.total_cycles, "{what}: image {i} cycles");
                assert_eq!(run.ddr_bytes, uncached.ddr_bytes, "{what}: image {i} DDR bytes");
                assert_eq!(format!("{:?}", run.layers), format!("{:?}", uncached.layers), "{what}: image {i} layers");
            }
        }
    }

    /// The spec's part of the memo key tells apart specs that differ in one
    /// layer name, one stride or one `Ref` / `Add` source, and gives equal
    /// specs equal keys.
    #[test]
    fn spec_fingerprint_separates_names_geometry_and_sources() {
        let key = |spec: &NetworkSpec| spec_fingerprint(Fingerprint::new(), spec).finish();
        let base = NetworkSpec {
            name: "keyed".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                conv3x3("c1", 3, 4),
                LayerSpec::Ref { name: "skip".into(), from: LayerRef::Layer(0) },
                conv3x3("c2", 4, 4),
                LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(0), relu: true },
                maxpool2x2("p1"),
            ],
        };
        assert_eq!(key(&base), key(&base.clone()), "equal specs, equal keys");
        type Mutation = fn(&mut Vec<LayerSpec>);
        let mutations: [(&str, Mutation); 4] = [
            ("a layer name", |l| l[4] = maxpool2x2("p2")),
            ("a stride", |l| {
                if let LayerSpec::Conv { stride, .. } = &mut l[2] {
                    *stride = 2;
                }
            }),
            ("a Ref source", |l| l[1] = LayerSpec::Ref { name: "skip".into(), from: LayerRef::Input }),
            ("an Add source", |l| {
                l[3] = LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(1), relu: true };
            }),
        ];
        for (what, mutate) in mutations {
            let mut other = base.clone();
            mutate(&mut other.layers);
            assert_ne!(other, base, "{what}: the mutation changes the spec");
            assert_ne!(key(&other), key(&base), "{what}");
        }
    }

    /// The memo's size counts what a recorded report holds on the heap,
    /// not only the report and its layer list. Long layer names on a
    /// network no other test records make the layers' heap the bulk of
    /// the record.
    #[test]
    fn memo_size_counts_each_layers_heap() {
        let name = |n: &str| format!("{n}-{}", "x".repeat(200));
        let spec = NetworkSpec {
            name: "memo-size".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![conv3x3(&name("c1"), 3, 5), maxpool2x2(&name("p1")), conv3x3(&name("c2"), 5, 4)],
        };
        let density = DensityProfile::uniform(2, 0.5);
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed: 9, density });
        let qnet = net.quantize(&synthetic_inputs(10, 2, spec.input));
        let input = &synthetic_inputs(11, 1, spec.input)[0];
        let arch = AccelArch { conv_units: 4, lanes: 4, instances: 2, bank_tiles: 4096 };
        let session = Session::builder(AccelConfig::from_arch(&arch, 100.0)).build().expect("valid config");
        let before = stats_memo_stats();
        let report = run_network(session.driver(), &qnet, input, &mut Scratch::new()).expect("fits");
        let recorded = stats_memo_stats().bytes - before.bytes;
        let heap: usize = report
            .layers
            .iter()
            .map(|l| l.name.capacity() + l.stats.per_instance_cycles.capacity() * 8 + l.stats.counters.heap_bytes())
            .sum();
        let least = size_of::<InferenceReport>() + report.layers.len() * size_of::<LayerReport>() + heap;
        assert!(recorded >= least, "recorded {recorded} bytes for a report holding {least}");
    }
}
