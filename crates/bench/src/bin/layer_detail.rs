//! Per-layer detail behind Figs. 7-8: cycles, effective GOPS, efficiency
//! and striping factor for every VGG-16 conv layer on the paper's
//! optimized design points (the figure binaries print the aggregates;
//! this prints the layer-resolved data they summarize).

use zskip_bench::{build_vgg16, sweep_point_from_report, ModelKind};
use zskip_core::{AccelConfig, Session};
use zskip_hls::{Variant, PAPER_POINTS};
use zskip_perf::RooflineMachine;
use zskip_tensor::Tensor;

fn main() {
    for kind in [ModelKind::ReducedPrecision, ModelKind::Pruned] {
        let qnet = build_vgg16(kind);
        for (label, variant, instances) in PAPER_POINTS {
            if variant != Variant::U256Opt {
                continue;
            }
            let config = AccelConfig::for_variant_instances(variant, instances);
            let report = Session::builder(config).functional(false).build().unwrap()
                .infer(&qnet, &Tensor::<f32>::zeros(3, 224, 224))
                .expect("VGG-16 fits");
            let p = sweep_point_from_report(label, kind, &config, &report);
            let machine = RooflineMachine::new(config.macs_per_cycle(), config.clock_mhz, 32);
            println!(
                "{}{}: mean {:.1} GOPS, peak {:.1} GOPS, eff mean {:.2} best {:.2} worst {:.2}, roofline knee {:.0} ops/B",
                p.variant,
                p.model,
                p.mean_gops(),
                p.peak_gops(),
                p.mean_efficiency(),
                p.best_efficiency(),
                p.worst_efficiency(),
                machine.knee_intensity(),
            );
            for (l, raw) in p.layers.iter().zip(report.conv_layers()) {
                // DDR traffic attributable to the layer: IFM + OFM DMA plus
                // weight preloads, at 32 B per System I cycle.
                let ddr_bytes = (raw.stats.io_dma_cycles + raw.stats.weight_dma_cycles) * 32;
                let r = machine.analyze(&l.name, 2 * l.dense_macs, ddr_bytes, l.effective_gops);
                println!(
                    "    {:8} cycles {:>10}  gops {:>6.1}  eff {:>5.2}  stripe {:.3}  {:>6.0} ops/B {:?}-bound",
                    l.name, l.cycles, l.effective_gops, l.efficiency, l.striping_factor, r.intensity, r.bound
                );
            }
        }
    }
}
