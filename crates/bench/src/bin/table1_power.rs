//! Regenerates paper Table I: power consumption — peak power (FPGA and
//! board, dynamic parenthesized) and GOPS/W for the optimized variants.

use zskip_bench::{build_vgg16, write_artifacts, ModelKind};
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_perf::power::{gops_per_watt, PowerModel};

struct Row {
    variant: String,
    level: String,
    peak_power_mw: f64,
    dynamic_mw: f64,
    avg_power_mw: f64,
    gops_per_w_avg: f64,
    gops_per_w_peak: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("variant", self.variant.to_json()),
            ("level", self.level.to_json()),
            ("peak_power_mw", self.peak_power_mw.to_json()),
            ("dynamic_mw", self.dynamic_mw.to_json()),
            ("avg_power_mw", self.avg_power_mw.to_json()),
            ("gops_per_w_avg", self.gops_per_w_avg.to_json()),
            ("gops_per_w_peak", self.gops_per_w_peak.to_json()),
        ])
    }
}

fn main() {
    let model = PowerModel::default();
    let qnet = build_vgg16(ModelKind::Pruned);
    let mut rows = Vec::new();
    for variant in [Variant::U256Opt, Variant::U512Opt] {
        let synth = variant.synthesize();
        let config = zskip_core::AccelConfig::for_variant(variant);
        let session = zskip_core::Session::builder(config).functional(false).build().unwrap();
        let input = zskip_tensor::Tensor::<f32>::zeros(3, 224, 224);
        let report = session.infer(&qnet, &input).expect("VGG-16 fits");
        let sweep = zskip_bench::sweep_point_from_report(variant, ModelKind::Pruned, &config, &report);
        // Peak power: worst-case layer keeps every MAC slot switching.
        // Average power: the run's measured MAC-array activity.
        let p = model.estimate(synth.total.alms, variant.macs_per_cycle(), synth.operating_mhz, 1.0);
        let activity = report.mean_mac_activity(&config);
        let avg = model.estimate(synth.total.alms, variant.macs_per_cycle(), synth.operating_mhz, activity);
        for (level, mw, dynamic, avg_mw) in [
            ("FPGA", p.fpga_mw, p.dynamic_mw, avg.fpga_mw),
            ("Board", p.board_mw, p.dynamic_mw, avg.board_mw),
        ] {
            rows.push(Row {
                variant: variant.label().to_string(),
                level: level.to_string(),
                peak_power_mw: mw,
                dynamic_mw: dynamic,
                avg_power_mw: avg_mw,
                gops_per_w_avg: gops_per_watt(sweep.mean_gops(), mw),
                gops_per_w_peak: gops_per_watt(sweep.peak_gops(), mw),
            });
        }
    }

    let mut text = String::new();
    text.push_str("Table I — Power consumption (peak, worst-case VGG-16 layer)\n\n");
    text.push_str(&format!(
        "{:<18} {:>16} {:>9} {:>10} {:>14}\n",
        "Accelerator", "Peak Power (mW)", "Avg (mW)", "GOPS/W", "GOPS/W (peak)"
    ));
    for r in &rows {
        let power = if r.level == "FPGA" {
            format!("{:.0} ({:.0})", r.peak_power_mw, r.dynamic_mw)
        } else {
            format!("{:.0}", r.peak_power_mw)
        };
        text.push_str(&format!(
            "{:<18} {:>16} {:>9.0} {:>10.1} {:>14.1}\n",
            format!("{} ({})", r.variant, r.level),
            power,
            r.avg_power_mw,
            r.gops_per_w_avg,
            r.gops_per_w_peak
        ));
    }
    text.push_str("\n*dynamic power parenthesized (FPGA rows)\n");
    text.push_str("paper reference: 256-opt 2300 (500) / 9500 mW; 512-opt 3300 (800) / 10800 mW;\n");
    text.push_str("GOPS/W 13.4/37.4 and 13.9/41.8 (FPGA), 3.5/9.05 and 5.6/12.7 (board).\n");
    print!("{text}");
    write_artifacts("table1_power", &text, &rows);
}
