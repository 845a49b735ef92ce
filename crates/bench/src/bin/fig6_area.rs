//! Regenerates paper Fig. 6: ALM usage by each unit of the accelerator,
//! plus the in-text device-utilization numbers (44% ALM / 25% DSP /
//! 49% RAM for 256-opt).

use zskip_bench::write_artifacts;
use zskip_hls::{Variant, PAPER_POINTS};
use zskip_perf::AreaBreakdown;

fn main() {
    let mut all = Vec::new();
    let mut text = String::new();
    for (label, variant, instances) in PAPER_POINTS {
        let synth = variant.synthesize(instances);
        let breakdown = AreaBreakdown::from_synthesis(label, &synth);
        if (variant, instances) == (Variant::U256Opt, 1) {
            // The paper's Fig. 6 shows the 256-opt design point.
            text.push_str(&breakdown.render());
            text.push('\n');
            text.push_str(&format!(
                "paper reference: 44% ALM / 25% DSP / 49% RAM; operating clock 150 MHz (got {:.0} MHz)\n\n",
                synth.operating_mhz
            ));
        }
        all.push(breakdown);
    }
    text.push_str("All variants:\n");
    for b in &all {
        text.push_str(&format!(
            "  {:<10} {:>8.0} ALMs  ALM {:>4.0}%  DSP {:>4.0}%  M20K {:>4.0}%\n",
            b.variant,
            b.total_alms,
            b.alm_utilization * 100.0,
            b.dsp_utilization * 100.0,
            b.m20k_utilization * 100.0
        ));
    }
    print!("{text}");
    write_artifacts("fig6_area", &text, &all);
}
