//! Synthesis calibration dump: per-module area/timing of all four paper
//! design points. Used when tuning the resource-model constants against the
//! paper's in-text utilization numbers (44% ALM / 49% RAM for 256-opt).
//!
//! ```sh
//! cargo run -p zskip-hls --example calib
//! ```

use zskip_hls::*;
fn main() {
    for (label, v, instances) in PAPER_POINTS {
        let r = v.synthesize(instances);
        println!("== {label} ==");
        println!("  util: {}  achieved {:.1} MHz  operating {:.1} MHz", r.utilization, r.achieved_fmax_mhz, r.operating_mhz);
        println!("  total: alms {:.0} dsps {:.0} m20k {:.0}", r.total.alms, r.total.dsps, r.total.m20k);
        for m in &r.modules {
            println!("    {:24} x{:3} alms {:8.0} dsps {:5.0} depth {:?} crit {:?}",
                m.kind.label(), m.count, m.resources.alms, m.resources.dsps,
                m.schedule.as_ref().map(|s| s.depth()),
                m.schedule.as_ref().map(|s| (s.critical_path_ns*100.0).round()/100.0));
        }
    }
}
