//! Architecture exploration via constraint changes alone — the paper's
//! central HLS methodology claim ("a wide range of architectures with
//! distinct performance/area trade-offs can be produced by software and
//! HLS constraint changes alone", §V).
//!
//! Sweeps the clock-period constraint and instance count through the HLS
//! model and prints fmax, area, utilization and peak GOPS for every
//! synthesizable point, including the larger GT1150 device the paper
//! mentions for further scale-out.
//!
//! ```sh
//! cargo run --release --example variant_explorer
//! ```

use zskip::hls::{synthesize, Device, HlsConstraints, Variant};

fn main() {
    println!("== constraint sweep on Arria 10 SX660 (paper's device) ==");
    println!(
        "{:>9} {:>10} {:>6} {:>10} {:>9} {:>8} {:>9} {:>10}",
        "target", "opt", "inst", "fmax(MHz)", "op(MHz)", "kALM", "ALM util", "peak GOPS"
    );
    let device = Device::arria10_sx660();
    for &instances in &[1usize, 2] {
        for &(mhz, optimized) in &[(55.0, false), (100.0, true), (150.0, true), (200.0, true), (250.0, true)] {
            let constraints = HlsConstraints { target_period_ns: 1000.0 / mhz, performance_optimized: optimized };
            let arch = Variant::U256Opt.arch(instances);
            let r = synthesize(&arch, &constraints, &device);
            let fits = if r.utilization.fits() { "" } else { "  DOES NOT FIT" };
            println!(
                "{:>7.0}MHz {:>10} {:>6} {:>10.1} {:>9.1} {:>8.0} {:>8.0}% {:>10.1}{}",
                mhz,
                if optimized { "opt" } else { "unopt" },
                instances,
                r.achieved_fmax_mhz,
                r.operating_mhz,
                r.total.alms / 1000.0,
                r.utilization.alm * 100.0,
                r.peak_gops(),
                fits
            );
        }
    }

    println!("\n== scale-out on the larger Arria 10 GT1150 (paper's future-work device) ==");
    let gt = Device::arria10_gt1150();
    for instances in 1..=4 {
        let r = synthesize(&Variant::U256Opt.arch(instances), &HlsConstraints::optimized_150mhz(), &gt);
        println!(
            "  {} instance(s): {:>4.0} MACs/cycle, operating {:>5.1} MHz, ALM {:>3.0}%, peak {:>6.1} GOPS{}",
            instances,
            r.arch.macs_per_cycle(),
            r.operating_mhz,
            r.utilization.alm * 100.0,
            r.peak_gops(),
            if r.utilization.fits() { "" } else { "  (does not fit)" }
        );
    }
    println!("\nNote how congestion derates the operating clock as utilization grows —");
    println!("the effect that capped the paper's 512-opt at 120 MHz on the SX660.");
}
