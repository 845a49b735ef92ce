//! Per-module area breakdown (paper Fig. 6) and utilization summary.

use zskip_hls::{ModuleKind, SynthesisResult};
use zskip_json::{Json, ToJson};

/// One row of the Fig. 6 breakdown.
#[derive(Debug, Clone)]
pub struct AreaRow {
    /// Module label (paper Fig. 6 naming).
    pub module: String,
    /// Instances across the design.
    pub count: usize,
    /// Total ALMs.
    pub alms: f64,
    /// Total DSP blocks.
    pub dsps: f64,
    /// Share of the design's ALMs.
    pub alm_share: f64,
}

impl ToJson for AreaRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("module", self.module.to_json()),
            ("count", self.count.to_json()),
            ("alms", self.alms.to_json()),
            ("dsps", self.dsps.to_json()),
            ("alm_share", self.alm_share.to_json()),
        ])
    }
}

/// The full Fig. 6 data set for one synthesized design.
#[derive(Debug, Clone)]
pub struct AreaBreakdown {
    /// Variant label.
    pub variant: String,
    /// Rows, ordered as in the paper (compute units first).
    pub rows: Vec<AreaRow>,
    /// Totals.
    pub total_alms: f64,
    /// Device utilization percentages (in-text: "44% of the ALM logic,
    /// 25% of the DSP and 49% of the RAM blocks").
    pub alm_utilization: f64,
    /// DSP utilization fraction.
    pub dsp_utilization: f64,
    /// M20K utilization fraction.
    pub m20k_utilization: f64,
}

impl ToJson for AreaBreakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            ("variant", self.variant.to_json()),
            ("rows", self.rows.to_json()),
            ("total_alms", self.total_alms.to_json()),
            ("alm_utilization", self.alm_utilization.to_json()),
            ("dsp_utilization", self.dsp_utilization.to_json()),
            ("m20k_utilization", self.m20k_utilization.to_json()),
        ])
    }
}

impl AreaBreakdown {
    /// Builds the breakdown from a synthesis result.
    pub fn from_synthesis(label: &str, synth: &SynthesisResult) -> AreaBreakdown {
        let rows: Vec<AreaRow> = ModuleKind::all()
            .iter()
            .filter_map(|&kind| synth.module(kind))
            .map(|m| AreaRow {
                module: m.kind.label().to_string(),
                count: m.count,
                alms: m.resources.alms,
                dsps: m.resources.dsps,
                alm_share: m.resources.alms / synth.total.alms,
            })
            .collect();
        AreaBreakdown {
            variant: label.to_string(),
            total_alms: synth.total.alms,
            alm_utilization: synth.utilization.alm,
            dsp_utilization: synth.utilization.dsp,
            m20k_utilization: synth.utilization.m20k,
            rows,
        }
    }

    /// Renders the paper-style text figure: one bar per module.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fig. 6 — ALM usage by each unit in the accelerator ({})\n\n",
            self.variant
        ));
        let max = self.rows.iter().map(|r| r.alms).fold(0.0, f64::max);
        for r in &self.rows {
            let width = 40;
            let n = if max > 0.0 { ((r.alms / max) * width as f64).round() as usize } else { 0 };
            out.push_str(&format!(
                "{:<22} x{:<3} {:>8.0} ALMs  {:>5.1}%  |{}\n",
                r.module,
                r.count,
                r.alms,
                r.alm_share * 100.0,
                "#".repeat(n.min(width)),
            ));
        }
        out.push_str(&format!(
            "\ntotal {:.0} ALMs — device utilization: ALM {:.0}%, DSP {:.0}%, M20K {:.0}%\n",
            self.total_alms,
            self.alm_utilization * 100.0,
            self.dsp_utilization * 100.0,
            self.m20k_utilization * 100.0,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_hls::{Variant, PAPER_POINTS};

    #[test]
    fn breakdown_covers_all_modules_and_sums_to_one() {
        let synth = Variant::U256Opt.synthesize(1);
        let b = AreaBreakdown::from_synthesis("256-opt", &synth);
        assert_eq!(b.rows.len(), 8);
        let share: f64 = b.rows.iter().map(|r| r.alm_share).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    }

    #[test]
    fn render_mentions_dominant_modules() {
        let synth = Variant::U256Opt.synthesize(1);
        let text = AreaBreakdown::from_synthesis("256-opt", &synth).render();
        assert!(text.contains("convolution"));
        assert!(text.contains("accumulator"));
        assert!(text.contains("data-staging/control"));
        assert!(text.contains("ALM 44%"), "{text}");
    }

    #[test]
    fn utilization_matches_synthesis() {
        for (label, variant, instances) in PAPER_POINTS {
            let synth = variant.synthesize(instances);
            let b = AreaBreakdown::from_synthesis(label, &synth);
            assert!((b.alm_utilization - synth.utilization.alm).abs() < 1e-12, "{label}");
            // Two instances on the SX660: the paper's 512-opt at ~82 % ALM.
            assert_eq!(b.alm_utilization > 0.6, instances == 2, "{label}");
        }
    }
}
