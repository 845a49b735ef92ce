//! EXPERIMENTS.md's Fig. 7, Fig. 8 and Table I tables, held to the
//! committed `experiments/*.json` the `variant_sweep` bin writes (which
//! `scripts/verify.sh` holds to the program) at the precision the tables
//! print. A figure that moves without its table fails here.

use zskip_json::Json;

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// The data rows of the first table under the `## {heading}` section, as
/// trimmed cells (header and separator rows dropped).
fn table(heading: &str) -> Vec<Vec<String>> {
    let start = EXPERIMENTS_MD
        .lines()
        .position(|l| l.starts_with(&format!("## {heading}")))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no '## {heading}' section"));
    let rows: Vec<Vec<String>> = EXPERIMENTS_MD
        .lines()
        .skip(start + 1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect();
    assert!(rows.len() > 2, "'{heading}' has no table");
    rows[2..].to_vec()
}

fn artifact(name: &str) -> Json {
    let path = format!("{}/../../experiments/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no number '{key}'"))
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string '{key}'"))
}

/// Per sweep point of a Fig. 7 / Fig. 8 artifact: its label
/// (`256-opt-pr`) and one per-conv-layer field's values.
fn points(name: &str, field: &str) -> Vec<(String, Vec<f64>)> {
    let json = artifact(name);
    let points = json.as_arr().expect("an array of sweep points");
    let layers = |p: &Json| -> Vec<f64> {
        p.get("layers").and_then(Json::as_arr).expect("layers").iter().map(|l| num(l, field)).collect()
    };
    points.iter().map(|p| (format!("{}{}", text(p, "variant"), text(p, "model")), layers(p))).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[test]
fn fig7_table_is_the_committed_efficiencies() {
    let rows = table("Fig. 7");
    let points = points("fig7_efficiency", "efficiency");
    assert_eq!(rows.len(), points.len(), "one row per sweep point");
    for (row, (label, eff)) in rows.iter().zip(&points) {
        let want = [label.clone(), format!("{:.2}", max(eff)), format!("{:.2}", mean(eff)), format!("{:.2}", min(eff))];
        assert_eq!(row[..4], want, "Fig. 7 row {label}: variant | best | mean | worst");
    }
}

#[test]
fn fig8_table_is_the_committed_gops() {
    let rows = table("Fig. 8");
    let points = points("fig8_gops", "effective_gops");
    assert_eq!(rows.len(), points.len(), "one row per sweep point");
    for (row, (label, gops)) in rows.iter().zip(&points) {
        let want = [label.clone(), format!("{:.1}", mean(gops)), format!("{:.1}", max(gops))];
        assert_eq!(row[..3], want, "Fig. 8 row {label}: variant | avg | peak");
    }
}

#[test]
fn table1_is_the_committed_power_rows() {
    let rows = table("Table I");
    let json = artifact("table1_power");
    let power = json.as_arr().expect("an array of power rows");
    assert_eq!(rows.len(), power.len(), "one row per (variant, level)");
    for p in power {
        let label = format!("{} ({})", text(p, "variant"), text(p, "level"));
        let row = rows.iter().find(|r| r[0] == label).unwrap_or_else(|| panic!("Table I has no row {label}"));
        let peak = match text(p, "level") {
            "FPGA" => format!("{:.0} ({:.0} dyn)", num(p, "peak_power_mw"), num(p, "dynamic_mw")),
            _ => format!("{:.0}", num(p, "peak_power_mw")),
        };
        let want = [label.clone(), peak, format!("{:.1}", num(p, "gops_per_w_avg")), format!("{:.1}", num(p, "gops_per_w_peak"))];
        assert_eq!(row[..4], want, "Table I row {label}: row | peak power | GOPS/W avg | GOPS/W peak");
    }
}
