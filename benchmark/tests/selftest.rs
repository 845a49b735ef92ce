//! Self-tests of the harness's own arithmetic and of the naming contract.
//! Run with `cargo test --manifest-path benchmark/Cargo.toml`; they are
//! not part of the repo's tier-1 command.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use zskip::json::Json;
use zskip_benchmark::calib::{Samples, NOMINAL_MS, SAMPLE_CAP};
use zskip_benchmark::contract::{
    Better, Layers, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS,
};
use zskip_benchmark::serve::{check_reply, judge, Golden, OpenLoop, Sent};
use zskip_benchmark::spans::Recorder;
use zskip_benchmark::stats::{
    highest_supported_percentile, median, percentile, quartile_spread, quartiles, tail,
};
use zskip_benchmark::suite::{verdict, Verdict};

#[test]
fn percentile_picker_keeps_ten_samples_beyond_the_tail() {
    assert_eq!(highest_supported_percentile(99), None);
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(199), Some(90.0));
    assert_eq!(highest_supported_percentile(200), Some(95.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));

    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(
        tail(&samples),
        Some((95.0, 190.0)),
        "p95 of 1..=200 leaves exactly ten samples beyond it"
    );
    assert_eq!(tail(&samples[..50]), None);
    assert_eq!(percentile(&samples, 50.0), 100.0);
    assert_eq!(median(&samples), 100.5);
}

#[test]
fn quartile_spread_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 8.25));
    assert_eq!(quartile_spread(&values), 1.0);
    // statistics.quantiles([3.1, 3.0, 3.3, 2.9, 3.2], n=4) == [2.95, 3.1, 3.25]
    let (q1, q3) = quartiles(&[3.1, 3.0, 3.3, 2.9, 3.2]);
    assert!(
        (q1 - 2.95).abs() < 1e-12 && (q3 - 3.25).abs() < 1e-12,
        "{q1} {q3}"
    );
}

#[test]
fn slowdown_is_the_mean_sample_of_the_window_over_nominal() {
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    // Five samples 10 ms apart; the host was twice as slow for the two
    // in the middle, and the last one caught a stall of the sampler.
    let samples = Samples {
        at: (0..5).map(|k| at(10 * k)).collect(),
        ms: [1.0, 2.0, 2.0, 1.0, 2000.0]
            .map(|x| x * NOMINAL_MS)
            .to_vec(),
    };
    assert!((samples.slowdown(at(0), at(30)) - 1.5).abs() < 1e-12);
    assert!((samples.slowdown(at(5), at(25)) - 2.0).abs() < 1e-12);
    // The stall counts as SAMPLE_CAP, not as 2000.
    let capped = (6.0 + SAMPLE_CAP) / 5.0;
    assert!((samples.slowdown(at(0), at(40)) - capped).abs() < 1e-12);
    // No sample in the window: nothing to correct with.
    assert_eq!(samples.slowdown(at(41), at(50)), 1.0);
    assert_eq!(Samples::default().slowdown(at(0), at(40)), 1.0);
}

#[test]
fn open_loop_times_from_due_time_and_reports_lateness() {
    let start = Instant::now();
    let mut schedule = OpenLoop::new(start, 10.0, Duration::from_secs(1));
    assert_eq!(schedule.next_due(), Some(start));

    // Sent 3 ms late: the request still counts from its due time.
    let (due, late) = schedule.mark_sent(start + Duration::from_millis(3));
    assert_eq!((due, late), (start, Duration::from_millis(3)));

    // A stalled generator does not shift the schedule: request 1 stays
    // due at +100 ms and is reported 150 ms late.
    assert_eq!(
        schedule.next_due(),
        Some(start + Duration::from_millis(100))
    );
    let (due, late) = schedule.mark_sent(start + Duration::from_millis(250));
    assert_eq!(
        (due, late),
        (
            start + Duration::from_millis(100),
            Duration::from_millis(150)
        )
    );

    // Sent early (never happens, but must not underflow): lateness 0.
    let (_, late) = schedule.mark_sent(start + Duration::from_millis(150));
    assert_eq!(late, Duration::ZERO);

    for _ in 3..10 {
        schedule.mark_sent(start + Duration::from_secs(2));
    }
    assert_eq!(schedule.next_due(), None, "1 s at 10 req/s is ten requests");
}

fn reply(id: u64, ok: bool, output: &[i32], cycles: u64) -> String {
    if ok {
        format!(
            "{{\"id\":\"r{id}\",\"ok\":true,\"argmax\":0,\"output\":{output:?},\"total_cycles\":{cycles},\"queue_us\":7,\"batch_us\":11,\"batch_size\":2}}"
        )
    } else {
        format!("{{\"id\":\"r{id}\",\"ok\":false,\"code\":\"serve.overloaded\",\"error\":\"queue full\"}}")
    }
}

#[test]
fn wrong_or_failed_replies_count_as_failed() {
    let goldens = [
        Golden {
            output: vec![1, -2, 3],
            total_cycles: 100,
        },
        Golden {
            output: vec![4, 5, 6],
            total_cycles: 100,
        },
    ];
    let image_of = |id: u64| (id < 5).then_some(id as usize % 2);

    let (id, verdict) = check_reply(&reply(0, true, &[1, -2, 3], 100), image_of, &goldens);
    assert_eq!(id, Some(0));
    let stats = verdict.expect("a matching reply passes");
    assert_eq!(
        (stats.queue_us, stats.batch_us, stats.batch_size),
        (7.0, 11.0, 2.0)
    );

    let wrong_output = check_reply(&reply(1, true, &[4, 5, 7], 100), image_of, &goldens).1;
    assert!(wrong_output.unwrap_err().contains("output differs"));
    let wrong_image = check_reply(&reply(1, true, &[1, -2, 3], 100), image_of, &goldens).1;
    assert!(
        wrong_image.is_err(),
        "request 1 carried image 1, not image 0"
    );
    let wrong_cycles = check_reply(&reply(0, true, &[1, -2, 3], 101), image_of, &goldens).1;
    assert!(wrong_cycles.unwrap_err().contains("total_cycles"));
    let refused = check_reply(&reply(2, false, &[], 0), image_of, &goldens).1;
    assert!(refused.unwrap_err().contains("serve.overloaded"));
    assert!(check_reply("not json", image_of, &goldens).1.is_err());
    assert!(
        check_reply(&reply(9, true, &[1, -2, 3], 100), image_of, &goldens)
            .1
            .is_err(),
        "unknown id"
    );

    // Four requests sent; one good reply, one wrong, one refused, one
    // never answered: three of four failed.
    let due = Instant::now();
    let sent: Vec<Sent> = (0..4)
        .map(|id| Sent {
            id,
            image: id as usize % 2,
            due,
        })
        .collect();
    let at = due + Duration::from_millis(20);
    let received = vec![
        (at, reply(0, true, &[1, -2, 3], 100)),
        (at, reply(1, true, &[0, 0, 0], 100)),
        (at, reply(2, false, &[], 0)),
    ];
    let judged = judge(&sent, &received, &goldens);
    let failed: Vec<u64> = judged
        .iter()
        .filter(|j| j.verdict.is_err())
        .map(|j| j.id)
        .collect();
    assert_eq!(failed, [1, 2, 3]);
    assert_eq!(
        judged[0].latency_ms,
        Some(20.0),
        "latency runs from the due time to the reply"
    );
    assert_eq!(judged[3].latency_ms, None);
    assert!(judged[3].verdict.as_ref().unwrap_err().contains("timeout"));
}

#[test]
fn span_self_time_subtracts_the_union_of_children() {
    let mut rec = Recorder::default();
    let parent = rec.add("parent", "", 0.0, 100.0, None, None);
    let a = rec.add("child", "", 10.0, 30.0, Some(parent), None);
    rec.add("child", "", 20.0, 50.0, Some(parent), None); // overlaps `a`
    rec.add("child", "", 90.0, 120.0, Some(parent), None); // clipped at the parent's end
    rec.add("grandchild", "", 12.0, 14.0, Some(a), None); // not a direct child
    rec.add("elsewhere", "", 40.0, 60.0, None, None); // not a child at all

    // Children cover [10, 50) and [90, 100): 50 of the parent's 100 µs.
    assert_eq!(rec.self_us(parent), 50.0);
    assert_eq!(rec.self_us(a), 18.0);

    let totals = rec.totals();
    assert_eq!(totals["parent"].total_us, 100.0);
    assert_eq!(totals["parent"].self_us, 50.0);
    assert_eq!(totals["child"].count, 3);
    assert_eq!(totals["child"].total_us, 20.0 + 30.0 + 30.0);

    let json = Json::parse(&rec.to_chrome_json()).expect("the trace is valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count(),
        6
    );
}

#[test]
fn nested_timing_records_parents() {
    let mut rec = Recorder::default();
    let outer = rec.enter("outer", "", Some(7));
    rec.time("inner", "", Some(7), || ());
    rec.exit(outer);
    let spans = rec.spans();
    assert_eq!(spans[0].name, "outer");
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_stay_inside_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
        assert!(w.limit_ms > 0.0);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: unit '{}'", m.name, m.unit);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
}

/// `BENCHMARK.json` must list exactly what the harness emits.
#[test]
fn benchmark_json_matches_the_code_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON");
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json must be an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (json, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(json.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(json.get("why").and_then(Json::as_str), Some(def.why));
    }
    let check = |key: &str, defs: &[MetricDef]| {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (json, def) in listed.iter().zip(defs) {
            assert_eq!(
                json.get("name").and_then(Json::as_str),
                Some(def.name),
                "{key}"
            );
            assert_eq!(
                json.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                json.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                json.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    };
    check("end_to_end", &END_TO_END);
    check("per_layer", &PER_LAYER);
}

#[test]
fn result_line_is_the_drivers_json() {
    let outcome = Outcome {
        attempted: 12,
        failed: 1,
        metrics: vec![("latency_ms", 1.2034), ("setup_s", 0.8127)],
    };
    let doc = Json::parse(&outcome.to_json_line()).expect("valid JSON");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(false),
        "one failure makes the run incorrect"
    );
    assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    let latency = doc
        .get("metrics")
        .and_then(|m| m.get("latency_ms"))
        .expect("latency_ms");
    assert_eq!(latency.get("value").and_then(Json::as_f64), Some(1.2034));
    assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));

    let layers = Layers::default();
    assert_eq!(
        layers.values().len(),
        PER_LAYER.len(),
        "a traced run reports every per-layer metric"
    );
    assert!(
        layers.values().iter().all(|(_, v)| *v == 0.0),
        "layers a workload does not cross read 0"
    );
}

#[test]
#[should_panic(expected = "is not a per-layer metric")]
fn probes_cannot_invent_metrics() {
    Layers::default().set("nn.kernels.made_up_ms", 1.0);
}

#[test]
fn verdicts_use_the_fixed_bound_and_the_spread_between_sets() {
    // Stand-ins with a 10% bound, one per direction.
    let lower = &MetricDef {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    let higher = &MetricDef {
        name: "images_per_s",
        unit: "img/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    assert_eq!(verdict(lower, None, &[100.0]), Verdict::NoBaseline);
    assert_eq!(
        verdict(lower, Some(100.0), &[104.0, 106.0, 105.0]),
        Verdict::Ok,
        "5% worse is inside the bound"
    );
    assert_eq!(
        verdict(lower, Some(100.0), &[118.0, 121.0, 120.0]),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(higher, Some(50.0), &[43.0, 44.0, 43.5]),
        Verdict::Regressed,
        "13% fewer images/s"
    );
    assert_eq!(
        verdict(higher, Some(50.0), &[49.0, 51.0, 50.0]),
        Verdict::Ok
    );
    // Sets that disagree by more than the bound settle nothing...
    assert_eq!(
        verdict(lower, Some(100.0), &[95.0, 125.0, 110.0]),
        Verdict::Unresolved
    );
    // ...unless every one of them reads better than the baseline.
    assert_eq!(
        verdict(lower, Some(100.0), &[70.0, 95.0, 80.0]),
        Verdict::Ok
    );
}
