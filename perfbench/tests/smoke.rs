//! The benchmark's own tests, on the smoke configuration (a tiny trace
//! and two functions per workload). Run them with and without the
//! `check` feature; with it, every workload ends in the `cxl-check`
//! audits.

use std::process::Command;
use std::sync::Mutex;

use cxl_telemetry::Json;
use perfbench::metrics::{result_line, Metrics};
use perfbench::{Options, Size, Workload, END_TO_END, PER_LAYER};

/// Telemetry sessions are process-wide: one workload at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, seed: u64, trace: bool) -> perfbench::Outcome {
    perfbench::run(&Options {
        workload,
        seed,
        seconds: 1,
        trace,
        size: Size::Smoke,
    })
}

fn assert_emits(metrics: &Metrics, names: &[(&str, &str)], workload: Workload) {
    for (name, unit) in names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{}: {name} not emitted", workload.name()));
        assert_eq!(m.unit, *unit, "{}: {name}", workload.name());
        assert!(
            m.value.is_finite(),
            "{}: {name} = {}",
            workload.name(),
            m.value
        );
    }
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        let untraced = smoke(workload, 11, false);
        assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
        assert_emits(&untraced.metrics, &END_TO_END, workload);
        for (name, _) in END_TO_END {
            assert!(
                untraced.metrics.value(name) > 0.0,
                "{}: end-to-end {name} is 0",
                workload.name()
            );
        }
        let traced = smoke(workload, 11, true);
        assert!(traced.errors.is_empty(), "{:?}", traced.errors);
        assert_emits(&traced.metrics, &PER_LAYER, workload);
        assert!(traced.metrics.value("cxl_telemetry.spans") > 0.0);
        let line = result_line(true, 1, 0, &traced.metrics, &PER_LAYER);
        assert!(Json::parse(&line).is_ok(), "{line}");
    }
}

#[test]
fn same_seed_smoke_runs_repeat_every_virtual_and_count_metric() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        let a = smoke(workload, 23, true);
        let b = smoke(workload, 23, true);
        assert!(a.errors.is_empty() && b.errors.is_empty());
        let (a_det, b_det) = (a.metrics.deterministic(), b.metrics.deterministic());
        assert!(
            a_det.len() > 20,
            "{}: too few deterministic metrics",
            workload.name()
        );
        assert_eq!(a_det, b_det, "{}", workload.name());
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        assert_eq!(a.failed, 0, "{}: a call failed", workload.name());
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        let a = smoke(workload, 1, false);
        let b = smoke(workload, 2, false);
        assert_ne!(
            a.metrics.deterministic(),
            b.metrics.deterministic(),
            "{}: the seed moves nothing",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let pairs = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), owned(&END_TO_END));
    assert_eq!(pairs("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn the_command_prints_the_result_line_last() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "fork-unit",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--size",
            "smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let Json::Obj(fields) = &last else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = last.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), END_TO_END.len());

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonsense"])
        .output()
        .expect("benchmark runs");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty());
}
