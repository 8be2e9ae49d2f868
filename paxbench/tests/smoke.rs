//! The benchmark's own smoke test: a short run of every workload reports
//! every metric `BENCHMARK.json` names, with its unit, and a corrupted
//! model makes the correctness checks fail.

use std::process::Command;

use pax_telemetry::Json;
use paxbench::cli::Args;
use paxbench::run::{self, Inputs, Plain, Settings, Tally};
use paxbench::workload::Workload;

fn quick() -> Settings {
    Settings {
        seconds: 0.05,
        setups: 1,
        recoveries: 1,
        min_persists: 4,
        window_ops: 4096,
        keep_spans: 4,
    }
}

/// `(name, second)` of each entry of one list of `BENCHMARK.json`.
fn declared(list: &str, second: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_arr)
        .expect("list present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
            (field("name"), field(second))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let workloads: Vec<String> = declared("workloads", "why").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    for w in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args { workload: w, seed: 5, seconds: 1, trace };
            let out = paxbench::run(&args, &quick()).expect("run completes");
            assert!(out.correct, "{} trace={trace}: {}", w.name(), out.report.render());
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let want = declared(list, "unit");
            let got: Vec<(String, String)> =
                out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            let line = Json::parse(&out.result_line()).expect("result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            if trace {
                let value = |n: &str| out.metrics.iter().find(|m| m.name == n).map(|m| m.value);
                let (sum, op) = (value("trace.self_sum_ns_per_op"), value("trace.op_ns_per_op"));
                let (sum, op) = (sum.expect("self sum"), op.expect("op time"));
                assert!((sum - op).abs() <= 1e-6 * op, "self times {sum} must add up to {op}");
                if w != Workload::Tenants2 {
                    assert_eq!(value("replay.counter_mismatches"), Some(0.0));
                }
            }
        }
    }
}

#[test]
fn a_corrupted_model_fails_the_checks() {
    let shape = Workload::KvReadHot.shape();
    let inputs = Inputs::generate(&shape, 9);
    let mut tally = Tally::default();
    let (mut pool_run, _) = run::setup::<Plain>(&shape, &inputs, &mut tally).expect("set-up");
    assert_eq!(tally.failed, 0);

    // Every key is hot enough that a wrong model value is read back.
    for k in 0..shape.key_space {
        pool_run.clients[0].model.corrupt(k);
    }
    let phase = pool_run.measure(&quick());
    assert!(phase.phase.failed > 0, "gets must disagree with a corrupted model");

    // Recovery compares the recovered table with the model.
    let samples = pool_run.recover(1, &mut tally).expect("recovery runs");
    assert!(samples[0].mismatches > 0, "the durability check must see the corrupted model");
}

#[test]
fn unknown_flags_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_paxbench"))
        .args(["--workload", "kv-write", "--json"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
