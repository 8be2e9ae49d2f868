//! Figure 2b: write-only hash-table throughput vs thread count.
//!
//! The paper runs a volatile TBB hash table in DRAM, on PM directly, and
//! PMDK's TBB-based persistent table, on a 32-core machine. Here the
//! per-op event profile is *measured* from the functional simulation and
//! the scaling is produced by the `pax-exec` discrete-event model (this
//! host may have a single core; see DESIGN.md §2). The PAX series is the
//! paper's §5 projection: asynchronous logging ≈ PM-Direct performance.
//!
//! Run: `cargo run --release -p pax-bench --bin fig2b` (add `--json` for
//! machine-readable output). `--measured` switches to the *real-thread*
//! series: N OS threads (`--threads 1,2,4,8`) storing concurrently
//! through the `Send + Sync` `PaxPool`, timed on the wall clock — the
//! shard-parallel engine measured, not modelled.

use pax_bench::{
    arg_value, flag, measure_insert_profile, measure_threaded_store_mops, thread_series, BenchOut,
    Json,
};
use pax_exec::{Backend, MachineParams};
use pax_pm::{LatencyProfile, Platform};

/// The measured real-thread series (`--measured`): wall-clock Mops per
/// thread count at a fixed shard interleave, plus the scaling ratio the
/// CI ratchet enforces.
fn run_measured() {
    let mut out = BenchOut::from_args("fig2b_measured");
    let threads = thread_series(&[1, 2, 4, 8]);
    let shards: usize = arg_value("--shards").map_or(4, |v| v.parse().expect("bad --shards"));
    let ops: u64 = arg_value("--ops").map_or(200_000, |v| v.parse().expect("bad --ops"));
    // The ratchet gates the parallel-scaling bar on this: a host without
    // real cores cannot exhibit real speedup, only graceful degradation.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.config("shards", Json::U64(shards as u64));
    out.config("ops_per_thread", Json::U64(ops));
    out.config("host_cores", Json::U64(host_cores as u64));
    out.line(format!(
        "\nFigure 2b (measured) — wall-clock store throughput [Mops], S={shards}, \
         {ops} ops/thread"
    ));
    let mut rows = vec![vec!["threads".to_string(), "mops".to_string(), "vs 1".to_string()]];
    let mut base = None;
    for &t in &threads {
        eprintln!("measuring {t} thread(s) …");
        let mops = measure_threaded_store_mops(t, shards, ops);
        let b = *base.get_or_insert(mops);
        let scaling = mops / b;
        rows.push(vec![t.to_string(), format!("{mops:.2}"), format!("{scaling:.2}×")]);
        out.push_result(
            Json::obj()
                .field("threads", Json::U64(t as u64))
                .field("shards", Json::U64(shards as u64))
                .field("mops", Json::F64(mops))
                .field("scaling_vs_1", Json::F64(scaling)),
        );
    }
    out.table(&rows);
    out.finish();
}

fn main() {
    pax_bench::accept_args(&["--json", "--measured"], &["--threads", "--shards", "--ops"]);
    if flag("--measured") {
        run_measured();
        return;
    }
    let mut out = BenchOut::from_args("fig2b");
    eprintln!("measuring per-op insert profile from the functional simulation …");
    let profile = measure_insert_profile(20_000, 40_000);
    eprintln!(
        "measured: {:.2} misses/op, {:.2} stores/op",
        profile.misses_per_op, profile.stores_per_op
    );
    out.config("misses_per_op", Json::F64(profile.misses_per_op));
    out.config("stores_per_op", Json::F64(profile.stores_per_op));

    let latency = LatencyProfile::c6420();
    let machine = MachineParams::paper();
    let sharded = MachineParams { device_shards: 4, ..MachineParams::paper() };
    let slow_tick = MachineParams { device_tick_ns: 100, ..MachineParams::paper() };
    let threads = thread_series(&[1, 8, 16, 24, 32]);
    // (series label, backend, machine) — the S=4 row reruns PAX (CXL) on
    // a 4-shard device (banked pipelines + log engines, cf.
    // `DeviceConfig::with_shards`); the tick=100ns row reruns it with a
    // free-running scheduler clocked 4× slower than the log engine, so
    // sustained stores queue behind the tick period.
    let series: Vec<(String, Backend, MachineParams)> = vec![
        (Backend::Dram.label().to_string(), Backend::Dram, machine),
        (Backend::PmDirect.label().to_string(), Backend::PmDirect, machine),
        (Backend::Pmdk.label().to_string(), Backend::Pmdk, machine),
        (Backend::Pax(Platform::Cxl).label().to_string(), Backend::Pax(Platform::Cxl), machine),
        ("PAX (CXL) S=4".to_string(), Backend::Pax(Platform::Cxl), sharded),
        ("PAX (CXL) tick=100ns".to_string(), Backend::Pax(Platform::Cxl), slow_tick),
        (
            Backend::Pax(Platform::Enzian).label().to_string(),
            Backend::Pax(Platform::Enzian),
            machine,
        ),
    ];

    out.line("\nFigure 2b — write-only throughput [Mops] vs threads");
    let mut rows = vec![{
        let mut h = vec!["threads".to_string()];
        h.extend(series.iter().map(|(label, _, _)| label.clone()));
        h
    }];
    let mut results = vec![vec![0.0f64; series.len()]; threads.len()];
    for (ti, &t) in threads.iter().enumerate() {
        let mut row = vec![t.to_string()];
        for (si, (label, b, m)) in series.iter().enumerate() {
            let mops = b.throughput(t, 4_000, &latency, m, &profile).mops();
            results[ti][si] = mops;
            row.push(format!("{mops:.2}"));
            out.push_result(
                Json::obj()
                    .field("threads", Json::U64(t as u64))
                    .field("backend", Json::str(label))
                    .field("shards", Json::U64(m.device_shards as u64))
                    .field("mops", Json::F64(mops)),
            );
        }
        rows.push(row);
    }
    out.table(&rows);

    let last = threads.len() - 1;
    out.blank();
    out.line(format!(
        "at 32 threads: PM-Direct/PMDK = {:.2}× (paper: \"≈2× better\")",
        results[last][1] / results[last][2]
    ));
    out.line(format!(
        "at 32 threads: PAX(CXL)/PM-Direct = {:.2}× (paper: \"match or beat PM Direct\")",
        results[last][3] / results[last][1]
    ));
    out.line(format!(
        "at 32 threads: PAX(CXL) S=4/S=1 = {:.2}× (shard parallelism; bar: ≥ 1.5×)",
        results[last][4] / results[last][3]
    ));
    out.line(format!(
        "at 32 threads: PAX(CXL) tick=100ns/tick=25ns = {:.2}× (scheduler as the bottleneck)",
        results[last][5] / results[last][3]
    ));
    out.line(format!(
        "at 32 threads: DRAM/PM-Direct = {:.2}× (volatile headroom)",
        results[last][0] / results[last][1]
    ));
    out.finish();
}
