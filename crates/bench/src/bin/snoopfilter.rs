//! A-snoopfilter: ownership-directory ablation on a spill workload.
//!
//! The home agent sees every coherence message, so by persist time it
//! already knows which logged lines the host still plausibly owns: a
//! line that came back via `DirtyEvict` (or was invalidated by a CLWB)
//! needs no `SnpData` at all. This harness runs the workload the filter
//! was built for — a working set several times the host cache, so most
//! dirty lines spill back to the device *between* persists — once with
//! the directory enabled (`filtered`) and once with
//! `DirectoryConfig::disabled()` (`unfiltered`, the pre-directory
//! always-snoop behaviour).
//!
//! Reported per series: persist-time snoops per store, coalesced
//! write-back batches, and the deterministic throughput proxy used by
//! the tenants bench (ops per 1k durable-write steps). CI enforces the
//! headline via `ci/bench_ratchet.py`: the filtered series must need at
//! most half the unfiltered snoops/op, and neither series' throughput
//! may regress more than 5% run-over-run.
//!
//! Run: `cargo run --release -p pax-bench --bin snoopfilter` (add
//! `--json` for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_bench::{BenchOut, Json};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, DirectoryConfig};
use pax_pm::{PoolConfig, LINE_SIZE};

/// Epochs: write the working set, persist, repeat.
const ROUNDS: u64 = 8;
/// Working-set lines per epoch.
const WS_LINES: u64 = 256;
/// Host cache lines — 8x smaller than the working set, so roughly 7/8
/// of each epoch's dirty lines spill back to the device before the
/// persist and need no snoop.
const HOST_CACHE_LINES: usize = 32;

struct RunStats {
    ops: u64,
    steps: u64,
    snoops: u64,
    filtered_snoops: u64,
    wb_batches: u64,
}

fn run(dir: DirectoryConfig) -> RunStats {
    let config = PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(4 << 20).with_log_bytes(16 << 20))
        .with_cache(CacheConfig::tiny(HOST_CACHE_LINES * LINE_SIZE, 2))
        .with_device(DeviceConfig::default().with_shards(2).with_directory(dir));
    let pool = PaxPool::create(config).expect("pool");
    let clock = pool.crash_clock().expect("clock");
    let vpm = pool.vpm();

    let before = clock.steps_taken();
    for round in 0..ROUNDS {
        for i in 0..WS_LINES {
            vpm.write_u64(i * LINE_SIZE as u64, round * WS_LINES + i).expect("write");
        }
        pool.persist().expect("persist");
    }
    let m = pool.device_metrics().expect("metrics");
    RunStats {
        ops: ROUNDS * WS_LINES,
        steps: clock.steps_taken() - before,
        snoops: m.snoops_sent,
        filtered_snoops: m.dir_filtered_snoops,
        wb_batches: m.wb_batches,
    }
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("snoopfilter");
    out.config("rounds", Json::U64(ROUNDS));
    out.config("working_set_lines", Json::U64(WS_LINES));
    out.config("host_cache_lines", Json::U64(HOST_CACHE_LINES as u64));
    out.line(format!(
        "snoop-filter ablation: {WS_LINES}-line working set over a \
         {HOST_CACHE_LINES}-line host cache, {ROUNDS} persist epochs\n"
    ));

    let unfiltered = run(DirectoryConfig::disabled());
    let filtered = run(DirectoryConfig::enabled());

    let mut rows = vec![vec![
        "series".to_string(),
        "snoops".to_string(),
        "snoops/op".to_string(),
        "filtered".to_string(),
        "wb batches".to_string(),
        "ops/kstep".to_string(),
    ]];
    for (name, s) in [("unfiltered", &unfiltered), ("filtered", &filtered)] {
        let snoops_per_op = s.snoops as f64 / s.ops as f64;
        let ops_per_kstep = s.ops as f64 * 1000.0 / s.steps.max(1) as f64;
        rows.push(vec![
            name.to_string(),
            s.snoops.to_string(),
            format!("{snoops_per_op:.3}"),
            s.filtered_snoops.to_string(),
            s.wb_batches.to_string(),
            format!("{ops_per_kstep:.1}"),
        ]);
        out.push_result(
            Json::obj()
                .field("series", Json::str(name))
                .field("ops", Json::U64(s.ops))
                .field("steps", Json::U64(s.steps))
                .field("snoops_sent", Json::U64(s.snoops))
                .field("snoops_per_op", Json::F64(snoops_per_op))
                .field("dir_filtered_snoops", Json::U64(s.filtered_snoops))
                .field("wb_batches", Json::U64(s.wb_batches))
                .field("ops_per_kstep", Json::F64(ops_per_kstep)),
        );
    }
    out.table(&rows);

    let ratio = filtered.snoops as f64 / unfiltered.snoops.max(1) as f64;
    out.push_result(
        Json::obj()
            .field("series", Json::str("filter"))
            .field("snoop_ratio", Json::F64(ratio))
            .field("snoop_reduction", Json::F64(1.0 / ratio.max(f64::EPSILON))),
    );

    out.blank();
    out.line(format!(
        "the directory elides {} of {} persist snoops ({:.1}x fewer snoops/op); \
         the CI bar is >= 2x.",
        filtered.filtered_snoops,
        unfiltered.snoops,
        1.0 / ratio.max(f64::EPSILON)
    ));
    out.line("Every elided snoop is a line the host already gave back (DirtyEvict) —");
    out.line("its newest bytes sit dirty in device HBM, so the persist writes them");
    out.line("back directly, in coalesced contiguous batches.");
    out.finish();
}
