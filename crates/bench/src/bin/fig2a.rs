//! Figure 2a: AMAT estimates for DRAM, PM, PM via CXL, PM via Enzian.
//!
//! Methodology, as in the paper (§5): run a standard hash-table benchmark
//! performing single-threaded `get()`s with 8 B keys/values under a
//! uniform random key distribution; measure L1/L2/LLC miss rates; compose
//! them with per-level latencies and each scenario's memory service time.
//!
//! Run: `cargo run --release -p pax-bench --bin fig2a` (add `--json` for
//! machine-readable output)

use pax_bench::{bar, measure_fig2a_miss_rates, BenchOut, Json};
use pax_cache::AmatEstimator;
use pax_pm::LatencyProfile;

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("fig2a");
    let keys = 20_000; // table ≈ 2× the scaled LLC: LLC misses occur but caches filter most
    let ops = 100_000;
    out.config("keys", Json::U64(keys));
    out.config("ops", Json::U64(ops));
    eprintln!("measuring miss rates: {keys} keys, {ops} uniform-random get()s …");
    let (stats, device) = measure_fig2a_miss_rates(keys, ops);

    out.line("\nFigure 2a — AMAT estimates (ns) servicing LLC misses");
    out.line(format!(
        "measured miss ratios: L1 {:.3}, L2 {:.3}, LLC {:.3} ({} accesses)\n",
        stats.l1.miss_ratio(),
        stats.l2.miss_ratio(),
        stats.llc.miss_ratio(),
        stats.total_accesses()
    ));
    out.config("l1_miss_ratio", Json::F64(stats.l1.miss_ratio()));
    out.config("l2_miss_ratio", Json::F64(stats.l2.miss_ratio()));
    out.config("llc_miss_ratio", Json::F64(stats.llc.miss_ratio()));
    // Snoop accounting from persisting the loaded table: how much of
    // the epoch's host traffic the ownership directory elided.
    out.config("snoops_sent", Json::U64(device.snoops_sent));
    out.config("dir_filtered_snoops", Json::U64(device.dir_filtered_snoops));
    out.config("dir_hits", Json::U64(device.dir_hits));

    let est = AmatEstimator::new(LatencyProfile::c6420());
    let breakdowns = est.figure_2a(&stats);
    let max = breakdowns.iter().map(|b| b.total_ns()).fold(0.0, f64::max);

    let mut rows = vec![vec![
        "scenario".to_string(),
        "AMAT [ns]".to_string(),
        "t_mem [ns]".to_string(),
        "crash-consistent".to_string(),
        String::new(),
    ]];
    for b in &breakdowns {
        rows.push(vec![
            b.kind.label().to_string(),
            format!("{:.1}", b.total_ns()),
            format!("{:.0}", b.t_mem_ns),
            if b.kind.crash_consistent() { "yes" } else { "no" }.to_string(),
            bar(b.total_ns(), max, 28),
        ]);
        out.push_result(
            Json::obj()
                .field("scenario", Json::str(b.kind.label()))
                .field("amat_ns", Json::F64(b.total_ns()))
                .field("t_mem_ns", Json::F64(b.t_mem_ns))
                .field("crash_consistent", Json::Bool(b.kind.crash_consistent())),
        );
    }
    out.table(&rows);

    let pm = breakdowns[1].total_ns();
    let cxl = breakdowns[2].total_ns();
    let enzian = breakdowns[3].total_ns();
    out.blank();
    out.line(format!(
        "PM via CXL adds {:.0}% to AMAT over raw PM (paper: \"may only add 25%\")",
        (cxl - pm) / pm * 100.0
    ));
    out.line(format!(
        "Enzian-based PAX ≈ {:.1}× the AMAT of a CXL-based PAX (paper: \"about a 2× \
         overhead over an eventual CXL-based implementation\")",
        enzian / cxl
    ));
    out.finish();
}
