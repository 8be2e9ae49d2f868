//! T-wamp: write amplification — line vs page granularity logging.
//!
//! §1: page-fault approaches suffer "high write amplification since it
//! forces logging at a page granularity (4 KiB on x86) rather than at the
//! specific size of the field being mutated". This harness performs K
//! random 8-byte field updates over a large region under every mechanism
//! and reports PM write traffic per application byte, sweeping spatial
//! locality (fields per page) to find the crossover where paging's
//! amortization catches up (§5.1 "paging may capture spatial locality
//! well for some workloads").
//!
//! Run: `cargo run --release -p pax-bench --bin write_amp` (add `--json`
//! for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_baselines::{Costed, DirectPmSpace, HybridSpace, PageFaultSpace, WalSpace};
use pax_bench::{BenchOut, Json};
use pax_pm::{PoolConfig, PAGE_SIZE};

/// Performs `writes` 8-byte updates, `per_page` of them in each page.
fn run_pattern<S: MemSpace>(space: &S, writes: u64, per_page: u64) {
    for i in 0..writes {
        let page = i / per_page;
        let slot = i % per_page;
        let addr = page * PAGE_SIZE as u64 + slot * 64; // one field per line
        space.write_u64(addr, i).expect("write");
    }
}

fn pool_config() -> PoolConfig {
    PoolConfig::small().with_data_bytes(32 << 20).with_log_bytes(64 << 20)
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("write_amp");
    let writes = 2_000u64;
    out.config("writes", Json::U64(writes));
    out.line("write amplification: PM bytes written per application byte");
    out.line(format!("{writes} random 8 B field updates, varying fields touched per 4 KiB page\n"));

    let mut rows = vec![vec![
        "fields/page".to_string(),
        "PM-Direct".to_string(),
        "PAX (line log)".to_string(),
        "Hybrid".to_string(),
        "PMDK WAL".to_string(),
        "Page-fault".to_string(),
        "traps(page)".to_string(),
    ]];

    for per_page in [1u64, 4, 16, 64] {
        // PAX: measured from the device's own log/write-back counters.
        let pax_pool =
            PaxPool::create(PaxConfig::default().with_pool(pool_config())).expect("pool");
        let vpm = pax_pool.vpm();
        run_pattern(&vpm, writes, per_page);
        pax_pool.persist().expect("persist");
        let m = pax_pool.device_metrics().expect("metrics");
        let app_bytes = (writes * 8) as f64;
        let pax_amp = (m.log_bytes() + m.writeback_bytes()) as f64 / app_bytes;

        let direct = DirectPmSpace::new(32 << 20);
        run_pattern(&direct, writes, per_page);

        let wal = WalSpace::create(pool_config()).expect("wal");
        run_pattern(&wal, writes, per_page);

        let pf = PageFaultSpace::create(pool_config()).expect("pagefault");
        run_pattern(&pf, writes, per_page);
        pf.persist().expect("persist");

        let hy = HybridSpace::create(pool_config()).expect("hybrid");
        run_pattern(&hy, writes, per_page);
        hy.persist().expect("persist");

        rows.push(vec![
            per_page.to_string(),
            format!("{:.1}×", direct.costs().write_amplification()),
            format!("{pax_amp:.1}×"),
            format!("{:.1}×", hy.costs().write_amplification()),
            format!("{:.1}×", wal.costs().write_amplification()),
            format!("{:.1}×", pf.costs().write_amplification()),
            pf.costs().traps.to_string(),
        ]);
        out.push_result(
            Json::obj()
                .field("fields_per_page", Json::U64(per_page))
                .field("pm_direct_amp", Json::F64(direct.costs().write_amplification()))
                .field("pax_amp", Json::F64(pax_amp))
                .field("hybrid_amp", Json::F64(hy.costs().write_amplification()))
                .field("pmdk_wal_amp", Json::F64(wal.costs().write_amplification()))
                .field("page_fault_amp", Json::F64(pf.costs().write_amplification()))
                .field("page_fault_traps", Json::U64(pf.costs().traps)),
        );
    }
    out.table(&rows);
    out.blank();
    out.line("shape check: page-fault amplification collapses toward the others only as");
    out.line("locality rises (64 fields/page = every line in the page is written), while");
    out.line("PAX stays flat — \"low write amplification\" (§1) without locality assumptions.");
    out.finish();
}
