//! T-trap: interposition cost — page-fault traps vs PAX coherence messages.
//!
//! §1: page-fault interposition "suffers from extreme trap overheads on
//! modern x86 CPUs (more than 1 µs per trap)"; PAX interposes "in
//! hardware with low overhead". This harness runs the same update
//! workload under both mechanisms and charges each its interposition
//! events at the profile costs.
//!
//! Run: `cargo run --release -p pax-bench --bin trap_overhead` (add
//! `--json` for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_baselines::{Costed, HybridSpace, PageFaultSpace};
use pax_bench::{BenchOut, Json};
use pax_pm::{LatencyProfile, PoolConfig, PAGE_SIZE};

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("trap_overhead");
    let profile = LatencyProfile::c6420();
    let updates = 4_000u64;
    let pages = 256u64;
    out.config("updates", Json::U64(updates));
    out.config("pages", Json::U64(pages));
    out.line(format!("interposition overhead for {updates} 8 B updates over {pages} pages\n"));

    let config = PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20);

    // Page-fault tracking.
    let pf = PageFaultSpace::create(config).expect("pagefault");
    for i in 0..updates {
        let addr = (i % pages) * PAGE_SIZE as u64 + (i / pages % 8) * 64;
        pf.write_u64(addr, i).expect("write");
    }
    pf.persist().expect("persist");
    let pf_costs = pf.costs();
    let pf_trap_ns = pf_costs.traps as f64 * profile.trap_ns as f64;

    // Hybrid (one remap trap per page, line logging after).
    let hy = HybridSpace::create(config).expect("hybrid");
    for i in 0..updates {
        let addr = (i % pages) * PAGE_SIZE as u64 + (i / pages % 8) * 64;
        hy.write_u64(addr, i).expect("write");
    }
    hy.persist().expect("persist");
    let hy_costs = hy.costs();
    let hy_trap_ns = hy_costs.traps as f64 * profile.trap_ns as f64;

    // PAX: interposition = RdOwn messages at CXL wire cost; no traps.
    let pax = PaxPool::create(PaxConfig::default().with_pool(config)).expect("pool");
    let vpm = pax.vpm();
    for i in 0..updates {
        let addr = (i % pages) * PAGE_SIZE as u64 + (i / pages % 8) * 64;
        vpm.write_u64(addr, i).expect("write");
    }
    pax.persist().expect("persist");
    let m = pax.device_metrics().expect("metrics");
    let pax_interpose_ns = m.rd_own as f64 * profile.cxl_overhead_ns as f64;

    let mut rows = vec![vec![
        "mechanism".to_string(),
        "interposition events".to_string(),
        "cost/event [ns]".to_string(),
        "total [µs]".to_string(),
        "ns per update".to_string(),
    ]];
    for (mechanism, events, event_kind, cost_ns, total_ns) in [
        ("page_fault", pf_costs.traps, "traps", profile.trap_ns, pf_trap_ns),
        ("hybrid", hy_costs.traps, "traps", profile.trap_ns, hy_trap_ns),
        ("pax_cxl", m.rd_own, "RdOwn msgs", profile.cxl_overhead_ns, pax_interpose_ns),
    ] {
        rows.push(vec![
            mechanism.replace('_', "-"),
            format!("{events} {event_kind}"),
            format!("{cost_ns}"),
            format!("{:.1}", total_ns / 1e3),
            format!("{:.0}", total_ns / updates as f64),
        ]);
        out.push_result(
            Json::obj()
                .field("mechanism", Json::str(mechanism))
                .field("interposition_events", Json::U64(events))
                .field("event_kind", Json::str(event_kind))
                .field("cost_per_event_ns", Json::U64(cost_ns))
                .field("total_ns", Json::F64(total_ns))
                .field("ns_per_update", Json::F64(total_ns / updates as f64)),
        );
    }
    out.table(&rows);

    out.blank();
    out.line(format!(
        "paper claim: traps cost >1 µs each (profile: {} ns) while PAX interposes per",
        profile.trap_ns
    ));
    out.line(format!(
        "LLC miss at wire cost ({} ns); paging amortizes per page per epoch, PAX pays",
        profile.cxl_overhead_ns
    ));
    out.line("per first-touch line — compare the per-update columns across mechanisms.");

    // Density sweep: where does amortization flip the winner?
    out.line("\ninterposition ns per update vs spatial density (one epoch):\n");
    let mut rows = vec![vec![
        "updates/page".to_string(),
        "page-fault [ns/update]".to_string(),
        "PAX [ns/update]".to_string(),
        "winner".to_string(),
    ]];
    for per_page in [1u64, 2, 4, 8, 16, 64] {
        let pages = 128u64;
        let updates = pages * per_page;
        // Page faults: one trap per page per epoch.
        let pf_ns = pages as f64 * profile.trap_ns as f64 / updates as f64;
        // PAX: one RdOwn per distinct line; each update hits a distinct
        // line up to 64/page, then re-hits.
        let lines = pages * per_page.min(64);
        let pax_ns = lines as f64 * profile.cxl_overhead_ns as f64 / updates as f64;
        let winner = if pf_ns < pax_ns { "page_fault" } else { "pax" };
        rows.push(vec![
            per_page.to_string(),
            format!("{pf_ns:.0}"),
            format!("{pax_ns:.0}"),
            winner.replace('_', "-"),
        ]);
        out.push_result(
            Json::obj()
                .field("sweep", Json::str("density"))
                .field("updates_per_page", Json::U64(per_page))
                .field("page_fault_ns_per_update", Json::F64(pf_ns))
                .field("pax_ns_per_update", Json::F64(pax_ns))
                .field("winner", Json::str(winner)),
        );
    }
    out.table(&rows);
    out.blank();
    out.line("the crossover sits near trap_ns/cxl_overhead ≈ 14 updates per page: below");
    out.line("it PAX wins outright; above it paging amortizes its trap — §5.1's \"paging");
    out.line("may capture spatial locality well for some workloads\", quantified.");
    out.finish();
}
