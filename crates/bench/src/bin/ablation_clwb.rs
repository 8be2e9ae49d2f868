//! A-clwb: snoop-based persist vs CLWB-style forced flushes (§4).
//!
//! "We plan to generate CXL device-to-host RdShared messages to force the
//! host CPU to downgrade (and forward the current values of) its dirty
//! cache lines before write back to PM. This is more efficient than
//! forcing CPUs to issue CLWBs which are serialized, consume cycles, and
//! cause complete evictions of cache lines and future cache misses."
//!
//! Both variants are implemented on the same device; this harness runs
//! identical epochs and measures what happens to the host cache *after*
//! the persist: the snoop path leaves lines resident in shared state
//! (re-reads hit), the CLWB path evicts them (re-reads miss and travel to
//! the device again).
//!
//! Run: `cargo run --release -p pax-bench --bin ablation_clwb` (add
//! `--json` for machine-readable output)

use pax_bench::{BenchOut, Json};
use pax_cache::{CacheConfig, CoherentCache};
use pax_device::{DeviceConfig, PaxDevice};
use pax_pm::{CacheLine, LatencyProfile, LineAddr, PmPool, PoolConfig};

const LINES: u64 = 256;

fn run(clwb: bool) -> (u64, u64, f64) {
    let pool =
        PmPool::create(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20))
            .expect("pool");
    let mut device = PaxDevice::open(pool, DeviceConfig::default()).expect("device");
    let mut cache = CoherentCache::new(CacheConfig::tiny(64 << 10, 8));

    for i in 0..LINES {
        cache.write(LineAddr(i), CacheLine::filled(i as u8), &mut device).expect("write");
    }
    if clwb {
        device.persist_clwb(&mut cache).expect("persist");
    } else {
        device.persist(&mut cache).expect("persist");
    }

    // The epoch's working set is re-read after the persist.
    let before = cache.stats();
    for i in 0..LINES {
        cache.read(LineAddr(i), &mut device).expect("read");
    }
    let after = cache.stats();
    let hits = after.read_hits - before.read_hits;
    let misses = after.read_misses - before.read_misses;

    // Extra AMAT the re-read pays, charged at CXL interposition + PM/HBM.
    let p = LatencyProfile::c6420();
    let miss_ns = (p.cxl_overhead_ns + p.hbm_ns) as f64; // device HBM still warm
    let extra_ns = misses as f64 * miss_ns / LINES as f64;
    (hits, misses, extra_ns)
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("ablation_clwb");
    out.config("epoch_lines", Json::U64(LINES));
    out.line(format!(
        "persist flush mechanism vs post-persist cache warmth ({LINES}-line epoch)\n"
    ));
    let (snoop_hits, snoop_misses, snoop_ns) = run(false);
    let (clwb_hits, clwb_misses, clwb_ns) = run(true);

    let rows = vec![
        vec![
            "flush mechanism".to_string(),
            "re-read hits".to_string(),
            "re-read misses".to_string(),
            "extra ns/line after persist".to_string(),
        ],
        vec![
            "SnpData downgrade (PAX plan)".to_string(),
            snoop_hits.to_string(),
            snoop_misses.to_string(),
            format!("{snoop_ns:.0}"),
        ],
        vec![
            "CLWB-style eviction".to_string(),
            clwb_hits.to_string(),
            clwb_misses.to_string(),
            format!("{clwb_ns:.0}"),
        ],
    ];
    out.table(&rows);
    for (mechanism, hits, misses, ns) in [
        ("snpdata_downgrade", snoop_hits, snoop_misses, snoop_ns),
        ("clwb_eviction", clwb_hits, clwb_misses, clwb_ns),
    ] {
        out.push_result(
            Json::obj()
                .field("mechanism", Json::str(mechanism))
                .field("reread_hits", Json::U64(hits))
                .field("reread_misses", Json::U64(misses))
                .field("extra_ns_per_line", Json::F64(ns)),
        );
    }
    out.blank();
    out.line("the snoop-based protocol downgrades lines to shared — the working set stays");
    out.line("cached across persist() and re-reads hit. CLWB-style flushes evict, so every");
    out.line("re-read pays a device round trip: the \"complete evictions … and future cache");
    out.line("misses\" §4 predicts. (Future Intel CPUs that downgrade on CLWB would close");
    out.line("the gap — which is exactly the paper's parenthetical.)");
    out.finish();
}
