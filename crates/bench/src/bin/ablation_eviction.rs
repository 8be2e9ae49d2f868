//! A-evict: ablation of the HBM eviction policy (§3.3).
//!
//! "The device buffer's eviction policy can try to minimize stalls by
//! preferring to evict cache lines whose undo log entries are already
//! durable." The policies only differ when recency order diverges from
//! log order, so the workload keeps a *hot set* (logged early in the
//! epoch, hence durable early, but constantly re-dirtied and
//! most-recently-used) while a *cold stream* of fresh lines (logged late,
//! entries still queued) pushes the HBM buffer to evict:
//!
//! * **LRU** evicts the oldest-touched line — a cold one whose undo entry
//!   is not durable yet ⇒ a synchronous log-flush stall;
//! * **prefer-durable** sacrifices a hot line whose entry persisted long
//!   ago ⇒ write back with no stall.
//!
//! Run: `cargo run --release -p pax-bench --bin ablation_eviction` (add
//! `--json` for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_bench::{BenchOut, Json};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, EvictionPolicy, HbmConfig};
use pax_pm::{PoolConfig, LINE_SIZE};

const HOT_LINES: u64 = 16;
const COLD_LINES: u64 = 1024;

fn run(policy: EvictionPolicy, pump_interval: usize) -> (u64, u64, u64) {
    let total_lines = (HOT_LINES + COLD_LINES) as usize;
    let pool = PaxPool::create(
        PaxConfig::default()
            .with_pool(
                PoolConfig::small()
                    .with_data_bytes(total_lines * LINE_SIZE * 2)
                    .with_log_bytes(total_lines * 128 * 2),
            )
            .with_device(
                DeviceConfig::default()
                    .with_hbm(HbmConfig { capacity_bytes: 32 * LINE_SIZE, ways: 4, policy })
                    .with_log_pump_batch(1)
                    .with_log_pump_interval(pump_interval)
                    .with_writeback_batch(0),
            )
            // Host cache of 8 lines: dirty lines reach the device quickly.
            .with_cache(CacheConfig::tiny(8 * LINE_SIZE, 2)),
    )
    .expect("pool");

    let vpm = pool.vpm();
    let line = LINE_SIZE as u64;
    // Cold write stream interleaved with hot reads: the hot lines sit in
    // HBM as clean, most-recently-used copies; the cold lines sit dirty
    // with not-yet-durable undo entries. LRU evicts the oldest line — a
    // dirty cold one (stall); prefer-durable picks a clean hot one.
    for c in 0..COLD_LINES {
        let addr = (HOT_LINES + c) * line;
        vpm.write_u64(addr, c).expect("cold write");
        vpm.read_u64((c % HOT_LINES) * line).expect("hot read");
    }
    pool.persist().expect("persist");
    let m = pool.device_metrics().expect("metrics");
    (m.forced_log_flushes, m.device_writebacks, m.undo_entries)
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("ablation_eviction");
    out.config("hot_lines", Json::U64(HOT_LINES));
    out.config("cold_lines", Json::U64(COLD_LINES));
    out.line(format!(
        "HBM eviction policy ablation — {HOT_LINES} hot + {COLD_LINES} cold lines, 32-line HBM\n"
    ));
    let mut rows = vec![vec![
        "log pump rate".to_string(),
        "policy".to_string(),
        "eviction stalls".to_string(),
        "device writebacks".to_string(),
    ]];
    for interval in [1usize, 8, 32] {
        for (policy, name) in
            [(EvictionPolicy::Lru, "LRU"), (EvictionPolicy::PreferDurable, "prefer-durable")]
        {
            let (stalls, wb, _) = run(policy, interval);
            rows.push(vec![
                format!("1 per {interval} reqs"),
                name.to_string(),
                stalls.to_string(),
                wb.to_string(),
            ]);
            out.push_result(
                Json::obj()
                    .field("pump_interval", Json::U64(interval as u64))
                    .field("policy", Json::str(name))
                    .field("eviction_stalls", Json::U64(stalls))
                    .field("device_writebacks", Json::U64(wb)),
            );
        }
    }
    out.table(&rows);
    out.blank();
    out.line("measured finding: when the pump keeps up (1/1) neither policy ever stalls;");
    out.line("when it lags, prefer-durable shaves only a few percent of stalls. Because the");
    out.line("undo log is append-ordered, a line's LRU age correlates with its entry's");
    out.line("durability, so plain LRU already approximates the §3.3 policy — the paper's");
    out.line("\"can try to minimize stalls\" hypothesis buys little beyond LRU unless the");
    out.line("workload re-dirties early-epoch lines late (which keeps early, durable log");
    out.line("offsets attached to recently-used lines).");
    out.finish();
}
