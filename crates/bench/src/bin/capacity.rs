//! T-capacity: no working-set limits and single-copy PM use.
//!
//! §3.3: "if the device is overwhelmed with modified cache lines that are
//! part of the current epoch, it can still evict them and write them back
//! once they are logged" — unlike HTM-style designs whose epochs die when
//! a buffer fills. And §1: snapshotting costs one copy of the structure,
//! not the ≥2× of physical-snapshot systems [21, 22, 32].
//!
//! This harness drives epochs whose write sets are multiples of the HBM
//! buffer capacity and shows every epoch still commits, plus the PM
//! capacity a copy-based snapshotter would have needed.
//!
//! Run: `cargo run --release -p pax-bench --bin capacity` (add `--json`
//! for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_bench::{BenchOut, Json};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, EvictionPolicy, HbmConfig};
use pax_pm::{PoolConfig, LINE_SIZE};

const HBM_LINES: usize = 64;

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("capacity");
    out.config("hbm_lines", Json::U64(HBM_LINES as u64));
    out.line(format!(
        "epochs with write sets up to 32× the device HBM buffer ({HBM_LINES} lines)\n"
    ));

    let mut rows = vec![vec![
        "write set [lines]".to_string(),
        "× HBM".to_string(),
        "epoch committed".to_string(),
        "proactive writebacks".to_string(),
        "eviction stalls".to_string(),
        "PM copies (PAX)".to_string(),
        "PM copies (snapshot-based)".to_string(),
    ]];

    for factor in [1usize, 4, 8, 16, 32] {
        let lines = HBM_LINES * factor;
        let pool = PaxPool::create(
            PaxConfig::default()
                .with_pool(
                    PoolConfig::small()
                        .with_data_bytes(lines * LINE_SIZE * 2)
                        .with_log_bytes(lines * 128 * 2),
                )
                .with_device(DeviceConfig::default().with_hbm(HbmConfig {
                    capacity_bytes: HBM_LINES * LINE_SIZE,
                    ways: 4,
                    policy: EvictionPolicy::PreferDurable,
                }))
                // Host cache smaller than the write set so lines actually
                // flow to the device mid-epoch.
                .with_cache(CacheConfig::tiny(16 * LINE_SIZE, 4)),
        )
        .expect("pool");

        let vpm = pool.vpm();
        for i in 0..lines as u64 {
            vpm.write_u64(i * LINE_SIZE as u64, i).expect("write");
        }
        let epoch = pool.persist().expect("persist never fails on capacity");
        let m = pool.device_metrics().expect("metrics");

        rows.push(vec![
            lines.to_string(),
            format!("{factor}×"),
            format!("yes (epoch {epoch})"),
            m.background_writebacks.to_string(),
            m.forced_log_flushes.to_string(),
            "1".to_string(),
            "2".to_string(),
        ]);
        out.push_result(
            Json::obj()
                .field("write_set_lines", Json::U64(lines as u64))
                .field("hbm_factor", Json::U64(factor as u64))
                .field("epoch_committed", Json::Bool(true))
                .field("committed_epoch", Json::U64(epoch))
                .field("background_writebacks", Json::U64(m.background_writebacks))
                .field("eviction_stalls", Json::U64(m.forced_log_flushes))
                .field("pm_copies_pax", Json::U64(1))
                .field("pm_copies_snapshot", Json::U64(2)),
        );
    }
    out.table(&rows);

    out.blank();
    out.line("every epoch commits regardless of write-set size: logged-durable lines are");
    out.line("evicted from HBM mid-epoch and written back early (§3.3). Kamino-Tx/Pronto-");
    out.line("style physical snapshots would hold a second full copy on PM (2× capacity).");
    out.finish();
}
