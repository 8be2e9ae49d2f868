//! A-overlap: ablation of non-blocking persist (§6 extension).
//!
//! "We believe it may be possible to make persist() fully non-blocking,
//! so that epochs overlap and threads never stall even during persist()."
//!
//! The implemented design snapshots the epoch (one snoop sweep) at
//! `persist_async()` and defers log flushing, write back, and the commit
//! to background progress. This harness counts the *inline* durable-write
//! steps the application waits for under each variant, sweeping epoch
//! size — the work a blocking `persist()` does in the caller's critical
//! path versus what overlap defers.
//!
//! Run: `cargo run --release -p pax-bench --bin ablation_overlap` (add
//! `--json` for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_bench::{BenchOut, Json};
use pax_device::DeviceConfig;
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(16 << 20).with_log_bytes(128 << 20))
}

/// The free-running variant: foreground requests never pump (interval
/// `usize::MAX`), so *all* background progress comes from explicit
/// virtual ticks — the decoupled device the scheduler makes possible.
fn free_running_config() -> PaxConfig {
    config().with_device(DeviceConfig::default().with_log_pump_interval(usize::MAX))
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("ablation_overlap");
    out.line("non-blocking persist: inline device steps the application waits for\n");
    let mut rows = vec![vec![
        "epoch size [lines]".to_string(),
        "sync persist (inline)".to_string(),
        "async begin (inline)".to_string(),
        "deferred drain steps".to_string(),
        "inline reduction".to_string(),
    ]];

    for lines in [16u64, 64, 256, 1024] {
        // Synchronous: everything inline.
        let pool = PaxPool::create(config()).expect("pool");
        let vpm = pool.vpm();
        for i in 0..lines {
            vpm.write_u64(i * 64, i).expect("write");
        }
        let clock = pool.crash_clock().expect("clock");
        let before = clock.steps_taken();
        pool.persist().expect("persist");
        let sync_inline = clock.steps_taken() - before;

        // Asynchronous: begin, then background drain.
        let pool = PaxPool::create(config()).expect("pool");
        let vpm = pool.vpm();
        for i in 0..lines {
            vpm.write_u64(i * 64, i).expect("write");
        }
        let clock = pool.crash_clock().expect("clock");
        let before = clock.steps_taken();
        pool.persist_async().expect("persist_async");
        let async_inline = clock.steps_taken() - before;
        let before_drain = clock.steps_taken();
        pool.persist_wait().expect("wait");
        let drain_steps = clock.steps_taken() - before_drain;

        rows.push(vec![
            lines.to_string(),
            sync_inline.to_string(),
            async_inline.to_string(),
            drain_steps.to_string(),
            format!("{:.0}×", sync_inline as f64 / async_inline.max(1) as f64),
        ]);
        out.push_result(
            Json::obj()
                .field("epoch_lines", Json::U64(lines))
                .field("sync_inline_steps", Json::U64(sync_inline))
                .field("async_inline_steps", Json::U64(async_inline))
                .field("deferred_drain_steps", Json::U64(drain_steps))
                .field(
                    "inline_reduction",
                    Json::F64(sync_inline as f64 / async_inline.max(1) as f64),
                ),
        );
    }
    out.table(&rows);

    // Free-running series: the device advances only on explicit virtual
    // ticks (`run_device`), decoupled from the request path. Sweeping the
    // tick budget granted per store shows how much background headroom an
    // overlapped epoch needs before `persist_async()` stops paying for
    // the previous epoch's drain inline.
    let epoch_lines = 1024u64;
    out.blank();
    out.line("free-running device: ticks per store vs inline steps at the next persist_async\n");
    let mut fr_rows = vec![vec![
        "ticks/store".to_string(),
        "snoop sweep (round 0)".to_string(),
        "steady inline".to_string(),
        "final drain steps".to_string(),
    ]];
    for budget in [0u64, 1, 4, 16, 64] {
        let pool = PaxPool::create(free_running_config()).expect("pool");
        let vpm = pool.vpm();
        let clock = pool.crash_clock().expect("clock");
        let mut floor = 0u64; // round-0 inline: the pure snoop-sweep cost
        let mut steady = 0u64; // mean inline of the overlapped rounds
        for round in 0..4u64 {
            // Alternate between two disjoint line regions so the epoch
            // being written never collides with the epoch draining.
            let base = (round % 2) * epoch_lines * 64;
            for i in 0..epoch_lines {
                vpm.write_u64(base + i * 64, round * epoch_lines + i).expect("write");
                if budget > 0 {
                    pool.run_device(budget).expect("tick");
                }
            }
            let before = clock.steps_taken();
            pool.persist_async().expect("persist_async");
            let inline = clock.steps_taken() - before;
            if round == 0 {
                floor = inline;
            } else {
                steady += inline;
            }
        }
        let steady = steady / 3;
        let before = clock.steps_taken();
        pool.persist_wait().expect("wait");
        let final_drain = clock.steps_taken() - before;
        fr_rows.push(vec![
            budget.to_string(),
            floor.to_string(),
            steady.to_string(),
            final_drain.to_string(),
        ]);
        out.push_result(
            Json::obj()
                .field("series", Json::str("free_running"))
                .field("tick_budget", Json::U64(budget))
                .field("epoch_lines", Json::U64(epoch_lines))
                .field("inline_steps", Json::U64(steady))
                .field("snoop_sweep_steps", Json::U64(floor)),
        );
    }
    out.table(&fr_rows);

    out.blank();
    out.line("persist_async() returns after the snoop sweep alone; the log flush, write");
    out.line("back, and epoch commit ride on subsequent device activity. Total work is");
    out.line("unchanged (inline+deferred ≈ sync) — it has moved off the caller's critical");
    out.line("path, which is precisely the §6 goal. The §6 caveat also shows up: the undo");
    out.line("log cannot recycle while an overlapped epoch drains, so sustained overlap");
    out.line("needs a larger log region (here 128 MiB).");
    out.blank();
    out.line("The free-running series runs the device purely on virtual ticks: with no");
    out.line("tick budget every deferred step snaps back into the next persist_async();");
    out.line("with enough ticks per store the drain completes between persists and the");
    out.line("inline cost converges to the snoop sweep alone.");
    out.finish();
}
