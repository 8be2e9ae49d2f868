//! Multi-tenant noisy-neighbor isolation.
//!
//! One PAX device hosts two pool contexts: a well-behaved **victim**
//! running small epochs (write a working set, `persist()`), and an
//! **aggressor** hammering its own extent with 8× the write volume and
//! persisting rarely, so its undo-log backlog stays deep. The harness
//! measures the durable-write steps consumed *during the victim's own
//! operations* — the deterministic analogue of the victim's latency —
//! with the aggressor idle (`solo`) and active (`noisy`).
//!
//! Per-tenant epochs and per-lane banks make the isolation structural:
//! the victim's `persist()` never flushes or stalls the aggressor's
//! epoch, and vice versa. What remains shared is *time* (each foreground
//! request donates one bounded idle step to a backlogged lane) — so the
//! victim pays a small, bounded tax, quantified here as
//! `victim_ratio = noisy throughput / solo throughput`. CI enforces the
//! isolation floor: the victim keeps ≥ 70 % of its solo throughput.
//!
//! Run: `cargo run --release -p pax-bench --bin tenants` (add `--json`
//! for machine-readable output)

use libpax::{MemSpace, PaxConfig, PaxPool, PaxTenant};
use pax_bench::{BenchOut, Json};
use pax_device::DeviceConfig;
use pax_pm::{PoolConfig, LINE_SIZE};

const ROUNDS: u64 = 8;
const VICTIM_LINES: u64 = 64;
const AGGRESSOR_FACTOR: u64 = 8;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(16 << 20).with_log_bytes(32 << 20))
        .with_device(DeviceConfig::default().with_shards(2))
        .with_tenants(2)
        .with_auto_persist_on_log_full()
}

/// One victim round: write the working set, then persist the tenant's
/// epoch. Returns the durable-write steps consumed by the victim's calls.
fn victim_round(pool: &PaxPool, victim: &PaxTenant, round: u64) -> u64 {
    let clock = pool.crash_clock().expect("clock");
    let vpm = victim.vpm();
    let before = clock.steps_taken();
    for i in 0..VICTIM_LINES {
        vpm.write_u64(i * LINE_SIZE as u64, round * VICTIM_LINES + i).expect("victim write");
    }
    victim.persist().expect("victim persist");
    clock.steps_taken() - before
}

/// One aggressor burst: 8× the victim's write volume into its own
/// extent, persisting only every fourth round so the backlog stays deep.
fn aggressor_round(aggressor: &PaxTenant, round: u64) -> u64 {
    let vpm = aggressor.vpm();
    let lines = VICTIM_LINES * AGGRESSOR_FACTOR;
    for i in 0..lines {
        vpm.write_u64((i % 2048) * LINE_SIZE as u64, round * lines + i).expect("aggressor write");
    }
    if round % 4 == 3 {
        aggressor.persist().expect("aggressor persist");
    }
    lines
}

/// Runs the victim's full schedule; `noisy` interleaves aggressor bursts
/// before every victim round. Returns (victim steps, aggressor ops).
fn run(noisy: bool) -> (u64, u64) {
    let pool = PaxPool::create(config()).expect("pool");
    let victim = pool.attach(0).expect("victim");
    let aggressor = pool.attach(1).expect("aggressor");
    let mut victim_steps = 0u64;
    let mut aggressor_ops = 0u64;
    for round in 0..ROUNDS {
        if noisy {
            aggressor_ops += aggressor_round(&aggressor, round);
        }
        victim_steps += victim_round(&pool, &victim, round);
    }
    assert_eq!(victim.committed_epoch().expect("epoch"), ROUNDS, "every victim epoch committed");
    (victim_steps, aggressor_ops)
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("tenants");
    out.line("noisy neighbor: victim steps per op with the aggressor idle vs active\n");

    let victim_ops = ROUNDS * VICTIM_LINES;
    let (solo_steps, _) = run(false);
    let (noisy_steps, aggressor_ops) = run(true);
    // Deterministic "throughput": victim ops per 1k durable-write steps
    // consumed during the victim's own calls.
    let solo_tput = victim_ops as f64 * 1000.0 / solo_steps.max(1) as f64;
    let noisy_tput = victim_ops as f64 * 1000.0 / noisy_steps.max(1) as f64;
    let victim_ratio = noisy_tput / solo_tput;

    out.table(&[
        vec![
            "series".to_string(),
            "victim ops".to_string(),
            "victim steps".to_string(),
            "ops/kstep".to_string(),
        ],
        vec![
            "solo".to_string(),
            victim_ops.to_string(),
            solo_steps.to_string(),
            format!("{solo_tput:.1}"),
        ],
        vec![
            "noisy".to_string(),
            victim_ops.to_string(),
            noisy_steps.to_string(),
            format!("{noisy_tput:.1}"),
        ],
    ]);
    out.push_result(
        Json::obj()
            .field("series", Json::str("solo"))
            .field("victim_ops", Json::U64(victim_ops))
            .field("victim_steps", Json::U64(solo_steps))
            .field("victim_ops_per_kstep", Json::F64(solo_tput)),
    );
    out.push_result(
        Json::obj()
            .field("series", Json::str("noisy"))
            .field("victim_ops", Json::U64(victim_ops))
            .field("victim_steps", Json::U64(noisy_steps))
            .field("victim_ops_per_kstep", Json::F64(noisy_tput))
            .field("aggressor_ops", Json::U64(aggressor_ops)),
    );
    out.push_result(
        Json::obj()
            .field("series", Json::str("isolation"))
            .field("victim_ratio", Json::F64(victim_ratio)),
    );

    out.blank();
    out.line(format!(
        "victim keeps {:.0}% of its solo throughput under an {AGGRESSOR_FACTOR}x-write \
         aggressor (floor: 70%).",
        victim_ratio * 100.0
    ));
    out.line("Per-tenant epochs make the isolation structural: the victim's persist() is a");
    out.line("barrier over its own lanes only, so the aggressor's backlog is never flushed");
    out.line("on the victim's critical path. The residual tax is the bounded idle-step");
    out.line("donation each foreground request grants a backlogged lane.");
    out.finish();
}
