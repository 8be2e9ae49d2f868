//! Golden-digest suite for the lock-free HBM set index.
//!
//! Seeded schedules of writes, persists, device ticks, and an optional
//! crash at a seeded device step — including one that lands mid-epoch,
//! inside an undo drain — must reproduce the durable state, device
//! telemetry, committed epoch, recovery report and recovery trace
//! recorded in `tests/fixtures/engine_golden.txt`. The record was taken
//! while this suite still ran the lock-free index against the retired
//! lane-mutex HBM path and both agreed on every case; the test names are
//! kept from then. Harness and re-bless procedure:
//! `tests/support/engine_golden.rs`.
//!
//! (The multi-thread halves of the contract — zero lane-mutex
//! acquisitions on the warm store path and counter conservation under
//! real contention — are asserted in-crate in `pax-device`'s
//! `store_hit_path_takes_no_lane_lock` and
//! `concurrent_same_lane_stores_preserve_telemetry_conservation`.)

#[path = "support/engine_golden.rs"]
mod golden;

/// The four hand-picked regression schedules.
#[test]
fn hbm_engines_agree_on_pinned_seeds() {
    golden::check("hbm_lockfree::hbm_engines_agree_on_pinned_seeds");
}

/// Sampled schedules ending in a crash with no clock armed: the
/// unpersisted tail rolls back.
#[test]
fn hbm_engines_agree_without_armed_crash() {
    golden::check("hbm_lockfree::hbm_engines_agree_without_armed_crash");
}

/// Sampled schedules with the crash clock armed at a seeded device step.
#[test]
fn hbm_engines_agree_under_mid_epoch_crash() {
    golden::check("hbm_lockfree::hbm_engines_agree_under_mid_epoch_crash");
}
