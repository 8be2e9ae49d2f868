//! Golden-digest suite for the lock-free undo log.
//!
//! Seeded schedules of writes, persists, device ticks, and an optional
//! crash at a seeded device step — including one that lands mid-epoch,
//! inside an undo drain — must reproduce the durable state, committed
//! epoch, recovery report and recovery trace recorded in
//! `tests/fixtures/engine_golden.txt`. The record was taken while this
//! suite still ran the CAS engine against the retired mutex-guarded undo
//! log and both agreed on every case; the test names are kept from then.
//! Harness and re-bless procedure: `tests/support/engine_golden.rs`.

#[path = "support/engine_golden.rs"]
mod golden;

/// The four hand-picked regression schedules.
#[test]
fn engines_agree_on_pinned_seeds() {
    golden::check("lockfree_log::engines_agree_on_pinned_seeds");
}

/// Sampled schedules ending in a crash with no clock armed: the
/// unpersisted tail rolls back.
#[test]
fn engines_agree_without_armed_crash() {
    golden::check("lockfree_log::engines_agree_without_armed_crash");
}

/// Sampled schedules with the crash clock armed at a seeded device step.
#[test]
fn engines_agree_under_mid_epoch_crash() {
    golden::check("lockfree_log::engines_agree_under_mid_epoch_crash");
}
