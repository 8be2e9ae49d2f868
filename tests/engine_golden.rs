//! Coverage check for the golden-digest fixture of the device's
//! undo-log and HBM engines.
//!
//! `tests/fixtures/engine_golden.txt` was recorded when the lock-free
//! engines and the two retired mutex engines agreed on every schedule of
//! the two differential suites. Those suites, `tests/lockfree_log.rs`
//! and `tests/hbm_lockfree.rs`, now check the surviving engine against
//! their blocks of the fixture (harness: `tests/support/engine_golden.rs`).
//! This test makes sure the fixture still holds every case of every
//! block and nothing else.

#[path = "support/engine_golden.rs"]
mod golden;

/// Per suite: 4 pinned schedules plus 12 sampled cases for each of the
/// two proptest blocks, 56 cases in all.
#[test]
fn fixture_covers_both_retired_suites() {
    let blocks = [
        ("lockfree_log::engines_agree_on_pinned_seeds", 4),
        ("lockfree_log::engines_agree_without_armed_crash", 12),
        ("lockfree_log::engines_agree_under_mid_epoch_crash", 12),
        ("hbm_lockfree::hbm_engines_agree_on_pinned_seeds", 4),
        ("hbm_lockfree::hbm_engines_agree_without_armed_crash", 12),
        ("hbm_lockfree::hbm_engines_agree_under_mid_epoch_crash", 12),
    ];
    let cases = golden::cases();
    assert_eq!(cases.len(), 56);
    for (block, expected) in blocks {
        let n = cases.iter().filter(|c| c.id.starts_with(&format!("{block}/"))).count();
        assert_eq!(n, expected, "{block}");
    }
}
