//! Fault-injection robustness: corrupted media, torn log entries, and
//! malformed pool files must never panic, and must never corrupt the
//! parts of recovery that remain valid.

use libpax::{MemSpace, PaxConfig, PaxError, PaxPool};
use pax_device::{recover, UndoLog};
use pax_pm::{CacheLine, LineAddr, PmError, PmPool, PoolConfig};
use proptest::prelude::*;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(4 << 20).with_log_bytes(8 << 20))
}

/// Builds a pool that crashed mid-epoch-2 with committed epoch 1 and a
/// known durable state.
fn crashed_pool() -> PmPool {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..32u64 {
        vpm.write_u64(i * 64, 1).unwrap();
    }
    pool.persist().unwrap();
    for i in 0..32u64 {
        vpm.write_u64(i * 64, 2).unwrap();
    }
    // Drive background work so epoch-2 entries and some write backs land.
    for i in 0..64u64 {
        vpm.read_u64((32 + i % 8) * 64).unwrap();
    }
    pool.crash().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Arbitrary corruption of the *log region* never panics recovery.
    /// Entries whose checksum survives are applied; the rest are skipped.
    /// (Data-region guarantees require an intact log — this asserts
    /// memory-safety and absence of crashes/false magics, not semantics.)
    #[test]
    fn corrupted_log_region_never_panics(
        offsets in proptest::collection::vec(0u64..1_000, 1..20),
        garbage in any::<u8>(),
    ) {
        let mut pm = crashed_pool();
        let log_start = pm.layout().log_start().0;
        let log_lines = pm.layout().log_lines;
        for off in &offsets {
            let line = LineAddr(log_start + off % log_lines);
            pm.write_line(line, CacheLine::filled(garbage)).unwrap();
        }
        pm.drain();
        // Must not panic, whatever the corruption did.
        let report = recover(&mut pm).unwrap();
        prop_assert!(report.scanned <= log_lines as usize / 2);
        // The pool must remain openable end-to-end.
        let pool = PaxPool::open(pm, config()).unwrap();
        let _ = pool.vpm().read_u64(0).unwrap();
    }

    /// Corrupting entries that belong to *committed* epochs can never
    /// change recovery's outcome: the recovered data still matches the
    /// last snapshot exactly.
    #[test]
    fn stale_entry_corruption_is_harmless(
        offsets in proptest::collection::vec(0u64..1_000, 1..20),
    ) {
        // Crash with NO epoch-2 entries durable: arrange by crashing
        // immediately after persist (all durable entries are epoch-1 =
        // committed = stale).
        let pool = PaxPool::create(config()).unwrap();
        let vpm = pool.vpm();
        for i in 0..32u64 {
            vpm.write_u64(i * 64, 7).unwrap();
        }
        pool.persist().unwrap();
        let mut pm = pool.crash().unwrap();

        let log_start = pm.layout().log_start().0;
        let log_lines = pm.layout().log_lines;
        for off in &offsets {
            let line = LineAddr(log_start + off % log_lines);
            pm.write_line(line, CacheLine::filled(0x5C)).unwrap();
        }
        pm.drain();

        let pool = PaxPool::open(pm, config()).unwrap();
        let vpm = pool.vpm();
        for i in 0..32u64 {
            prop_assert_eq!(vpm.read_u64(i * 64).unwrap(), 7);
        }
    }
}

#[test]
fn truncated_pool_file_is_rejected_cleanly() {
    let dir = std::env::temp_dir().join("pax-robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.pool");

    let pool = PaxPool::create(config()).unwrap();
    pool.vpm().write_u64(0, 1).unwrap();
    pool.persist().unwrap();
    pool.save_file(&path).unwrap();

    let full = std::fs::read(&path).unwrap();
    for keep in [0usize, 3, 8, 35, full.len() / 2] {
        std::fs::write(&path, &full[..keep]).unwrap();
        let err = PmPool::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("pool") || msg.contains("I/O"), "keep={keep}: unexpected error {msg}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bitflip_in_header_magic_is_detected() {
    let dir = std::env::temp_dir().join("pax-robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bitflip.pool");

    let pool = PaxPool::create(config()).unwrap();
    pool.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(PmPool::load(&path).is_err());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn double_recovery_after_corruption_is_stable() {
    let mut pm = crashed_pool();
    // Corrupt one mid-log line.
    let line = LineAddr(pm.layout().log_start().0 + 5);
    pm.write_line(line, CacheLine::filled(0xEE)).unwrap();
    pm.drain();
    let r1 = recover(&mut pm).unwrap();
    let r2 = recover(&mut pm).unwrap();
    assert_eq!(r1.committed_epoch, r2.committed_epoch);
    // Whatever survived the first scan survives the second identically.
    let s1 = UndoLog::scan(&mut pm).unwrap();
    let s2 = UndoLog::scan(&mut pm).unwrap();
    assert_eq!(s1, s2);
}

/// Opens `config` and returns the error `PaxPool::create` reports.
fn open_error(config: PaxConfig) -> PaxError {
    match PaxPool::create(config) {
        Ok(pool) => panic!(
            "expected a config error, opened a pool with {:?} tenants",
            pool.tenant_count().ok()
        ),
        Err(e) => e,
    }
}

#[test]
fn zero_tenants_is_a_typed_config_error() {
    let err = open_error(config().with_tenants(0));
    assert!(matches!(err, PaxError::Pm(PmError::Config(_))), "got {err}");
    assert!(err.to_string().contains("tenant"), "got {err}");
}

#[test]
fn zero_cores_is_a_typed_config_error() {
    let err = open_error(config().with_cores(0));
    assert!(matches!(err, PaxError::Pm(PmError::Config(_))), "got {err}");
    assert!(err.to_string().contains("core"), "got {err}");
    let err = open_error(PaxConfig { cores: 0, ..config() });
    assert!(matches!(err, PaxError::Pm(PmError::Config(_))), "got {err}");
}
