//! Property-based crash-consistency tests.
//!
//! The central invariant of the paper: *after recovery, the application
//! always sees vPM in the state of the last completed `persist()`* —
//! for any operation sequence, any persist placement, and any crash
//! point. proptest generates those inputs; a `std::collections::HashMap`
//! model tracks what each persisted snapshot must contain.

use std::collections::HashMap as StdMap;

use libpax::{Heap, PHashMap, PaxConfig, PaxPool};
use pax_pm::PoolConfig;
use proptest::prelude::*;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20))
}

#[derive(Debug, Clone)]
enum Action {
    Insert(u64, u64),
    Remove(u64),
    Persist,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u64..64, any::<u64>()).prop_map(|(k, v)| Action::Insert(k, v)),
        2 => (0u64..64).prop_map(Action::Remove),
        1 => Just(Action::Persist),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// For any op/persist sequence, a crash at the end recovers exactly
    /// the model state at the last persist.
    #[test]
    fn recovery_restores_last_persisted_snapshot(
        actions in proptest::collection::vec(action_strategy(), 1..120)
    ) {
        let pool = PaxPool::create(config()).unwrap();
        let map: PHashMap<u64, u64, _, Heap<_>> =
            PHashMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();

        let mut model: StdMap<u64, u64> = StdMap::new();
        let mut snapshot: StdMap<u64, u64> = StdMap::new();

        for a in &actions {
            match a {
                Action::Insert(k, v) => {
                    map.insert(*k, *v).unwrap();
                    model.insert(*k, *v);
                }
                Action::Remove(k) => {
                    map.remove(*k).unwrap();
                    model.remove(k);
                }
                Action::Persist => {
                    pool.persist().unwrap();
                    snapshot = model.clone();
                }
            }
        }

        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let map: PHashMap<u64, u64, _, Heap<_>> =
            PHashMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();
        let mut recovered: Vec<(u64, u64)> = map.entries().unwrap();
        recovered.sort_unstable();
        let mut expected: Vec<(u64, u64)> = snapshot.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(recovered, expected);
    }

    /// Crashing at an arbitrary device step (including mid-persist) never
    /// exposes anything but the last *completed* persist.
    #[test]
    fn arbitrary_crash_points_are_safe(
        kvs in proptest::collection::vec((0u64..32, any::<u64>()), 1..40),
        crash_offset in 0u64..400,
    ) {
        let pool = PaxPool::create(config()).unwrap();
        let map: PHashMap<u64, u64, _, Heap<_>> =
            PHashMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();

        // Epoch 1: a known-good snapshot.
        let mut snapshot: StdMap<u64, u64> = StdMap::new();
        for (k, v) in kvs.iter().take(kvs.len() / 2) {
            map.insert(*k, *v).unwrap();
            snapshot.insert(*k, *v);
        }
        pool.persist().unwrap();

        // Epoch 2 with an armed crash clock: ops and the persist may die
        // anywhere.
        let clock = pool.crash_clock().unwrap();
        clock.arm(clock.steps_taken() + crash_offset);
        let mut epoch2 = snapshot.clone();
        let mut completed = true;
        for (k, v) in kvs.iter().skip(kvs.len() / 2) {
            if map.insert(*k, *v).is_err() {
                completed = false;
                break;
            }
            epoch2.insert(*k, *v);
        }
        let persisted_epoch2 = completed && pool.persist().is_ok();

        let expected = if persisted_epoch2 { epoch2 } else { snapshot };

        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let map: PHashMap<u64, u64, _, Heap<_>> =
            PHashMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();
        let mut recovered: Vec<(u64, u64)> = map.entries().unwrap();
        recovered.sort_unstable();
        let mut expected: Vec<(u64, u64)> = expected.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(recovered, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The persistent heap allocator never hands out overlapping blocks,
    /// on either space, under arbitrary alloc/free interleavings.
    #[test]
    fn heap_allocations_never_overlap(
        sizes in proptest::collection::vec(1u64..200, 1..40),
        free_mask in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let pool = PaxPool::create(config()).unwrap();
        let heap = Heap::attach(pool.vpm()).unwrap();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let addr = heap.alloc(len).unwrap();
            for (a, l) in &live {
                let disjoint = addr + len <= *a || *a + *l <= addr;
                prop_assert!(disjoint, "alloc {addr}+{len} overlaps {a}+{l}");
            }
            live.push((addr, len));
            if free_mask.get(i).copied().unwrap_or(false) && live.len() > 1 {
                let (a, l) = live.swap_remove(live.len() / 2);
                heap.free(a, l).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Non-blocking persist (§6): with an overlapped epoch draining and a
    /// crash at an arbitrary device step, recovery lands on whichever
    /// epoch had committed — never a mix.
    #[test]
    fn overlapped_epochs_crash_anywhere(
        crash_offset in 0u64..300,
        lines in 1u64..24,
    ) {
        let pool = PaxPool::create(config()).unwrap();
        let vpm = {

            pool.vpm()
        };
        use libpax::MemSpace;

        // Epoch 1: value 1 on every line; committed synchronously.
        for i in 0..lines {
            vpm.write_u64(i * 64, 1).unwrap();
        }
        pool.persist().unwrap();

        // Epoch 2: value 2; persisted asynchronously with an armed crash.
        let clock = pool.crash_clock().unwrap();
        clock.arm(clock.steps_taken() + crash_offset);
        let mut committed2 = false;
        let launched = (|| -> libpax::Result<()> {
            for i in 0..lines {
                vpm.write_u64(i * 64, 2)?;
            }
            pool.persist_async()?;
            // Drive the drain with epoch-3 activity + polls.
            for i in 0..lines {
                vpm.write_u64((lines + i) * 64, 3)?;
                if pool.persist_poll()? == Some(2) {
                    committed2 = true;
                }
            }
            pool.persist_wait()?;
            committed2 = true;
            Ok(())
        })();
        let _ = launched;

        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let committed = pool.committed_epoch().unwrap();
        let vpm = pool.vpm();
        // Whatever committed, the data must match that epoch exactly.
        let expect = match committed {
            1 => 1u64,
            2 => 2u64,
            other => return Err(TestCaseError::fail(format!("unexpected epoch {other}"))),
        };
        if committed2 {
            prop_assert_eq!(committed, 2, "wait() reported commit");
        }
        for i in 0..lines {
            let v = vpm.read_u64(i * 64).unwrap();
            prop_assert_eq!(v, expect, "line {} under epoch {}", i, committed);
        }
        // Epoch-3 writes can never be visible (never persisted).
        for i in 0..lines {
            prop_assert_eq!(vpm.read_u64((lines + i) * 64).unwrap(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A crash injected mid-epoch is replayable from the trace dump: the
    /// dump parses back, contains exactly one crash event, and every undo
    /// log append of the in-flight epoch precedes it in sequence order —
    /// the forensic record recovery tooling needs to explain a rollback.
    #[test]
    fn mid_epoch_crash_replays_from_trace_dump(
        kvs in proptest::collection::vec((0u64..48, any::<u64>()), 4..40),
        crash_offset in 5u64..200,
    ) {
        use pax_telemetry::{TraceBuf, TraceEvent};

        let pool = PaxPool::create(config()).unwrap();
        let map: PHashMap<u64, u64, _, Heap<_>> =
            PHashMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();

        // Epoch 1 commits; epoch 2 dies somewhere in the middle.
        for (k, v) in kvs.iter().take(kvs.len() / 2) {
            map.insert(*k, *v).unwrap();
        }
        pool.persist().unwrap();
        let clock = pool.crash_clock().unwrap();
        clock.arm(clock.steps_taken() + crash_offset);
        for (k, v) in kvs.iter().skip(kvs.len() / 2) {
            if map.insert(*k, *v).is_err() {
                break;
            }
        }
        let pm = pool.crash().unwrap();

        // The dump round-trips and is totally ordered by SimClock.
        let dump = pool.trace_dump();
        let records = TraceBuf::parse_json_lines(&dump).unwrap();
        prop_assert!(!records.is_empty());
        prop_assert!(
            records.windows(2).all(|w| w[0].seq < w[1].seq),
            "dump must be in sequence order"
        );

        // Exactly one crash, and it is the final record.
        let crashes: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.event, TraceEvent::Crash { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(crashes.len(), 1);
        let crash_idx = crashes[0];
        prop_assert_eq!(crash_idx, records.len() - 1);
        let crash_epoch = match records[crash_idx].event {
            TraceEvent::Crash { epoch } => epoch,
            _ => unreachable!(),
        };

        // Every log append of the in-flight epoch precedes the crash —
        // these are precisely the entries recovery will roll back.
        let appends: Vec<&pax_telemetry::TraceRecord> = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::LogAppend { epoch, .. } if epoch == crash_epoch))
            .collect();
        for a in &appends {
            prop_assert!(a.seq < records[crash_idx].seq);
        }

        // Replay check: recovery rolls back a subset of the logged lines
        // (entries whose write back already landed still need undo; ones
        // that never left HBM don't reach PM at all — but no line outside
        // the trace's log appends may ever be rolled back).
        let logged: std::collections::HashSet<u64> = appends
            .iter()
            .map(|r| match r.event {
                TraceEvent::LogAppend { line, .. } => line,
                _ => unreachable!(),
            })
            .collect();
        let mut pm = pm;
        let mut replay_trace = TraceBuf::new(4096);
        let report = pax_device::recover_traced(&mut pm, &mut replay_trace).unwrap();
        let rolled: Vec<u64> = replay_trace
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::RecoveryStep { line, .. } => Some(line),
                _ => None,
            })
            .collect();
        prop_assert_eq!(rolled.len(), report.rolled_back);
        for line in &rolled {
            prop_assert!(
                logged.contains(line),
                "recovery rolled back line {} the trace never logged", line
            );
        }
    }

    /// Virtual-time determinism (the scheduler's contract): the same
    /// write sequence interleaved with the same tick schedule, with the
    /// crash clock armed at the same step, replays the IDENTICAL crash
    /// state — crash outcome, committed epoch, and every recovered line.
    #[test]
    fn identical_tick_schedules_replay_identical_crash_states(
        ticks in proptest::collection::vec(0u64..6, 8..32),
        crash_offset in 1u64..250,
    ) {
        use libpax::MemSpace;

        let run = || {
            let pool = PaxPool::create(config()).unwrap();
            let vpm = pool.vpm();
            // A fresh pool's crash clock starts at step 0, so the same
            // offset names the same durable-write step in both runs.
            let clock = pool.crash_clock().unwrap();
            clock.arm(crash_offset);
            let outcome = (|| -> libpax::Result<()> {
                for (i, &n) in ticks.iter().enumerate() {
                    vpm.write_u64(i as u64 * 64, i as u64 + 1)?;
                    pool.run_device(n)?;
                    if i == ticks.len() / 2 {
                        pool.persist_async()?;
                    }
                }
                pool.persist()?;
                Ok(())
            })();
            let crashed = outcome.is_err();

            let pm = pool.crash().unwrap();
            let pool = PaxPool::open(pm, config()).unwrap();
            let committed = pool.committed_epoch().unwrap();
            let vpm = pool.vpm();
            let state: Vec<u64> =
                (0..ticks.len() as u64).map(|i| vpm.read_u64(i * 64).unwrap()).collect();
            (crashed, committed, state)
        };
        prop_assert_eq!(run(), run(), "same seed + same tick schedule must replay");
    }

    /// The ordered map obeys the same snapshot invariant as the hash map,
    /// and its structural invariants hold after recovery (mid-rebalance
    /// states roll back atomically).
    #[test]
    fn btree_recovery_restores_last_persisted_snapshot(
        actions in proptest::collection::vec(action_strategy(), 1..80)
    ) {
        use libpax::PBTreeMap;
        let pool = PaxPool::create(config()).unwrap();
        let map: PBTreeMap<u64, u64, _, Heap<_>> =
            PBTreeMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();

        let mut model: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut snapshot = model.clone();
        for a in &actions {
            match a {
                Action::Insert(k, v) => {
                    prop_assert_eq!(map.insert(*k, *v).unwrap(), model.insert(*k, *v));
                }
                Action::Remove(k) => {
                    prop_assert_eq!(map.remove(*k).unwrap(), model.remove(k));
                }
                Action::Persist => {
                    pool.persist().unwrap();
                    snapshot = model.clone();
                }
            }
        }
        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let map: PBTreeMap<u64, u64, _, Heap<_>> =
            PBTreeMap::attach(Heap::attach(pool.vpm()).unwrap()).unwrap();
        map.check_invariants().unwrap();
        let recovered = map.entries().unwrap();
        let expected: Vec<(u64, u64)> = snapshot.into_iter().collect();
        prop_assert_eq!(recovered, expected);
    }
}
