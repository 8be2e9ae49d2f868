//! Virtual-time device scheduler.
//!
//! The paper's home agent makes background progress continuously — "the
//! device may write back a dirty line at any time once its undo entry is
//! durable" (§3.2) — yet a functional simulation needs that progress to
//! be *deterministic and replayable*, or armed crash points stop
//! reproducing. [`DeviceScheduler`] squares the two: background engines
//! advance only on explicit **virtual ticks**
//! ([`PaxDevice::tick`](crate::PaxDevice::tick)), and each tick runs a
//! fixed per-shard budget of work in a fixed shard order. Same writes +
//! same tick schedule ⇒ the same sequence of durable-write steps ⇒ the
//! same [`CrashClock`](pax_pm::CrashClock) crash state, always.
//!
//! The scheduler also owns the *foreground* pump bookkeeping: each shard
//! earns credit from its own routed requests (replacing the old global
//! `requests_since_pump` counter), and every pump donates one round-robin
//! step to a different shard that has pending work but no traffic — so a
//! shard can no longer starve behind a skewed access pattern.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Undo-log entries each lane's logging engine drains per tick. Equal to
/// the request-path pump batch
/// ([`DeviceConfig::log_pump_batch`](crate::DeviceConfig::log_pump_batch)
/// default of 2), so a device driven only by foreground traffic behaves
/// exactly as before this scheduler existed.
pub(crate) const LOG_DRAIN_PER_TICK: usize = 2;

/// Dirty-durable lines each lane writes back per tick (§3.3's proactive
/// write back), equal to the `writeback_batch` default of 1.
pub(crate) const WRITEBACK_PER_TICK: usize = 1;

/// Coalesced write-back *batches* of a draining non-blocking persist
/// issued per tick (and per `persist_poll`); each batch covers up to
/// `DeviceConfig::persist_wb_batch` contiguous lines in one durable-write
/// step. The rate `persist_poll` historically hard-coded.
pub(crate) const PERSIST_DRAIN_PER_TICK: usize = 4;

/// Per-poll persist-drain budget, scaled by how many closed epochs the
/// tenant has queued: `PERSIST_DRAIN_PER_TICK * open_epochs`, with the
/// epoch count floored at 1. With at most one queued epoch (the strict
/// and epoch persistency models) this is exactly the historical per-poll
/// budget; under buffered-epoch the drain engine keeps per-epoch service
/// constant as the queue deepens instead of letting K epochs share one
/// budget.
pub(crate) fn persist_drain_budget(open_epochs: usize) -> usize {
    PERSIST_DRAIN_PER_TICK * open_epochs.max(1)
}

/// One active tenant lane's share of a per-shard tick budget: `base`
/// split evenly across the `active` (≥ 1) tenant lanes of the shard that
/// have pending work, floored at 1 so a tenant with pending work always
/// makes progress — starvation is impossible by construction. With one
/// active tenant the share is the whole budget.
pub(crate) fn tick_share(base: usize, active: usize) -> usize {
    (base / active).max(1)
}

/// Deterministic run-queue state for one device: virtual time, per-shard
/// foreground pump credits, and the round-robin cursor for idle-shard
/// service (see module docs).
///
/// All state is atomic and every method takes `&self`: foreground
/// threads charge their own lane's credit without serializing on a
/// scheduler lock. Under a single driver the relaxed atomics degenerate
/// to plain sequential updates, so tick-schedule replay determinism is
/// untouched.
#[derive(Debug)]
pub struct DeviceScheduler {
    /// Virtual ticks executed so far.
    ticks: AtomicU64,
    /// Foreground requests each lane has accumulated toward its next
    /// pump (its private run-queue depth).
    credits: Vec<AtomicUsize>,
    /// Round-robin cursor over lanes for the donated idle-lane step.
    cursor: AtomicUsize,
}

impl DeviceScheduler {
    /// A scheduler for a device with `lanes` run queues (one per tenant ×
    /// shard pair; an unsharded single-tenant device has exactly one).
    pub(crate) fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        DeviceScheduler {
            ticks: AtomicU64::new(0),
            credits: (0..lanes).map(|_| AtomicUsize::new(0)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Virtual ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Advances virtual time by one tick.
    pub(crate) fn advance(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Charges one foreground request to `shard`'s run queue; `true` when
    /// the shard has accumulated `interval` requests and its pump is due
    /// (the credit resets).
    pub(crate) fn charge(&self, shard: usize, interval: usize) -> bool {
        let interval = interval.max(1);
        let credit = &self.credits[shard];
        let mut cur = credit.load(Ordering::Relaxed);
        loop {
            let (next, due) = if cur + 1 >= interval { (0, true) } else { (cur + 1, false) };
            match credit.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return due,
                Err(now) => cur = now,
            }
        }
    }

    /// The next shard other than `routed` whose run queue reports pending
    /// work, scanning round-robin from the cursor (which advances past the
    /// pick, so service rotates fairly under sustained skew).
    pub(crate) fn next_idle(
        &self,
        shards: usize,
        routed: usize,
        has_work: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let cursor = self.cursor.load(Ordering::Relaxed);
        for i in 0..shards {
            let s = (cursor + i) % shards;
            if s != routed && has_work(s) {
                self.cursor.store((s + 1) % shards, Ordering::Relaxed);
                return Some(s);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budgets_match_the_legacy_pump_rates() {
        let c = crate::DeviceConfig::default();
        assert_eq!(LOG_DRAIN_PER_TICK, c.log_pump_batch);
        assert_eq!(WRITEBACK_PER_TICK, c.writeback_batch);
        assert_eq!(PERSIST_DRAIN_PER_TICK, 4);
    }

    #[test]
    fn charge_is_per_shard_and_respects_the_interval() {
        let sched = DeviceScheduler::new(2);
        // Interval 2: every other request per shard, independently.
        assert!(!sched.charge(0, 2));
        assert!(!sched.charge(1, 2), "shard 1's credit is its own");
        assert!(sched.charge(0, 2));
        assert!(sched.charge(1, 2));
        assert!(!sched.charge(0, 2), "credit reset after the pump");
        // Interval 1 (and the degenerate 0) pump every request.
        assert!(sched.charge(1, 1));
        assert!(sched.charge(1, 0));
    }

    #[test]
    fn next_idle_round_robins_and_skips_the_routed_shard() {
        let sched = DeviceScheduler::new(4);
        let all = |_s: usize| true;
        assert_eq!(sched.next_idle(4, 0, all), Some(1));
        assert_eq!(sched.next_idle(4, 0, all), Some(2));
        assert_eq!(sched.next_idle(4, 0, all), Some(3));
        assert_eq!(sched.next_idle(4, 0, all), Some(1), "cursor wraps past the routed shard");
        assert_eq!(sched.next_idle(4, 2, |s| s == 2), None, "only the routed shard has work");
        assert_eq!(sched.next_idle(1, 0, all), None, "an unsharded device has no other shard");
    }

    #[test]
    fn tick_share_splits_evenly_with_a_floor_of_one() {
        // Two active tenants split a budget of 4 evenly.
        assert_eq!(tick_share(4, 2), 2);
        // A lone tenant gets the whole budget.
        assert_eq!(tick_share(4, 1), 4);
        // A budget smaller than the active count still makes progress.
        assert_eq!(tick_share(2, 100), 1);
        assert_eq!(tick_share(1, 2), 1);
    }

    #[test]
    fn persist_drain_budget_scales_with_queued_epochs() {
        // Empty or single-epoch queues get exactly the legacy budget.
        assert_eq!(persist_drain_budget(0), PERSIST_DRAIN_PER_TICK);
        assert_eq!(persist_drain_budget(1), PERSIST_DRAIN_PER_TICK);
        // Deeper buffered-epoch queues scale linearly.
        assert_eq!(persist_drain_budget(4), 4 * PERSIST_DRAIN_PER_TICK);
    }

    #[test]
    fn virtual_time_is_monotonic() {
        let sched = DeviceScheduler::new(1);
        assert_eq!(sched.ticks(), 0);
        assert_eq!(sched.advance(), 1);
        assert_eq!(sched.advance(), 2);
        assert_eq!(sched.ticks(), 2);
    }
}
