//! The reference model every result is checked against.
//!
//! A plain `HashMap` holds what the persistent table should contain. It
//! also keeps an undo list of the changes since the last committed
//! persist, so after a crash it can roll back to exactly the state that
//! recovery must reproduce.

use std::collections::HashMap;

use pax_workloads::Op;

/// Expected table contents plus the open epoch's undo list.
#[derive(Debug, Default, Clone)]
pub struct Model {
    map: HashMap<u64, u64>,
    undo: Vec<(u64, Option<u64>)>,
}

impl Model {
    /// A model holding `entries`, all committed.
    pub fn with_entries(entries: &[(u64, u64)]) -> Self {
        Model { map: entries.iter().copied().collect(), undo: Vec::new() }
    }

    /// Applies `op` and returns the result the map must give for it.
    pub fn apply(&mut self, op: Op) -> Option<u64> {
        match op {
            Op::Get(k) => self.map.get(&k).copied(),
            Op::Insert(k, v) | Op::Update(k, v) => {
                let old = self.map.insert(k, v);
                self.undo.push((k, old));
                old
            }
            Op::Remove(k) => {
                let old = self.map.remove(&k);
                if old.is_some() {
                    self.undo.push((k, old));
                }
                old
            }
        }
    }

    /// The open epoch became durable.
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// Power was lost: return to the last committed state.
    pub fn rollback(&mut self) {
        while let Some((k, old)) = self.undo.pop() {
            match old {
                Some(v) => self.map.insert(k, v),
                None => self.map.remove(&k),
            };
        }
    }

    /// Changes `key`'s expected value; only tests use this, to show that
    /// the checks catch a wrong table.
    pub fn corrupt(&mut self, key: u64) {
        *self.map.entry(key).or_insert(0) ^= 1;
    }

    /// Compares the recovered table with the model. Returns the number of
    /// keys that differ (missing, extra, or with another value).
    pub fn mismatches(&self, mut entries: Vec<(u64, u64)>) -> u64 {
        entries.sort_unstable();
        let mut bad = 0u64;
        let mut seen = 0u64;
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 {
                bad += 1;
            }
        }
        for (k, v) in &entries {
            match self.map.get(k) {
                Some(want) if want == v => seen += 1,
                Some(_) => {
                    seen += 1;
                    bad += 1;
                }
                None => bad += 1,
            }
        }
        bad + (self.map.len() as u64).saturating_sub(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_the_committed_state() {
        let mut m = Model::with_entries(&[(1, 10), (2, 20)]);
        assert_eq!(m.apply(Op::Insert(3, 30)), None);
        m.commit();
        assert_eq!(m.apply(Op::Update(1, 11)), Some(10));
        assert_eq!(m.apply(Op::Remove(2)), Some(20));
        assert_eq!(m.apply(Op::Remove(2)), None);
        assert_eq!(m.apply(Op::Insert(4, 40)), None);
        m.rollback();
        assert_eq!(m.mismatches(vec![(1, 10), (2, 20), (3, 30)]), 0);
    }

    #[test]
    fn mismatches_counts_every_kind_of_difference() {
        let m = Model::with_entries(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(m.mismatches(vec![(3, 30), (1, 10), (2, 20)]), 0);
        // Wrong value, missing key, extra key, duplicate key.
        assert_eq!(m.mismatches(vec![(1, 11), (2, 20), (3, 30)]), 1);
        assert_eq!(m.mismatches(vec![(1, 10), (2, 20)]), 1);
        assert_eq!(m.mismatches(vec![(1, 10), (2, 20), (3, 30), (4, 40)]), 1);
        assert_eq!(m.mismatches(vec![(1, 10), (1, 10), (2, 20), (3, 30)]), 1);
    }
}
