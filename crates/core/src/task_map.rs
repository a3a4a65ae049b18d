//! The runtime's per-task tables: a map keyed by [`TaskId`] that exploits
//! how task ids are made.
//!
//! Ids are handed out densely and in order, and an entry lives from its
//! task's admission to its completion, so the live ids sit in a window
//! below the newest one. [`TaskMap`] keeps that window as an array of slot
//! numbers (four bytes per id, live or not) over a dense vector of
//! entries: every operation is an index computation, nothing is compared
//! or rebalanced, and steady-state inserts reuse the vector's capacity. A
//! long-lived entry — the root of a phase-long task tree — only keeps the
//! window open behind it.

use std::collections::VecDeque;

use crate::task::TaskId;

/// Marks an id of the window that has no entry.
const VACANT: u32 = u32::MAX;

/// A map from [`TaskId`] to `T`; see the module docs.
pub(crate) struct TaskMap<T> {
    /// The id `window[0]` stands for.
    base: u64,
    /// Per id from `base` on: where its entry sits in `entries`.
    window: VecDeque<u32>,
    /// The live entries with their ids, in no particular order.
    entries: Vec<(TaskId, T)>,
}

impl<T> Default for TaskMap<T> {
    fn default() -> Self {
        TaskMap {
            base: 0,
            window: VecDeque::new(),
            entries: Vec::new(),
        }
    }
}

impl<T> TaskMap<T> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `id` sits in the window and in `entries`, if it has an entry.
    fn locate(&self, id: TaskId) -> Option<(usize, usize)> {
        let at = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        let slot = *self.window.get(at)?;
        (slot != VACANT).then_some((at, slot as usize))
    }

    pub(crate) fn get(&self, id: TaskId) -> Option<&T> {
        let (_, slot) = self.locate(id)?;
        Some(&self.entries[slot].1)
    }

    pub(crate) fn get_mut(&mut self, id: TaskId) -> Option<&mut T> {
        let (_, slot) = self.locate(id)?;
        Some(&mut self.entries[slot].1)
    }

    /// Add the entry of `id`, which must not have one.
    pub(crate) fn insert(&mut self, id: TaskId, value: T) {
        if self.window.is_empty() {
            self.base = id.0;
        }
        // A parent's record is made when it splits, by which time later
        // ids may have come and gone and closed the window past it.
        while id.0 < self.base {
            self.window.push_front(VACANT);
            self.base -= 1;
        }
        let at = usize::try_from(id.0 - self.base).expect("task id window fits in memory");
        if self.window.len() <= at {
            self.window.resize(at + 1, VACANT);
        }
        assert_eq!(self.window[at], VACANT, "{id:?} already has an entry");
        self.window[at] = u32::try_from(self.entries.len()).expect("fewer than 2^32 live tasks");
        self.entries.push((id, value));
    }

    pub(crate) fn remove(&mut self, id: TaskId) -> Option<T> {
        let (at, slot) = self.locate(id)?;
        self.window[at] = VACANT;
        let (_, value) = self.entries.swap_remove(slot);
        if let Some((moved, _)) = self.entries.get(slot) {
            let (at, _) = self.locate(*moved).expect("live entry is in the window");
            self.window[at] = slot as u32;
        }
        // Close the window over the ids that are gone for good.
        while self.window.front() == Some(&VACANT) {
            self.window.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    pub(crate) fn clear(&mut self) {
        self.window.clear();
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::{BTreeMap, Entry};

    #[test]
    fn window_follows_the_live_ids() {
        let mut m = TaskMap::default();
        for id in 0..1_000u64 {
            m.insert(TaskId(id), id * 2);
            if id >= 3 {
                assert_eq!(m.remove(TaskId(id - 3)), Some((id - 3) * 2));
            }
            assert!(m.window.len() <= 4, "window grew to {}", m.window.len());
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(TaskId(998)), Some(&1996));
        assert_eq!(m.get(TaskId(5)), None);
        assert_eq!(m.get(TaskId(5_000)), None);
    }

    #[test]
    fn a_long_lived_entry_keeps_the_window_open_and_nothing_else() {
        let mut m = TaskMap::default();
        m.insert(TaskId(0), "root");
        for id in 1..10_000u64 {
            m.insert(TaskId(id), "leaf");
            assert_eq!(m.remove(TaskId(id)), Some("leaf"));
        }
        assert_eq!(m.len(), 1);
        assert!(
            m.entries.capacity() <= 4,
            "entries are reused, not accumulated"
        );
        assert_eq!(m.remove(TaskId(0)), Some("root"));
        assert!(m.is_empty() && m.window.is_empty());
    }

    #[test]
    fn ids_below_the_window_reopen_it() {
        let mut m = TaskMap::default();
        m.insert(TaskId(10), 'a');
        m.insert(TaskId(12), 'b');
        assert_eq!(m.remove(TaskId(10)), Some('a'));
        assert_eq!(m.base, 12);
        m.insert(TaskId(7), 'c');
        assert_eq!(
            (m.get(TaskId(7)), m.get(TaskId(12))),
            (Some(&'c'), Some(&'b'))
        );
        assert_eq!(m.remove(TaskId(9)), None);
        m.clear();
        assert!(m.is_empty());
        m.insert(TaskId(3), 'd');
        assert_eq!(m.get_mut(TaskId(3)), Some(&mut 'd'));
    }

    #[test]
    fn agrees_with_a_btreemap_on_random_programs() {
        let mut rng = allscale_des::rng::XorShift64::new(7);
        let (mut m, mut oracle) = (TaskMap::default(), BTreeMap::new());
        let mut next = 0u64;
        for _ in 0..20_000 {
            match rng.below(5) {
                0 | 1 => {
                    // Ids are issued in order but entered a little late.
                    next += 1 + rng.below(3);
                    let id = next - rng.below(3).min(next);
                    if let Entry::Vacant(fresh) = oracle.entry(id) {
                        fresh.insert(id);
                        m.insert(TaskId(id), id);
                    }
                }
                2 | 3 => {
                    let id = next.saturating_sub(rng.below(40));
                    assert_eq!(m.remove(TaskId(id)), oracle.remove(&id));
                }
                _ => {
                    let id = next.saturating_sub(rng.below(40));
                    assert_eq!(m.get(TaskId(id)), oracle.get(&id));
                }
            }
            assert_eq!(m.len(), oracle.len());
        }
    }

    #[test]
    #[should_panic(expected = "already has an entry")]
    fn double_insert_is_a_bug() {
        let mut m = TaskMap::default();
        m.insert(TaskId(1), ());
        m.insert(TaskId(1), ());
    }
}
