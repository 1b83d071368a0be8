//! The canonicalizing answer cache: a bounded LRU from [`QueryKey`] to
//! solved [`Answer`]s.
//!
//! The cache keeps no counters. Each mutating method reports what
//! happened (a hit, a torn mapping, an eviction, a reset) and the
//! owning [`crate::BatchEngine`] records it in its metrics registry, the
//! one place engine counters live.
//!
//! Entries store the answer *in the label space of the query that
//! inserted it*, together with that query's renaming into the canonical
//! space. A later alpha-variant hit composes the two renamings to map
//! evidence (countermodel graphs) into its own label space — see
//! [`crate::BatchEngine`] for the adaptation step.

use crate::canon::{QueryKey, Renaming};
use pathcons_cert::Certificate;
use pathcons_core::Answer;
use std::collections::HashMap;

/// A cached answer plus the inserting query's renaming into the
/// canonical label space.
#[derive(Clone, Debug)]
pub struct CachedEntry {
    /// The answer, in the inserting query's label space.
    pub answer: Answer,
    /// Inserting query's labels → canonical labels.
    pub renaming: Renaming,
    /// A checkable certificate for the answer, in the *canonical* label
    /// space and bound to the canonical key's snapshot id — valid for
    /// every alpha-variant that hits this entry. Absent when the
    /// solver's evidence kind has no certificate form.
    pub certificate: Option<Certificate>,
}

const NIL: usize = usize::MAX;

struct Slot {
    key: QueryKey,
    entry: CachedEntry,
    prev: usize,
    next: usize,
}

/// What [`AnswerCache::lookup`] found under a key.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// A live entry (a clone; recency refreshed).
    Found(CachedEntry),
    /// Nothing stored under the key.
    Absent,
    /// A torn mapping — a dead slot, or a slot holding another key —
    /// which was dropped instead of served.
    Torn,
}

/// A bounded LRU cache over canonical query keys.
///
/// Capacity 0 disables caching: every lookup misses and inserts are
/// dropped.
pub struct AnswerCache {
    capacity: usize,
    map: HashMap<QueryKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Set while a structural mutation is in flight; a panic that
    /// unwinds out of a mutating method leaves it set, which is how
    /// [`AnswerCache::recover_after_poison`] tells a torn cache from a
    /// benign lock-holder panic.
    mutating: bool,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            mutating: false,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a canonical key, refreshing recency on a find. A found
    /// entry is returned as a clone (entries stay owned by the cache).
    ///
    /// Defensive against torn state: a mapped index whose slot is dead,
    /// or whose slot stores a *different* key than the map said (the
    /// canonical-key half of the hit-validator), is reported as
    /// [`Lookup::Torn`] — the mapping is dropped rather than served or
    /// panicked on.
    pub fn lookup(&mut self, key: &QueryKey) -> Lookup {
        self.mutating = true;
        let result = match self.map.get(key).copied() {
            Some(idx) => match self.slots.get(idx).and_then(Option::as_ref) {
                Some(slot) if slot.key == *key => {
                    self.unlink(idx);
                    self.push_front(idx);
                    Lookup::Found(
                        self.slots[idx]
                            .as_ref()
                            .expect("slot checked live above")
                            .entry
                            .clone(),
                    )
                }
                _ => {
                    // Torn map entry: never serve it.
                    self.map.remove(key);
                    Lookup::Torn
                }
            },
            None => Lookup::Absent,
        };
        self.mutating = false;
        result
    }

    /// Removes an entry the hit-validator rejected. Returns whether the
    /// key was present.
    pub fn evict_invalid(&mut self, key: &QueryKey) -> bool {
        self.mutating = true;
        let removed = match self.map.remove(key) {
            None => false,
            Some(idx) => {
                if self.slots.get(idx).and_then(Option::as_ref).is_some() {
                    self.unlink(idx);
                    self.slots[idx] = None;
                    self.free.push(idx);
                }
                true
            }
        };
        self.mutating = false;
        removed
    }

    /// Stores an entry, evicting the least-recently-used one if full.
    /// Returns whether an entry was evicted to make room (an overwrite
    /// of a live key evicts nothing).
    pub fn insert(&mut self, key: QueryKey, entry: CachedEntry) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.mutating = true;
        if let Some(idx) = self.map.get(&key).copied() {
            // Overwrite in place (a concurrent miss may have re-solved).
            let slot = self.slots[idx].as_mut().expect("mapped slot is live");
            slot.entry = entry;
            self.unlink(idx);
            self.push_front(idx);
            self.mutating = false;
            return false;
        }
        let evicted = self.map.len() >= self.capacity;
        if evicted {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let slot = self.slots[lru].take().expect("tail slot is live");
            self.map.remove(&slot.key);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(Slot {
            key: key.clone(),
            entry,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
        self.mutating = false;
        evicted
    }

    /// Restores consistency after the enclosing lock was poisoned.
    ///
    /// A panic by a thread that merely *held* the lock leaves the cache
    /// intact, and this is a no-op. A panic that unwound out of a
    /// mutating cache method (the `mutating` marker is still set) may
    /// have torn the LRU list or slot table, so every entry is
    /// discarded and the structure returns to a sound empty state.
    /// Dropping entries is always safe — the cache is a performance
    /// layer, never a source of truth.
    ///
    /// Idempotent, and cheap when nothing is wrong: a `std::sync`
    /// mutex stays poisoned forever once poisoned, so the owning
    /// engine calls this on every post-poison acquisition.
    ///
    /// Returns whether a reset was performed — the owning engine uses
    /// that signal to drop into degraded (read-only) mode.
    pub fn recover_after_poison(&mut self) -> bool {
        if !self.mutating {
            return false;
        }
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.mutating = false;
        true
    }

    /// Marks a structural mutation as in flight without completing it —
    /// the fault-injection hook behind `FaultKind::PoisonedLock`. A
    /// panic taken while this marker is set (and the enclosing lock is
    /// held) reproduces exactly the torn-mid-mutation state that
    /// [`AnswerCache::recover_after_poison`] exists to repair.
    #[doc(hidden)]
    pub fn chaos_begin_torn_mutation(&mut self) {
        self.mutating = true;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let slot = self.slots[idx].as_ref().expect("unlink of live slot");
            (slot.prev, slot.next)
        };
        match prev {
            NIL => {
                if self.head == idx {
                    self.head = next;
                }
            }
            p => self.slots[p].as_mut().expect("prev is live").next = next,
        }
        match next {
            NIL => {
                if self.tail == idx {
                    self.tail = prev;
                }
            }
            n => self.slots[n].as_mut().expect("next is live").prev = prev,
        }
        let slot = self.slots[idx].as_mut().expect("unlink of live slot");
        slot.prev = NIL;
        slot.next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let slot = self.slots[idx].as_mut().expect("push of live slot");
            slot.prev = NIL;
            slot.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("head is live").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Points `key` at `slot` without touching the slot — the torn
    /// mapping a panic mid-insert could leave behind.
    #[cfg(test)]
    pub(crate) fn tear_mapping(&mut self, key: QueryKey, slot: usize) {
        self.map.insert(key, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::ContextKey;
    use pathcons_constraints::{Path, PathConstraint};
    use pathcons_core::{Answer, Evidence, Method, Outcome};
    use pathcons_graph::Label;

    fn key(n: usize) -> QueryKey {
        let l = Label::from_index(n);
        QueryKey {
            context: ContextKey::Semistructured,
            sigma: vec![],
            phi: PathConstraint::forward(Path::empty(), Path::single(l), Path::single(l)),
            revision: 0,
        }
    }

    fn entry() -> CachedEntry {
        CachedEntry {
            answer: Answer {
                outcome: Outcome::Implied(Evidence::WordDerivation),
                method: Method::WordAutomaton,
            },
            renaming: Renaming::new(),
            certificate: None,
        }
    }

    fn found(cache: &mut AnswerCache, n: usize) -> bool {
        matches!(cache.lookup(&key(n)), Lookup::Found(_))
    }

    #[test]
    fn lookups_and_inserts_report_finds_and_evictions() {
        let mut cache = AnswerCache::new(2);
        assert!(matches!(cache.lookup(&key(0)), Lookup::Absent));
        assert!(!cache.insert(key(0), entry()));
        assert!(!cache.insert(key(1), entry()));
        assert!(found(&mut cache, 0));
        assert!(cache.insert(key(2), entry()), "evicts key(1), the LRU");
        assert!(matches!(cache.lookup(&key(1)), Lookup::Absent));
        assert!(found(&mut cache, 0));
        assert!(found(&mut cache, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_order_tracks_recency_across_churn() {
        let mut cache = AnswerCache::new(3);
        for i in 0..3 {
            cache.insert(key(i), entry());
        }
        // Touch 0 and 1; 2 becomes LRU.
        assert!(found(&mut cache, 0));
        assert!(found(&mut cache, 1));
        cache.insert(key(3), entry());
        assert!(!found(&mut cache, 2));
        // Slot reuse: keep churning well past capacity.
        for i in 4..40 {
            assert!(cache.insert(key(i), entry()), "a full cache evicts");
        }
        assert_eq!(cache.len(), 3);
        assert!(found(&mut cache, 39));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = AnswerCache::new(0);
        assert!(!cache.insert(key(0), entry()));
        assert!(matches!(cache.lookup(&key(0)), Lookup::Absent));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn poison_recovery_resets_only_after_a_torn_mutation() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), entry());

        // Consistent cache (no mutation in flight): recovery is a no-op.
        assert!(!cache.recover_after_poison());
        assert_eq!(cache.len(), 1);

        // Simulate a panic that unwound out of a mutating method.
        cache.mutating = true;
        assert!(cache.recover_after_poison());
        assert_eq!(cache.len(), 0, "a torn cache is cleared");

        // Idempotent: a second recovery on the now-sound cache does
        // nothing (the poisoned mutex makes this the common path).
        assert!(!cache.recover_after_poison());

        // And the cleared cache accepts fresh entries.
        cache.insert(key(1), entry());
        assert!(found(&mut cache, 1));
    }

    #[test]
    fn evict_invalid_removes_entry_and_reports_it() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), entry());
        cache.insert(key(1), entry());
        assert!(cache.evict_invalid(&key(0)));
        assert!(!cache.evict_invalid(&key(0)), "second eviction is a no-op");
        assert_eq!(cache.len(), 1);
        assert!(!found(&mut cache, 0));
        assert!(found(&mut cache, 1));
        // The freed slot is reusable.
        cache.insert(key(2), entry());
        assert!(found(&mut cache, 2));
    }

    #[test]
    fn torn_map_entries_miss_instead_of_panicking() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), entry());
        // Tear the map: point a key at a slot index that was never
        // allocated (as a panic mid-insert could).
        cache.map.insert(key(7), 999);
        assert!(matches!(cache.lookup(&key(7)), Lookup::Torn));
        assert!(!cache.map.contains_key(&key(7)), "torn mapping dropped");
        assert!(matches!(cache.lookup(&key(7)), Lookup::Absent));
        // Tear differently: map key(8) at key(0)'s slot (key mismatch).
        let idx0 = *cache.map.get(&key(0)).unwrap();
        cache.map.insert(key(8), idx0);
        assert!(matches!(cache.lookup(&key(8)), Lookup::Torn));
        // The legitimate entry is untouched throughout.
        assert!(found(&mut cache, 0));
    }

    #[test]
    fn overwrite_keeps_single_entry() {
        let mut cache = AnswerCache::new(2);
        cache.insert(key(0), entry());
        assert!(
            !cache.insert(key(0), entry()),
            "an overwrite evicts nothing"
        );
        assert_eq!(cache.len(), 1);
    }
}
