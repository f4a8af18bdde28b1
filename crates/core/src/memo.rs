//! Transposition memoization for the CAPS search.
//!
//! The DFS reaches the same *state* — layer boundary plus a multiset of
//! per-worker (free slots, exact loads, open-edge task counts) — through
//! many different prefixes, because the per-layer symmetry elimination in
//! [`capsys_model::PlanEnumerator`] cannot see equivalences that only
//! emerge across layers. A state whose subtree was fully explored and
//! yielded **zero** reachable leaves (every branch died on the load
//! bound) is a *dead end*; any later prefix reaching an equal state is
//! dead too and can be skipped without changing the feasible plan set,
//! the stored plans, or the `plans_found` statistic. Only deadness is
//! memoized — live subtrees are always re-explored, so the enumeration
//! of feasible plans stays exact.
//!
//! [`MemoTable`] is a bounded, lock-free, insert-only hash table shared
//! across the work-stealing threads (§5.1). Each slot pairs an atomic
//! tag (the 64-bit state hash) with a write-once cell holding the full
//! **verify key** — the canonical state serialized as `u64` words. A
//! lookup only hits when the verify key matches word-for-word, so a hash
//! collision can never skip a live subtree (see
//! `collision_on_hash_does_not_hit`). When the table or a probe window
//! fills up, further inserts are dropped: the table is a cache, and
//! forgetting a dead end only costs time, never correctness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use capsys_model::fnv1a64_word;

/// Slots in the table. Power of two; the empty table is one allocation
/// of fixed size, bounding memory no matter how large the search space
/// is.
const CAPACITY: usize = 1 << 14;

/// Linear-probe window. Beyond this many occupied neighbours an insert
/// is dropped rather than displacing anything.
const PROBE: usize = 8;

/// Everything the search needs to memoize one run: the shared table plus
/// the per-layer static gates derived from the operator order.
pub(crate) struct MemoSetup {
    /// The shared dead-state table.
    pub table: MemoTable,
    /// `layer_ok[l]` — whether states at layer `l` may be memoized. A
    /// layer is gated off when a placed operator keeps a one-to-one edge
    /// to a still-unplaced one: those deltas depend on task-index
    /// alignment, which per-worker *counts* cannot canonicalize.
    pub layer_ok: Vec<bool>,
    /// `open_ops[l]` — the placed operators whose per-worker task counts
    /// future deltas still read (mesh edges into the unplaced suffix),
    /// and which therefore belong in the state key at layer `l`.
    pub open_ops: Vec<Vec<usize>>,
}

/// FNV-1a over a word slice, starting from the standard offset basis.
pub(crate) fn fnv1a64(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| fnv1a64_word(h, w))
}

/// A bounded, insert-only, lock-free dead-state table.
pub(crate) struct MemoTable {
    /// State hash per slot; `0` means "nothing published here yet".
    tags: Vec<AtomicU64>,
    /// The verify key per slot. A slot is *claimed* by setting its cell;
    /// the tag is published afterwards, so a reader that sees the tag
    /// (Acquire) also sees the key it hashes.
    keys: Vec<OnceLock<Box<[u64]>>>,
}

impl MemoTable {
    pub(crate) fn new() -> MemoTable {
        MemoTable {
            tags: (0..CAPACITY).map(|_| AtomicU64::new(0)).collect(),
            keys: (0..CAPACITY).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `0` is the empty-slot sentinel, so real hashes avoid it.
    fn tag_of(hash: u64) -> u64 {
        if hash == 0 {
            1
        } else {
            hash
        }
    }

    /// Cheap pre-check: could any slot hold `hash`? A `false` answer is
    /// definitive; a `true` answer must be confirmed by
    /// [`MemoTable::contains`] with the full verify key. Lets the search
    /// skip building the (allocating, sorting) verify key on the vastly
    /// more common miss path.
    pub(crate) fn maybe_contains(&self, hash: u64) -> bool {
        let tag = Self::tag_of(hash);
        let mask = CAPACITY - 1;
        (0..PROBE).any(|i| {
            let slot = (hash as usize).wrapping_add(i) & mask;
            self.tags[slot].load(Ordering::Acquire) == tag
        })
    }

    /// Is `key` recorded as a dead state?
    ///
    /// Hits only on an exact verify-key match; equal hashes with
    /// different keys are treated as misses.
    pub(crate) fn contains(&self, hash: u64, key: &[u64]) -> bool {
        let tag = Self::tag_of(hash);
        let mask = CAPACITY - 1;
        (0..PROBE).any(|i| {
            let slot = (hash as usize).wrapping_add(i) & mask;
            // Insertion fills windows front-to-back only in the absence
            // of races; an in-flight claim may leave a transient hole
            // (or a claimed but untagged slot), so probe the whole
            // window.
            self.tags[slot].load(Ordering::Acquire) == tag
                && self.keys[slot].get().is_some_and(|k| **k == *key)
        })
    }

    /// Records `key` as a dead state. Best-effort: if every slot in the
    /// probe window is taken, the entry is silently dropped.
    pub(crate) fn insert(&self, hash: u64, key: Vec<u64>) {
        let tag = Self::tag_of(hash);
        let mask = CAPACITY - 1;
        let mut key = key.into_boxed_slice();
        for i in 0..PROBE {
            let slot = (hash as usize).wrapping_add(i) & mask;
            let seen = self.tags[slot].load(Ordering::Acquire);
            if seen == tag {
                if self.keys[slot].get().is_some_and(|k| *k == key) {
                    // Another thread proved the same state dead first.
                    return;
                }
                continue;
            }
            if seen != 0 {
                continue;
            }
            match self.keys[slot].set(key) {
                Ok(()) => {
                    // Slot claimed; publish the tag so readers find it.
                    self.tags[slot].store(tag, Ordering::Release);
                    return;
                }
                // Lost the claim race; try the next slot with the same
                // allocation.
                Err(back) => key = back,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains_roundtrips() {
        let t = MemoTable::new();
        let key = vec![3u64, 1, 4, 1, 5];
        assert!(!t.contains(42, &key));
        t.insert(42, key.clone());
        assert!(t.contains(42, &key));
    }

    #[test]
    fn collision_on_hash_does_not_hit() {
        // Two distinct states crafted to share a hash: the verify key
        // must keep them apart, so a hit can never skip a live subtree
        // that merely collides with a dead one.
        let t = MemoTable::new();
        let dead = vec![1u64, 2, 3];
        let live = vec![9u64, 9, 9];
        t.insert(0xDEAD_BEEF, dead.clone());
        assert!(t.contains(0xDEAD_BEEF, &dead));
        assert!(
            !t.contains(0xDEAD_BEEF, &live),
            "hash collision must verify-miss"
        );
        // Both colliding states can coexist in the probe window.
        t.insert(0xDEAD_BEEF, live.clone());
        assert!(t.contains(0xDEAD_BEEF, &live));
        assert!(t.contains(0xDEAD_BEEF, &dead));
    }

    #[test]
    fn zero_hash_is_distinguished_from_empty() {
        let t = MemoTable::new();
        assert!(!t.contains(0, &[7]));
        t.insert(0, vec![7]);
        assert!(t.contains(0, &[7]));
        assert!(!t.contains(0, &[8]));
    }

    #[test]
    fn overflowing_a_probe_window_drops_silently() {
        let t = MemoTable::new();
        // More distinct keys on one hash than the window holds.
        for i in 0..(PROBE as u64 + 4) {
            t.insert(77, vec![i]);
        }
        // The first PROBE entries are retained, later ones dropped.
        for i in 0..PROBE as u64 {
            assert!(t.contains(77, &[i]), "entry {i} should be present");
        }
        assert!(!t.contains(77, &[PROBE as u64 + 2]));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let t = MemoTable::new();
        for _ in 0..100 {
            t.insert(5, vec![1, 2]);
        }
        assert!(t.contains(5, &[1, 2]));
        // The duplicates must not have flooded the window.
        t.insert(5, vec![3, 4]);
        assert!(t.contains(5, &[3, 4]));
    }

    #[test]
    fn concurrent_inserts_and_lookups_agree() {
        let t = std::sync::Arc::new(MemoTable::new());
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = vec![tid, i];
                    let hash = tid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
                    t.insert(hash, key.clone());
                    assert!(t.contains(hash, &key));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
