//! A persistent hash map: a hash array mapped trie whose nodes sit
//! behind `Arc`.
//!
//! Cloning a [`PMap`] is one reference-count bump. Writing to a map
//! that shares nodes with a clone copies only the nodes on the path
//! from the root to the key — at most 14 nodes of at most 32 slots,
//! about 4 at a million keys — and every other node stays shared.
//! Hash indexes and the policy server's catalog use it, so a
//! copy-on-write fork of either costs in proportion to what the writer
//! changes, not to what the map holds.
//!
//! Each level consumes 5 bits of the key's 64-bit hash. A slot holds
//! either one entry or a child node; two keys whose hashes agree in all
//! 64 bits share a collision node, searched linearly. Nodes are sized
//! exactly to their slots and entries do not store their hash (a split
//! rehashes the one entry it moves), which keeps an entry within a few
//! bytes of its key and value. Iteration follows the hash, whose keys
//! differ between processes, so callers that need an order sort.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, OnceLock};

/// Hash bits consumed per trie level.
const BITS: u32 = 5;

/// A persistent hash map (see the module docs).
pub struct PMap<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

struct Node<K, V> {
    /// Bit `i` set ⇒ a slot for hash fragment `i` exists; `slots` holds
    /// the present ones in fragment order. Zero in a collision node.
    bitmap: u32,
    slots: Vec<Slot<K, V>>,
}

enum Slot<K, V> {
    Entry(K, V),
    Child(Arc<Node<K, V>>),
}

/// Keys come from outside the program (policy content, names), so the
/// hash keeps the standard library's per-process random keys, as
/// `HashMap` does.
fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new).hash_one(key)
}

/// The slot bit for `hash` at trie depth `shift`; `None` once all 64
/// bits are consumed (a collision node).
fn slot_bit(hash: u64, shift: u32) -> Option<u32> {
    (shift < u64::BITS).then(|| 1 << ((hash >> shift) & ((1 << BITS) - 1)))
}

impl<K, V> Node<K, V> {
    fn empty() -> Node<K, V> {
        Node {
            bitmap: 0,
            slots: Vec::new(),
        }
    }

    /// Dense position of the slot for `bit`.
    fn index(&self, bit: u32) -> usize {
        (self.bitmap & (bit - 1)).count_ones() as usize
    }

    /// The slot for `bit`, when present.
    fn slot(&self, bit: u32) -> Option<&Slot<K, V>> {
        (self.bitmap & bit != 0).then(|| &self.slots[self.index(bit)])
    }
}

impl<K: Clone, V: Clone> Clone for Slot<K, V> {
    fn clone(&self) -> Self {
        match self {
            Slot::Entry(key, value) => Slot::Entry(key.clone(), value.clone()),
            Slot::Child(child) => Slot::Child(Arc::clone(child)),
        }
    }
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        Node {
            bitmap: self.bitmap,
            slots: self.slots.clone(),
        }
    }
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap {
            root: Arc::new(Node::empty()),
            len: 0,
        }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> PMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry, in hash order (which differs between processes).
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: vec![self.root.slots.iter()],
        }
    }

    /// Entries held in nodes of `self` that `other` does not share, with
    /// nodes compared by `Arc` pointer at the same trie position. For a
    /// map forked from `other` this is what its writes copied since.
    pub fn unshared_entries(&self, other: &PMap<K, V>) -> usize {
        fn walk<K, V>(a: &Arc<Node<K, V>>, b: Option<&Arc<Node<K, V>>>) -> usize {
            if b.is_some_and(|b| Arc::ptr_eq(a, b)) {
                return 0;
            }
            let mut bits = a.bitmap;
            let mut count = 0;
            for slot in &a.slots {
                // The lowest remaining bit is this slot's (0 in a
                // collision node, which holds entries only).
                let bit = bits & bits.wrapping_neg();
                bits &= bits.wrapping_sub(1);
                count += match slot {
                    Slot::Entry(..) => 1,
                    Slot::Child(child) => {
                        let twin = match b.and_then(|b| b.slot(bit)) {
                            Some(Slot::Child(twin)) => Some(twin),
                            _ => None,
                        };
                        walk(child, twin)
                    }
                };
            }
            count
        }
        walk(&self.root, Some(&other.root))
    }
}

impl<K: Hash + Eq, V> PMap<K, V> {
    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = hash_of(key);
        let mut node = &*self.root;
        let mut shift = 0;
        loop {
            let Some(bit) = slot_bit(hash, shift) else {
                return node.slots.iter().find_map(|slot| match slot {
                    Slot::Entry(k, value) if k.borrow() == key => Some(value),
                    _ => None,
                });
            };
            match node.slot(bit)? {
                Slot::Entry(k, value) => return (k.borrow() == key).then_some(value),
                Slot::Child(child) => {
                    node = child;
                    shift += BITS;
                }
            }
        }
    }

    /// True when `key` has an entry.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PMap<K, V> {
    /// The value under `key`, inserting `default()` first when the key
    /// is absent. Copies the shared nodes on the key's path.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let hash = hash_of(&key);
        entry(&mut self.root, hash, 0, key, default, &mut self.len)
    }

    /// Insert or replace the value under `key`.
    pub fn insert(&mut self, key: K, value: V) {
        let mut value = Some(value);
        let slot = self.get_or_insert_with(key, || value.take().expect("fresh"));
        if let Some(value) = value {
            *slot = value;
        }
    }

    /// Remove `key`, returning its value. An absent key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        let removed = remove(&mut self.root, hash_of(key), 0, key);
        self.len -= 1;
        removed
    }
}

fn entry<'a, K: Hash + Eq + Clone, V: Clone>(
    node: &'a mut Arc<Node<K, V>>,
    hash: u64,
    shift: u32,
    key: K,
    default: impl FnOnce() -> V,
    len: &mut usize,
) -> &'a mut V {
    let node = Arc::make_mut(node);
    let Some(bit) = slot_bit(hash, shift) else {
        let found = node
            .slots
            .iter()
            .position(|slot| matches!(slot, Slot::Entry(k, _) if *k == key));
        let pos = found.unwrap_or_else(|| {
            *len += 1;
            node.slots.reserve_exact(1);
            node.slots.push(Slot::Entry(key, default()));
            node.slots.len() - 1
        });
        return entry_value(&mut node.slots[pos]);
    };
    let idx = node.index(bit);
    if node.bitmap & bit == 0 {
        *len += 1;
        node.bitmap |= bit;
        node.slots.reserve_exact(1);
        node.slots.insert(idx, Slot::Entry(key, default()));
        return entry_value(&mut node.slots[idx]);
    }
    if matches!(&node.slots[idx], Slot::Entry(k, _) if *k != key) {
        // Push the resident entry one level down; the new key then
        // descends next to it.
        let resident = node.slots.remove(idx);
        let Slot::Entry(k, _) = &resident else {
            unreachable!("only an entry is displaced");
        };
        let child = Node {
            bitmap: slot_bit(hash_of(k), shift + BITS).unwrap_or(0),
            slots: vec![resident],
        };
        node.slots.insert(idx, Slot::Child(Arc::new(child)));
    }
    match &mut node.slots[idx] {
        Slot::Child(child) => entry(child, hash, shift + BITS, key, default, len),
        slot => entry_value(slot),
    }
}

fn entry_value<K, V>(slot: &mut Slot<K, V>) -> &mut V {
    match slot {
        Slot::Entry(_, value) => value,
        Slot::Child(_) => unreachable!("an entry slot"),
    }
}

/// Remove a key known to be present; prunes nodes left empty.
fn remove<K, V, Q>(node: &mut Arc<Node<K, V>>, hash: u64, shift: u32, key: &Q) -> Option<V>
where
    K: Hash + Eq + Clone + Borrow<Q>,
    V: Clone,
    Q: Hash + Eq + ?Sized,
{
    let node = Arc::make_mut(node);
    let Some(bit) = slot_bit(hash, shift) else {
        let pos = node
            .slots
            .iter()
            .position(|slot| matches!(slot, Slot::Entry(k, _) if k.borrow() == key))?;
        let Slot::Entry(_, value) = node.slots.remove(pos) else {
            unreachable!("a collision node holds entries only");
        };
        return Some(value);
    };
    let idx = node.index(bit);
    let removed = match &mut node.slots[idx] {
        Slot::Child(child) => {
            let removed = remove(child, hash, shift + BITS, key);
            if !child.slots.is_empty() {
                return removed;
            }
            removed
        }
        Slot::Entry(..) => None,
    };
    let slot = node.slots.remove(idx);
    node.bitmap &= !bit;
    match slot {
        Slot::Entry(_, value) => Some(value),
        Slot::Child(_) => removed,
    }
}

/// Iterator over a map's entries, in hash order.
pub struct Iter<'a, K, V> {
    stack: Vec<std::slice::Iter<'a, Slot<K, V>>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.last_mut()?.next() {
                None => {
                    self.stack.pop();
                }
                Some(Slot::Entry(key, value)) => return Some((key, value)),
                Some(Slot::Child(child)) => self.stack.push(child.slots.iter()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A key type whose hash the test picks, to force full 64-bit
    /// collisions and shared prefixes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Forced(u64, u32);

    impl Hash for Forced {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }

    #[test]
    fn behaves_like_a_hash_map_under_inserts_and_removes() {
        let mut map: PMap<u64, u64> = PMap::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 3_000;
            if step % 3 == 0 {
                assert_eq!(map.remove(&key), model.remove(&key), "remove {key}");
            } else {
                *map.get_or_insert_with(key, || 0) += step;
                *model.entry(key).or_insert(0) += step;
            }
            assert_eq!(map.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(v));
        }
        let mut seen: Vec<(u64, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let mut want: Vec<(u64, u64)> = model.into_iter().collect();
        seen.sort_unstable();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn full_hash_collisions_keep_distinct_keys() {
        let mut map: PMap<Forced, u32> = PMap::default();
        for i in 0..5 {
            map.insert(Forced(7, i), i);
        }
        map.insert(Forced(8, 0), 99);
        assert_eq!(map.len(), 6);
        for i in 0..5 {
            assert_eq!(map.get(&Forced(7, i)), Some(&i));
        }
        assert_eq!(map.remove(&Forced(7, 2)), Some(2));
        assert_eq!(map.get(&Forced(7, 2)), None);
        assert_eq!(map.get(&Forced(7, 3)), Some(&3));
        assert_eq!(map.get(&Forced(8, 0)), Some(&99));
        assert_eq!(map.iter().count(), 5);
    }

    #[test]
    fn a_fork_copies_only_the_written_path() {
        let mut map: PMap<u64, u64> = PMap::default();
        for k in 0..100_000 {
            map.insert(k, k);
        }
        let snapshot = map.clone();
        assert_eq!(map.unshared_entries(&snapshot), 0);
        map.insert(100_000, 0);
        *map.get_or_insert_with(5, || 0) += 1;
        // Two paths of at most 32 slots per node were copied.
        let copied = map.unshared_entries(&snapshot);
        assert!((2..=2 * 32).contains(&copied), "copied {copied}");
        // The snapshot still reads the old version.
        assert_eq!(snapshot.get(&5), Some(&5));
        assert_eq!(map.get(&5), Some(&6));
        assert_eq!(snapshot.get(&100_000), None);
        assert_eq!((map.len(), snapshot.len()), (100_001, 100_000));
        // Removing an absent key copies nothing more.
        assert_eq!(map.remove(&u64::MAX), None);
        assert_eq!(map.unshared_entries(&snapshot), copied);
    }
}
