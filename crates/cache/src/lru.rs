//! Exact LRU lists in a slab, with a key → node index.
//!
//! The one primitive behind the two places `gcr-cache` needs an LRU stack
//! too deep to scan: the fully-associative capacity sweep
//! ([`CapacitySweepSink`](crate::CapacitySweepSink), one list of up to the
//! largest capacity) and wide hierarchy levels
//! ([`MultiLevelCache`](crate::MultiLevelCache) levels with more than 64
//! ways, one list per set). Nodes live in one `Vec` and link by `u32`
//! index (`prev`/`next` in recency order, `chain` within a hash bucket),
//! so moving a line to the front, dropping it or recycling the
//! least-recently-used node for a new line are a fixed number of index
//! writes: no scan, no memmove, no allocation once the slab has grown to
//! its owner's capacity.
//!
//! A slab holds any number of lists. List `l` is the circular list around
//! sentinel node `l`, so its most-recently-used node is `head(l)` and its
//! least-recently-used node is `tail(l)`, both equal to `l` itself while
//! the list is empty. Keys are unique across the whole slab (the owners
//! use line numbers), so one index serves every list. Each node carries a
//! `tag` word for its owner: the capacity region in the sweep, the dirty
//! bit in a cache level.

/// "No node" in a link or bucket.
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
    /// Next node in the same hash bucket; doubles as the free-list link.
    chain: u32,
    tag: u32,
}

/// LRU lists over one slab of nodes; see the module documentation.
#[derive(Clone, Debug)]
pub(crate) struct LruSlab {
    nodes: Vec<Node>,
    /// Bucket heads, a power-of-two count kept at ≥ 2× the slab length.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
    lists: u32,
    free: u32,
}

impl LruSlab {
    /// A slab with `lists` empty lists, numbered from 0.
    pub(crate) fn new(lists: usize) -> Self {
        let lists = u32::try_from(lists).expect("list count fits the u32 node index");
        let nodes = (0..lists)
            .map(|l| Node { key: u64::MAX, prev: l, next: l, chain: NIL, tag: 0 })
            .collect();
        LruSlab { nodes, buckets: vec![NIL; 16], shift: 60, lists, free: NIL }
    }

    /// Most-recently-used node of `list` (`list` itself when empty).
    #[inline]
    pub(crate) fn head(&self, list: u32) -> u32 {
        self.nodes[list as usize].next
    }

    /// Least-recently-used node of `list` (`list` itself when empty).
    #[inline]
    pub(crate) fn tail(&self, list: u32) -> u32 {
        self.nodes[list as usize].prev
    }

    /// The neighbour of `i` on the more recent side.
    #[inline]
    pub(crate) fn prev(&self, i: u32) -> u32 {
        self.nodes[i as usize].prev
    }

    /// The neighbour of `i` on the less recent side.
    #[inline]
    pub(crate) fn next(&self, i: u32) -> u32 {
        self.nodes[i as usize].next
    }

    #[inline]
    pub(crate) fn key(&self, i: u32) -> u64 {
        self.nodes[i as usize].key
    }

    #[inline]
    pub(crate) fn tag(&self, i: u32) -> u32 {
        self.nodes[i as usize].tag
    }

    #[inline]
    pub(crate) fn set_tag(&mut self, i: u32, tag: u32) {
        self.nodes[i as usize].tag = tag;
    }

    /// Nodes the slab has ever allocated, sentinels included: its memory.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// True when `key` is the most recently used line of `list`. Repeated
    /// touches of one line (the common case on unit-stride strips) stop
    /// here, before the hash.
    #[inline]
    pub(crate) fn head_is(&self, list: u32, key: u64) -> bool {
        let h = self.head(list);
        h != list && self.nodes[h as usize].key == key
    }

    /// The node holding `key`, through the index.
    #[inline]
    pub(crate) fn lookup(&self, key: u64) -> Option<u32> {
        let mut i = self.buckets[self.bucket(key)];
        while i != NIL {
            let n = &self.nodes[i as usize];
            if n.key == key {
                return Some(i);
            }
            i = n.chain;
        }
        None
    }

    /// The node holding `key`, probing the head of `list` (where `key`
    /// would live) before the index.
    #[inline]
    pub(crate) fn find(&self, list: u32, key: u64) -> Option<u32> {
        if self.head_is(list, key) {
            return Some(self.head(list));
        }
        self.lookup(key)
    }

    /// Makes resident node `i` the most recently used of `list`.
    #[inline]
    pub(crate) fn move_to_front(&mut self, list: u32, i: u32) {
        self.unlink(i);
        self.link_front(list, i);
    }

    /// Adds `key` (not resident) as the most recently used line of `list`.
    pub(crate) fn insert_front(&mut self, list: u32, key: u64, tag: u32) -> u32 {
        let node = Node { key, prev: NIL, next: NIL, chain: NIL, tag };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].chain;
            self.nodes[i as usize] = node;
            i
        } else {
            assert!(self.nodes.len() < NIL as usize, "resident lines fit the u32 node index");
            let i = self.nodes.len() as u32;
            self.nodes.push(node);
            if self.nodes.len() * 2 > self.buckets.len() {
                self.grow_index();
            }
            i
        };
        self.index_insert(i);
        self.link_front(list, i);
        i
    }

    /// Recycles resident node `i` (the owner's eviction victim) for `key`
    /// (not resident), most recently used of `list`.
    #[inline]
    pub(crate) fn rekey_front(&mut self, list: u32, i: u32, key: u64, tag: u32) {
        self.index_remove(i);
        self.nodes[i as usize].key = key;
        self.nodes[i as usize].tag = tag;
        self.index_insert(i);
        self.move_to_front(list, i);
    }

    /// Drops resident node `i`.
    pub(crate) fn remove(&mut self, i: u32) {
        self.index_remove(i);
        self.unlink(i);
        self.nodes[i as usize].chain = self.free;
        self.free = i;
    }

    #[inline]
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    #[inline]
    fn link_front(&mut self, list: u32, i: u32) {
        let old = self.nodes[list as usize].next;
        self.nodes[i as usize].prev = list;
        self.nodes[i as usize].next = old;
        self.nodes[old as usize].prev = i;
        self.nodes[list as usize].next = i;
    }

    /// Fibonacci hashing: line numbers are dense and strided, so the
    /// multiply spreads what a mask would pile into a few buckets.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn index_insert(&mut self, i: u32) {
        let b = self.bucket(self.nodes[i as usize].key);
        self.nodes[i as usize].chain = self.buckets[b];
        self.buckets[b] = i;
    }

    #[inline]
    fn index_remove(&mut self, i: u32) {
        let b = self.bucket(self.nodes[i as usize].key);
        let after = self.nodes[i as usize].chain;
        if self.buckets[b] == i {
            self.buckets[b] = after;
            return;
        }
        let mut p = self.buckets[b];
        while self.nodes[p as usize].chain != i {
            p = self.nodes[p as usize].chain;
        }
        self.nodes[p as usize].chain = after;
    }

    /// Doubles the bucket array and re-threads every resident node. The
    /// lists, not the slab, are walked: free nodes are in no bucket.
    fn grow_index(&mut self) {
        self.shift -= 1;
        self.buckets = vec![NIL; self.buckets.len() * 2];
        for list in 0..self.lists {
            let mut i = self.head(list);
            while i != list {
                self.index_insert(i);
                i = self.nodes[i as usize].next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(l: &LruSlab, list: u32) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = l.head(list);
        while i != list {
            out.push(l.key(i));
            i = l.next(i);
        }
        out
    }

    #[test]
    fn recency_order_and_index_follow_every_operation() {
        let mut l = LruSlab::new(2);
        assert_eq!((l.head(0), l.tail(1)), (0, 1), "empty lists are their sentinels");
        assert!(!l.head_is(0, u64::MAX), "the sentinel's key is not a resident line");
        for k in 0..5 {
            l.insert_front(0, k, 0);
            l.insert_front(1, 100 + k, 7);
        }
        assert_eq!(keys(&l, 0), [4, 3, 2, 1, 0]);
        assert_eq!(keys(&l, 1), [104, 103, 102, 101, 100]);
        let two = l.find(0, 2).unwrap();
        l.move_to_front(0, two);
        assert_eq!(keys(&l, 0), [2, 4, 3, 1, 0]);
        assert!(l.head_is(0, 2));
        let lru = l.tail(0);
        assert_eq!(l.key(lru), 0);
        l.rekey_front(0, lru, 9, 1);
        assert_eq!(keys(&l, 0), [9, 2, 4, 3, 1]);
        assert_eq!((l.lookup(0), l.tag(l.lookup(9).unwrap())), (None, 1));
        l.remove(l.lookup(4).unwrap());
        assert_eq!(keys(&l, 0), [9, 2, 3, 1]);
        assert_eq!(l.lookup(4), None);
        assert_eq!(keys(&l, 1), [104, 103, 102, 101, 100], "the other list is untouched");
        let before = l.slab_len();
        l.insert_front(1, 4, 0);
        assert_eq!(l.slab_len(), before, "a freed node is reused before the slab grows");
        assert_eq!(keys(&l, 1), [4, 104, 103, 102, 101, 100]);
    }

    #[test]
    fn index_survives_growth_and_colliding_strides() {
        let mut l = LruSlab::new(1);
        // Power-of-two strides are what a masked index would collapse.
        let key = |k: u64| k << 20;
        for k in 0..1000 {
            l.insert_front(0, key(k), k as u32);
        }
        for k in (0..1000).step_by(3) {
            l.remove(l.lookup(key(k)).unwrap());
        }
        for k in 0..1000 {
            let got = l.lookup(key(k)).map(|i| l.tag(i));
            assert_eq!(got, (k % 3 != 0).then_some(k as u32), "key {k}");
        }
        assert_eq!(keys(&l, 0).len(), 666);
    }
}
