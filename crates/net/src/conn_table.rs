//! One connection table per network: every TCP endpoint a [`crate::Network`]
//! hosts lives in one slab, found through one demultiplexing map.
//!
//! An endpoint is keyed by the directional [`FlowId`] of the packets it
//! *receives*: the acceptor gets the opener's packets, which carry the
//! canonical id, and the opener gets the acceptor's, which carry the
//! reversed one. So the two ends of a flow never share a key, and an
//! arriving packet finds its endpoint with the id it already carries.
//!
//! A key leads to a *slot*, the endpoint's index in the slab, which stays
//! put for the endpoint's whole life: a handler looks the key up once and
//! hands the slot on. A slot freed by a closing endpoint is reused by the
//! next one to open, and its *generation* counts how often that happened,
//! so a `(slot, generation)` pair — what a timer event carries — names one
//! endpoint and never its successor.
//!
//! The map hashes with a fixed multiplier (Fibonacci hashing) and no
//! per-process seed: the keys are flow ids the simulator assigns itself,
//! not input an adversary picks, and a table whose layout repeats from run
//! to run keeps its cost reproducible. The multiply matters because flow
//! ids are allocated in blocks of consecutive integers, which an identity
//! hash would pile into neighbouring buckets.

use crate::types::FlowId;

/// Slab of connections with a free list, plus the demux map over it.
#[derive(Clone)]
pub(crate) struct ConnTable<C> {
    slots: Vec<Slot<C>>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
    demux: Demux,
}

#[derive(Clone)]
struct Slot<C> {
    generation: u32,
    key: FlowId,
    conn: Option<C>,
}

/// Where [`ConnTable::find`] would put a key it did not find; spent by
/// [`ConnTable::insert`].
#[derive(Debug)]
pub(crate) struct Vacancy(usize);

impl<C> ConnTable<C> {
    pub(crate) fn new() -> Self {
        ConnTable {
            slots: Vec::new(),
            free: Vec::new(),
            demux: Demux::new(),
        }
    }

    /// The slot of the live connection keyed `key`, or where to insert one.
    #[inline]
    pub(crate) fn find(&self, key: FlowId) -> Result<u32, Vacancy> {
        match self.demux.position(key.0) {
            Ok(bucket) => Ok(self.demux.buckets[bucket].1),
            Err(bucket) => Err(Vacancy(bucket)),
        }
    }

    /// Opens `conn` under `key` at the vacancy `find(key)` just returned
    /// (the table unchanged since); returns its slot.
    pub(crate) fn insert(&mut self, at: Vacancy, key: FlowId, conn: C) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                (s.key, s.conn) = (key, Some(conn));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != EMPTY)
                    .expect("connection table holds fewer than 2^32 - 1 slots");
                self.slots.push(Slot {
                    generation: 0,
                    key,
                    conn: Some(conn),
                });
                slot
            }
        };
        self.demux.fill(at.0, key.0, slot);
        slot
    }

    /// Opens `conn` under `key`; returns its slot.
    ///
    /// # Panics
    /// Panics if a live connection already has that key.
    pub(crate) fn open(&mut self, key: FlowId, conn: C) -> u32 {
        match self.find(key) {
            Err(at) => self.insert(at, key, conn),
            Ok(_) => panic!("duplicate connection {key:?}"),
        }
    }

    /// The live connection in `slot`, with its key and the slot's
    /// generation (how often it has been vacated).
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> (FlowId, u32, &mut C) {
        let s = &mut self.slots[slot as usize];
        let conn = s.conn.as_mut().expect("live connection");
        (s.key, s.generation, conn)
    }

    /// The connection in `slot` if it is still the one `generation` names.
    #[inline]
    pub(crate) fn live_mut(&mut self, slot: u32, generation: u32) -> Option<&mut C> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.generation != generation {
            return None;
        }
        s.conn.as_mut()
    }

    /// Closes the connection in `slot` and returns it; the slot goes to the
    /// free list under its next generation.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    pub(crate) fn close(&mut self, slot: u32) -> C {
        let s = &mut self.slots[slot as usize];
        let conn = s.conn.take().expect("live connection");
        s.generation = s.generation.wrapping_add(1);
        self.demux.remove(s.key.0);
        self.free.push(slot);
        conn
    }

    /// Closes every live connection, returning them in slot order.
    pub(crate) fn drain(&mut self) -> Vec<C> {
        let live: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&slot| self.slots[slot as usize].conn.is_some())
            .collect();
        live.into_iter().map(|slot| self.close(slot)).collect()
    }

    /// Every live connection, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &C> {
        self.slots.iter().filter_map(|s| s.conn.as_ref())
    }

    /// Live connections.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.demux.len
    }

    /// The most connections ever open at once. A slot is only added when
    /// none is free, so this is the slab's length.
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes the slab, its free list and the demux map hold.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Slot<C>>()
            + self.free.capacity() * size_of::<u32>()
            + self.demux.buckets.capacity() * size_of::<(u64, u32)>()
    }
}

/// Marks a free bucket.
const EMPTY: u32 = u32::MAX;

/// Open-addressing map from key to slot: linear probing, at most half
/// full, deletion by backward shift (no tombstones).
#[derive(Clone)]
struct Demux {
    /// `(key, slot)`, `slot == EMPTY` when free. The length is a power of
    /// two, and `shift` is 64 minus its log2.
    buckets: Vec<(u64, u32)>,
    shift: u32,
    len: usize,
}

impl Demux {
    const MIN_BUCKETS: usize = 16;

    fn new() -> Self {
        Demux::with_buckets(Self::MIN_BUCKETS)
    }

    fn with_buckets(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        Demux {
            buckets: vec![(0, EMPTY); n],
            shift: 64 - n.trailing_zeros(),
            len: 0,
        }
    }

    /// The bucket `key`'s probe starts at: the top bits of the key times
    /// 2^64 / φ, which spreads runs of consecutive keys across the table.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(bucket)` holding `key`, or `Err(bucket)`: the free bucket that
    /// ends its probe.
    #[inline]
    fn position(&self, key: u64) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, slot) = self.buckets[i];
            if slot == EMPTY {
                return Err(i);
            }
            if k == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `key → slot` in the free bucket `position(key)` returned.
    fn fill(&mut self, mut bucket: usize, key: u64, slot: u32) {
        if 2 * (self.len + 1) > self.buckets.len() {
            self.grow();
            bucket = self
                .position(key)
                .expect_err("a key is filled while absent");
        }
        self.buckets[bucket] = (key, slot);
        self.len += 1;
    }

    fn remove(&mut self, key: u64) {
        let mut hole = self.position(key).expect("a removed key is present");
        let mask = self.buckets.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let (k, slot) = self.buckets[i];
            if slot == EMPTY {
                break;
            }
            // The entry at `i` may move back into the hole if the hole
            // lies on its probe path: no nearer its home than `i` is.
            let home = self.home(k);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets[hole] = self.buckets[i];
                hole = i;
            }
        }
        self.buckets[hole].1 = EMPTY;
        self.len -= 1;
    }

    fn grow(&mut self) {
        let mut bigger = Demux::with_buckets(2 * self.buckets.len());
        for &(key, slot) in self.buckets.iter().filter(|b| b.1 != EMPTY) {
            let at = bigger.position(key).expect_err("keys are unique");
            bigger.buckets[at] = (key, slot);
        }
        bigger.len = self.len;
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both ends of 512 block-allocated flows, at the table's maximum load.
    /// Hashing a key to its low bits would put each reversed id on its
    /// canonical twin's bucket and grow one probe run over all of them.
    #[test]
    fn block_allocated_ids_probe_short() {
        let mut t = ConnTable::new();
        for id in 1..=512u64 {
            t.open(FlowId(id), ());
            t.open(FlowId(id).reverse(), ());
        }
        let d = &t.demux;
        assert_eq!(d.buckets.len(), 2 * d.len, "the table is at half load");
        let mask = d.buckets.len() - 1;
        let displaced: usize = (d.buckets.iter().enumerate())
            .filter(|(_, &(_, slot))| slot != EMPTY)
            .map(|(i, &(key, _))| i.wrapping_sub(d.home(key)) & mask)
            .sum();
        let mean = displaced as f64 / d.len as f64;
        assert!(mean < 1.0, "mean probe displacement {mean}");
    }

    #[test]
    fn a_closed_slot_is_reused_under_a_new_generation() {
        let mut t = ConnTable::new();
        let a = t.open(FlowId(7), "a");
        let (_, gen_a, _) = t.get_mut(a);
        assert_eq!(t.close(a), "a");
        let b = t.open(FlowId(8).reverse(), "b");
        assert_eq!(b, a, "the freed slot is reused");
        let (key, gen_b, _) = t.get_mut(b);
        assert_eq!((key, gen_b), (FlowId(8).reverse(), gen_a + 1));
        assert!(t.live_mut(a, gen_a).is_none(), "the old name is dead");
        assert_eq!(t.live_mut(b, gen_b).copied(), Some("b"));
        assert!(t.find(FlowId(7)).is_err());
        assert_eq!(t.find(FlowId(8).reverse()).ok(), Some(b));
        assert_eq!(t.peak(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate connection")]
    fn a_key_opens_once() {
        let mut t = ConnTable::new();
        t.open(FlowId(3), ());
        t.open(FlowId(3), ());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Opens and closes drawn from a small key space (so keys recur and
        /// probe runs collide) agree with a reference map at every step,
        /// through growth and backward-shift deletion.
        #[test]
        fn table_agrees_with_a_reference_map(
            ops in proptest::collection::vec((0u64..96, any::<bool>()), 1..600),
        ) {
            #[allow(clippy::disallowed_types)] // the reference the table is checked against
            let mut reference = std::collections::BTreeMap::new();
            let mut t = ConnTable::new();
            for &(id, reverse) in &ops {
                let key = if reverse { FlowId(id).reverse() } else { FlowId(id) };
                match t.find(key) {
                    Ok(slot) => {
                        prop_assert_eq!(reference.remove(&key), Some(slot));
                        prop_assert_eq!(t.close(slot), key);
                    }
                    Err(at) => {
                        let slot = t.insert(at, key, key);
                        prop_assert_eq!(reference.insert(key, slot), None);
                    }
                }
                prop_assert_eq!(t.len(), reference.len());
                for (&key, &slot) in &reference {
                    prop_assert_eq!(t.find(key).ok(), Some(slot));
                    let (k, _, &mut conn) = t.get_mut(slot);
                    prop_assert_eq!((k, conn), (key, key));
                }
                prop_assert!(t.peak() <= 192);
            }
            let drained = t.drain();
            prop_assert_eq!(drained.len(), reference.len());
            prop_assert_eq!(t.len(), 0);
        }
    }
}
