//! The sorted buffer a TCP connection keeps its in-flight segments and
//! out-of-order ranges in (see [`SeqBuf`]).

use std::collections::VecDeque;

/// A map from sequence number to `V`, kept as one buffer sorted by
/// sequence number: what a `BTreeMap<u64, V>` would do for the operations a
/// connection performs, without a tree node per handful of entries. Sends
/// append at the tail and cumulative ACKs pop the head, both O(1); an
/// insert below the tail (a retransmission at `snd_una`, an out-of-order
/// range) binary-searches its place.
#[derive(Clone, Debug)]
pub(crate) struct SeqBuf<V> {
    buf: VecDeque<(u64, V)>,
}

impl<V: Copy> SeqBuf<V> {
    pub(crate) const fn new() -> Self {
        SeqBuf {
            buf: VecDeque::new(),
        }
    }

    /// The entry with the lowest sequence number.
    pub(crate) fn first(&self) -> Option<(u64, V)> {
        self.buf.front().copied()
    }

    /// The value at `seq`, after inserting `v` there if it had none.
    pub(crate) fn entry(&mut self, seq: u64, v: V) -> &mut V {
        let at = match self.buf.back() {
            Some(&(last, _)) if last >= seq => {
                match self.buf.binary_search_by_key(&seq, |&(k, _)| k) {
                    Ok(i) => return &mut self.buf[i].1,
                    Err(i) => i,
                }
            }
            _ => self.buf.len(),
        };
        self.buf.insert(at, (seq, v));
        &mut self.buf[at].1
    }

    /// Sets the value at `seq`, replacing any there.
    pub(crate) fn insert(&mut self, seq: u64, v: V) {
        *self.entry(seq, v) = v;
    }

    /// Removes entries from the head for as long as `pop` says so.
    pub(crate) fn pop_while(&mut self, mut pop: impl FnMut(u64, V) -> bool) {
        while let Some(&(seq, v)) = self.buf.front() {
            if !pop(seq, v) {
                break;
            }
            self.buf.pop_front();
        }
        self.release();
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.release();
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.buf.iter_mut().map(|(_, v)| v)
    }

    /// Halves the capacity once three quarters of it are unused, so a
    /// connection whose window collapsed does not keep its peak allocation.
    fn release(&mut self) {
        let cap = self.buf.capacity();
        if cap > 16 && self.buf.len() * 4 <= cap {
            self.buf.shrink_to(cap / 2);
        }
    }
}

/// The buffers against the `BTreeMap`s they replace, driven through the
/// same random sequence of what a connection does to them: appends at
/// `snd_nxt`, retransmissions at `snd_una`, cumulative ACKs (partial, or
/// past `snd_nxt` after a rewind), go-back-N rewinds, marking every segment
/// retransmitted, and segments arriving in order, duplicated or out of
/// order at the receiver. The two agree after every step.
#[cfg(test)]
#[allow(clippy::disallowed_types)] // the reference the buffers are checked against
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A sender's record of one segment in flight.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Seg {
        len: u32,
        sent_at: u64,
        retransmitted: bool,
    }

    fn pop_acked(map: &mut BTreeMap<u64, Seg>, una: u64) {
        while let Some((&seq, seg)) = map.first_key_value() {
            if seq + seg.len as u64 > una {
                break;
            }
            map.remove(&seq);
        }
    }

    fn arrive(map: &mut BTreeMap<u64, u64>, rcv_nxt: &mut u64, start: u64, end: u64) {
        if end <= *rcv_nxt {
            return;
        }
        if start > *rcv_nxt {
            let e = map.entry(start).or_insert(end);
            *e = (*e).max(end);
            return;
        }
        *rcv_nxt = end;
        while let Some((&s0, &e0)) = map.first_key_value() {
            if s0 > *rcv_nxt {
                break;
            }
            map.remove(&s0);
            *rcv_nxt = (*rcv_nxt).max(e0);
        }
    }

    /// The receiver's use of its buffer, as in `tcp.rs`.
    fn arrive_buf(buf: &mut SeqBuf<u64>, rcv_nxt: &mut u64, start: u64, end: u64) {
        if end <= *rcv_nxt {
            return;
        }
        if start > *rcv_nxt {
            let e = buf.entry(start, end);
            *e = (*e).max(end);
            return;
        }
        *rcv_nxt = end;
        buf.pop_while(|s0, e0| {
            let contiguous = s0 <= *rcv_nxt;
            if contiguous {
                *rcv_nxt = (*rcv_nxt).max(e0);
            }
            contiguous
        });
    }

    fn contents<V: Copy>(buf: &SeqBuf<V>) -> Vec<(u64, V)> {
        buf.buf.iter().copied().collect()
    }

    fn reference<V: Copy>(map: &BTreeMap<u64, V>) -> Vec<(u64, V)> {
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn seq_bufs_agree_with_btreemaps(
            ops in proptest::collection::vec((0u8..7, 0u64..4_000, 1u32..1_500), 1..400),
        ) {
            let (mut inflight, mut inflight_ref) = (SeqBuf::new(), BTreeMap::new());
            let (mut ooo, mut ooo_ref) = (SeqBuf::new(), BTreeMap::new());
            let (mut una, mut nxt) = (0u64, 0u64);
            let (mut rcv_nxt, mut rcv_nxt_ref) = (0u64, 0u64);
            for (step, &(op, n, len)) in ops.iter().enumerate() {
                let seg = Seg {
                    len,
                    sent_at: step as u64,
                    retransmitted: op == 1,
                };
                match op {
                    0 => {
                        inflight.insert(nxt, seg);
                        inflight_ref.insert(nxt, seg);
                        nxt += len as u64;
                    }
                    1 => {
                        inflight.insert(una, seg);
                        inflight_ref.insert(una, seg);
                    }
                    2 => {
                        una += n;
                        nxt = nxt.max(una);
                        inflight.pop_while(|seq, s| seq + s.len as u64 <= una);
                        pop_acked(&mut inflight_ref, una);
                    }
                    3 => {
                        nxt = una;
                        inflight.clear();
                        inflight_ref.clear();
                    }
                    4 => {
                        inflight.values_mut().for_each(|s| s.retransmitted = true);
                        inflight_ref.values_mut().for_each(|s| s.retransmitted = true);
                    }
                    _ => {
                        let start = (rcv_nxt + n).saturating_sub(500);
                        let end = start + len as u64;
                        arrive_buf(&mut ooo, &mut rcv_nxt, start, end);
                        arrive(&mut ooo_ref, &mut rcv_nxt_ref, start, end);
                    }
                }
                prop_assert_eq!(contents(&inflight), reference(&inflight_ref), "inflight, step {}", step);
                prop_assert_eq!(contents(&ooo), reference(&ooo_ref), "ooo, step {}", step);
                prop_assert_eq!(rcv_nxt, rcv_nxt_ref);
                let first = inflight_ref.first_key_value().map(|(&k, &v)| (k, v));
                prop_assert_eq!(inflight.first(), first);
            }
        }
    }
}
