//! A byte FIFO held as a rope of shared buffers.
//!
//! Socket queues carry whole application frames (0.5 MB for the paper's
//! Redis batches), so they keep the buffers they were handed — the sender's
//! write queue, the packet on the wire and the receiver's read queue all
//! reference one allocation — and every operation works a segment at a time.
//! A frame sent as a gather write is two segments, its length prefix and
//! its body; a reader that drops the prefix and takes the body gets a slice
//! of the body's buffer, because [`ByteQueue::take`] copies only what
//! straddles segments.

use bytes::Bytes;
use std::collections::VecDeque;

/// FIFO of bytes: a deque of non-empty [`Bytes`] segments, of which the
/// first `head` bytes of the front segment are already consumed.
///
/// A clone shares the (immutable) buffers, one reference count per segment,
/// so it is a snapshot: nothing done to the original afterwards changes it.
#[derive(Debug, Clone, Default)]
pub struct ByteQueue {
    segs: VecDeque<Bytes>,
    head: usize,
    len: usize,
}

impl ByteQueue {
    /// Bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a buffer by reference count (no copy).
    pub fn push(&mut self, seg: Bytes) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.segs.push_back(seg);
        }
    }

    /// Append a copy of `data` as one segment.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.push(Bytes::copy_from_slice(data));
    }

    /// The queued bytes in order, as the slices they are stored in (what an
    /// image writer copies out; nothing is flattened).
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks_from(0)
    }

    /// The queued bytes from `off` on, as the slices they are stored in.
    fn chunks_from(&self, off: usize) -> impl Iterator<Item = &[u8]> {
        let mut skip = self.head + off;
        self.segs.iter().filter_map(move |seg| {
            if skip >= seg.len() {
                skip -= seg.len();
                return None;
            }
            let chunk = &seg[skip..];
            skip = 0;
            Some(chunk)
        })
    }

    /// A copy of bytes `off .. off + len` of the queue (clamped to its end);
    /// the queue is unchanged.
    pub fn copy_range(&self, off: usize, len: usize) -> Vec<u8> {
        let mut want = len.min(self.len.saturating_sub(off));
        let mut out = Vec::with_capacity(want);
        for chunk in self.chunks_from(off) {
            if want == 0 {
                break;
            }
            let n = want.min(chunk.len());
            out.extend_from_slice(&chunk[..n]);
            want -= n;
        }
        out
    }

    /// All queued bytes, copied out. Not on the checkpoint path: a
    /// checkpoint clones the rope (one reference count per segment; `Bytes`
    /// is immutable, so the clone is a snapshot) and flattens nothing.
    pub fn to_vec(&self) -> Vec<u8> {
        self.copy_range(0, self.len)
    }

    /// Fill `buf` with the first `buf.len()` queued bytes without consuming
    /// them; `false` (and `buf` unspecified) if fewer are queued.
    pub fn peek_prefix(&self, buf: &mut [u8]) -> bool {
        if buf.len() > self.len {
            return false;
        }
        let mut filled = 0;
        for chunk in self.chunks_from(0) {
            if filled == buf.len() {
                break;
            }
            let n = (buf.len() - filled).min(chunk.len());
            buf[filled..filled + n].copy_from_slice(&chunk[..n]);
            filled += n;
        }
        true
    }

    /// Drop the first `n` bytes (all of them if fewer are queued), releasing
    /// every segment that empties.
    pub fn advance(&mut self, n: usize) {
        let mut n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let left = self.segs[0].len() - self.head;
            if n < left {
                self.head += n;
                return;
            }
            n -= left;
            self.head = 0;
            self.segs.pop_front();
        }
    }

    /// Remove and return exactly the first `n` bytes, or `None` (queue
    /// unchanged) if fewer are queued. Bytes that lie within one segment come
    /// back as a slice of it; only a range that straddles segments is copied.
    pub fn take(&mut self, n: usize) -> Option<Bytes> {
        if n > self.len {
            return None;
        }
        let out = match self.segs.front() {
            Some(seg) if self.head + n <= seg.len() => seg.slice(self.head..self.head + n),
            _ => Bytes::from(self.copy_range(0, n)),
        };
        self.advance(n);
        Some(out)
    }
}

/// Whether two chunk sequences of equal total length spell the same bytes.
fn same_bytes<'a, 'b>(
    a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'b [u8]>,
) -> bool {
    let mut y: &[u8] = &[];
    for mut x in a {
        while !x.is_empty() {
            if y.is_empty() {
                match b.next() {
                    Some(chunk) => y = chunk,
                    None => return false,
                }
            }
            let n = x.len().min(y.len());
            if x[..n] != y[..n] {
                return false;
            }
            (x, y) = (&x[n..], &y[n..]);
        }
    }
    true
}

/// Content equality: the bytes queued, whatever segments hold them and
/// however much of the front segment is already consumed.
impl PartialEq for ByteQueue {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && same_bytes(self.chunks(), other.chunks())
    }
}

impl Eq for ByteQueue {}

impl PartialEq<[u8]> for ByteQueue {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() && same_bytes(self.chunks(), std::iter::once(other))
    }
}

/// The vector's allocation becomes the queue's one segment (no copy).
impl From<Vec<u8>> for ByteQueue {
    fn from(v: Vec<u8>) -> Self {
        let mut q = ByteQueue::default();
        q.push(Bytes::from(v));
        q
    }
}

impl From<&[u8]> for ByteQueue {
    fn from(v: &[u8]) -> Self {
        v.to_vec().into()
    }
}

impl Extend<u8> for ByteQueue {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.push(Bytes::from(iter.into_iter().collect::<Vec<u8>>()));
    }
}

impl<'a> Extend<&'a u8> for ByteQueue {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.extend(iter.into_iter().copied());
    }
}

impl FromIterator<u8> for ByteQueue {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut q = ByteQueue::default();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_within_a_segment_shares_it() {
        let mut q = ByteQueue::default();
        let seg = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
        q.push(seg.clone());
        q.advance(1);
        let t = q.take(3).unwrap();
        assert_eq!(&t[..], &[2, 3, 4]);
        assert_eq!(t.as_ptr(), seg[1..].as_ptr(), "a slice, not a copy");
        assert_eq!(q.to_vec(), [5, 6]);
    }

    #[test]
    fn take_across_segments_concatenates() {
        let mut q = ByteQueue::default();
        q.extend_from_slice(&[1, 2]);
        q.push(Bytes::new());
        q.extend([3u8, 4, 5]);
        q.extend(&[6u8]);
        assert_eq!(q.len(), 6);
        assert!(q.take(7).is_none());
        assert_eq!(&q.take(2).unwrap()[..], &[1, 2], "ends on the boundary");
        assert_eq!(&q.take(4).unwrap()[..], &[3, 4, 5, 6], "straddles");
        assert!(q.is_empty());
        assert_eq!(q.take(0).unwrap().len(), 0);
    }

    #[test]
    fn peek_and_copy_leave_the_queue_alone() {
        let q: ByteQueue = (0u8..10).collect();
        let mut hdr = [0u8; 4];
        assert!(q.peek_prefix(&mut hdr));
        assert_eq!(hdr, [0, 1, 2, 3]);
        assert!(!q.peek_prefix(&mut [0u8; 11]));
        assert_eq!(q.copy_range(8, 100), [8, 9], "clamped to the end");
        assert!(q.copy_range(12, 1).is_empty(), "past the end copies nothing");
        assert_eq!(q.len(), 10);
    }
}
