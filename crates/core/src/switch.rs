//! Switch state: feedback pipelines and host FIFOs.
//!
//! The crossbar routing itself is stateless (it is configuration, held in
//! the configuration layer); this module holds the *stateful* parts of a
//! switch — the feedback pipeline it owns and its host-side FIFOs.

use std::collections::VecDeque;

use systolic_ring_isa::Word16;

/// The feedback pipeline owned by one switch (paper §4.2, Figure 5).
///
/// Every cycle the switch unconditionally pushes the upstream layer's output
/// vector; reads address `(stage, lane)` with stage 0 being the most recent
/// capture. The fixed depth bounds the reverse-dataflow reach and "the
/// required delays on recursive branch are automatically achieved in them".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedbackPipeline {
    stages: VecDeque<Vec<Word16>>,
    depth: usize,
    width: usize,
}

impl FeedbackPipeline {
    /// A pipeline of `depth` stages, each a vector of `width` words,
    /// initially all zero.
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        let stages = (0..depth).map(|_| vec![Word16::ZERO; width]).collect();
        FeedbackPipeline {
            stages,
            depth,
            width,
        }
    }

    /// Pipeline depth in stages.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reads `(stage, lane)`; stage 0 is the newest capture.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= depth` or `lane >= width`; routing is validated
    /// at configuration-write time.
    #[inline]
    pub fn read(&self, stage: usize, lane: usize) -> Word16 {
        self.stages[stage][lane]
    }

    /// Pushes a captured layer-output vector, evicting the oldest stage.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != width`.
    pub fn push(&mut self, vector: Vec<Word16>) {
        assert_eq!(vector.len(), self.width, "capture width mismatch");
        self.stages.push_front(vector);
        self.stages.pop_back();
    }

    /// Captures a new stage-0 vector without allocating: the evicted
    /// oldest stage's buffer is refilled lane-by-lane from `fill` and
    /// reinserted as the newest stage. Equivalent to
    /// [`FeedbackPipeline::push`] with `vec![fill(0), .., fill(width-1)]`.
    pub fn rotate_with<F: FnMut(usize) -> Word16>(&mut self, mut fill: F) {
        let mut stage = self.stages.pop_back().expect("depth >= 1");
        for (lane, slot) in stage.iter_mut().enumerate() {
            *slot = fill(lane);
        }
        self.stages.push_front(stage);
    }

    /// Overwrites one `(stage, lane)` word in place (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= depth` or `lane >= width`.
    pub fn poke(&mut self, stage: usize, lane: usize, word: Word16) {
        self.stages[stage][lane] = word;
    }

    /// Swaps the contents of two lanes across every stage (Dnode remap:
    /// the in-flight output history follows the swapped roles).
    ///
    /// # Panics
    ///
    /// Panics if either lane is `>= width`.
    pub(crate) fn swap_lanes(&mut self, a: usize, b: usize) {
        assert!(a < self.width && b < self.width, "lane out of range");
        for stage in &mut self.stages {
            stage.swap(a, b);
        }
    }
}

/// Outcome of a bounded FIFO push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The word was enqueued.
    Stored,
    /// The FIFO was full; the word was dropped.
    Dropped,
}

/// A bounded word FIFO (host-input or host-output side of a switch).
///
/// One buffer with two cursors: `buf[head..tail]` is the FIFO itself and
/// `buf[tail..]` is the host stream attached to the port but not yet
/// delivered. A delivery moves one word across the boundary
/// (`tail += 1`), a read is `buf[head]` and a pop is `head += 1`, so a
/// stream word is written once, when it is attached, and never copied
/// between queues. A controller `hpush` lands at `tail`: behind every
/// delivered word and ahead of the undelivered ones, where a separate
/// source queue feeding the FIFO would put it. An attach, or a push that
/// would have to grow the buffer, first drops the consumed prefix if it
/// is at least as long as the words still stored, which keeps the buffer
/// bounded at amortized O(1) per word. Host-output FIFOs use the same
/// structure and never carry a stream.
///
/// Equality compares the queue contents, the undelivered stream and the
/// capacity, never how much consumed prefix happens to be stored.
#[derive(Clone, Debug, Default)]
pub struct WordFifo {
    buf: Vec<Word16>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl PartialEq for WordFifo {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.len() == other.len()
            && self.buf[self.head..] == other.buf[other.head..]
    }
}

impl Eq for WordFifo {}

impl WordFifo {
    /// An empty FIFO holding at most `capacity` words, with no stream
    /// attached.
    pub fn new(capacity: usize) -> Self {
        WordFifo {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            capacity,
        }
    }

    /// Words currently enqueued (delivered and not yet popped).
    #[inline]
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    /// `true` if no words are enqueued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// `true` if at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// The word a reader would observe this cycle (head), if any.
    #[inline]
    pub fn peek(&self) -> Option<Word16> {
        if self.is_empty() {
            None
        } else {
            Some(self.buf[self.head])
        }
    }

    /// Removes and returns the head. Popping the last stored word empties
    /// the buffer.
    pub fn pop(&mut self) -> Option<Word16> {
        let word = self.peek()?;
        self.head += 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            self.tail = 0;
        }
        Some(word)
    }

    /// Enqueues `word`, dropping it if the FIFO is full. The word joins
    /// the back of the queue, ahead of any undelivered stream words.
    pub fn push(&mut self, word: Word16) -> PushOutcome {
        if self.is_full() {
            return PushOutcome::Dropped;
        }
        if self.buf.len() == self.buf.capacity() {
            // Storing would grow the buffer: drop the consumed prefix
            // first if it can make the room.
            self.drop_consumed();
        }
        if self.tail == self.buf.len() {
            self.buf.push(word);
        } else {
            self.buf.insert(self.tail, word);
        }
        self.tail += 1;
        PushOutcome::Stored
    }

    /// Appends words to the attached stream, behind any words still
    /// undelivered.
    pub fn attach<I: IntoIterator<Item = Word16>>(&mut self, words: I) {
        self.drop_consumed();
        self.buf.extend(words);
    }

    /// Stream words attached but not yet delivered into the FIFO.
    #[inline]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.tail
    }

    /// `true` if a stream word is waiting and the FIFO has room for it.
    #[inline]
    pub fn can_deliver(&self) -> bool {
        self.tail < self.buf.len() && !self.is_full()
    }

    /// Moves the next stream word into the FIFO; `false` (and no change)
    /// unless [`WordFifo::can_deliver`].
    pub fn deliver(&mut self) -> bool {
        let moved = self.can_deliver();
        self.tail += usize::from(moved);
        moved
    }

    /// Words the FIFO can still take before it is full.
    #[inline]
    pub(crate) fn room(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    /// Compiled-burst read: pops the head if it lies below both the tail
    /// and `limit`, without compacting the buffer ([`WordFifo::settle`]
    /// does that once the burst ends). `limit` bounds what a closed-form
    /// delivery window has delivered by now (see
    /// [`WordFifo::open_stream`]).
    #[inline]
    pub(crate) fn pop_below(&mut self, limit: usize) -> Option<Word16> {
        if self.head < self.tail.min(limit) {
            let word = self.buf[self.head];
            self.head += 1;
            Some(word)
        } else {
            None
        }
    }

    /// Opens a closed-form delivery window for a compiled burst: moves the
    /// tail past the whole attached stream and returns the tail it had.
    /// While the window is open, a read `t` cycles in must go through
    /// [`WordFifo::pop_below`] with `limit = returned tail + t`: on a
    /// direct link one word per cycle is delivered until the stream runs
    /// dry, so that is exactly what the per-cycle delivery would have
    /// made visible. The caller guarantees the FIFO cannot fill within the
    /// window.
    pub(crate) fn open_stream(&mut self) -> usize {
        let tail = self.tail;
        self.tail = self.buf.len();
        tail
    }

    /// Closes a closed-form window opened at tail `tail` after `cycles`
    /// cycles: the stream delivered one word per cycle until it ran dry.
    /// Returns the words delivered.
    pub(crate) fn close_stream(&mut self, tail: usize, cycles: u64) -> u64 {
        let end = tail
            .saturating_add(usize::try_from(cycles).unwrap_or(usize::MAX))
            .min(self.buf.len());
        self.tail = end;
        (end - tail) as u64
    }

    /// Empties the buffer if every stored word has been consumed, as
    /// [`WordFifo::pop`] does when it takes the last one.
    pub(crate) fn settle(&mut self) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            self.tail = 0;
        }
    }

    /// Words held in the backing buffer: the consumed prefix not yet
    /// compacted away, the queue and the undelivered stream.
    pub fn stored(&self) -> usize {
        self.buf.len()
    }

    /// Drops the consumed prefix if it is at least as long as the words
    /// still stored. Called before a push that would grow the buffer and
    /// before an attach: a compaction moves no more words than were
    /// popped since the previous one (O(1) amortized per word), and a
    /// full buffer either halves or holds mostly live words, so it stays
    /// within about four times its largest live content.
    fn drop_consumed(&mut self) {
        if self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.tail -= self.head;
            self.head = 0;
        }
    }
}

/// Stateful parts of one switch.
///
/// A switch owns `2 * width` host-input FIFOs and `width` host-output
/// FIFOs — the paper's "direct dedicated ports", enough to feed both
/// forward ports of every downstream Dnode and to capture the whole
/// upstream layer every cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchState {
    /// The feedback pipeline this switch owns.
    pub pipe: FeedbackPipeline,
    /// Host-to-ring FIFOs, indexed by host-input port. Each also holds
    /// the host stream attached to its port (see [`WordFifo`]) and is
    /// filled by stream delivery or controller `hpush`.
    pub host_in: Vec<WordFifo>,
    /// Ring-to-host FIFOs (filled by the per-port capture selectors,
    /// drained by host sinks or controller `hpop`), indexed by out-port.
    pub host_out: Vec<WordFifo>,
}

impl SwitchState {
    /// A reset switch with the given pipeline depth, layer width and host
    /// FIFO capacity.
    pub fn new(pipe_depth: usize, width: usize, fifo_capacity: usize) -> Self {
        SwitchState {
            pipe: FeedbackPipeline::new(pipe_depth, width),
            host_in: (0..2 * width)
                .map(|_| WordFifo::new(fifo_capacity))
                .collect(),
            host_out: (0..width).map(|_| WordFifo::new(fifo_capacity)).collect(),
        }
    }

    /// Number of host-input ports on this switch.
    pub fn host_in_ports(&self) -> usize {
        self.host_in.len()
    }

    /// Number of host-output ports on this switch.
    pub fn host_out_ports(&self) -> usize {
        self.host_out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: i16) -> Word16 {
        Word16::from_i16(v)
    }

    #[test]
    fn pipeline_shifts_and_reads_by_age() {
        let mut p = FeedbackPipeline::new(3, 2);
        assert_eq!(p.read(2, 1), Word16::ZERO);
        p.push(vec![w(1), w(2)]);
        p.push(vec![w(3), w(4)]);
        assert_eq!(p.read(0, 0), w(3));
        assert_eq!(p.read(0, 1), w(4));
        assert_eq!(p.read(1, 0), w(1));
        assert_eq!(p.read(2, 0), Word16::ZERO);
        p.push(vec![w(5), w(6)]);
        p.push(vec![w(7), w(8)]);
        // The (1,2) capture has been evicted.
        assert_eq!(p.read(2, 0), w(3));
        assert_eq!(p.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn pipeline_rejects_wrong_width() {
        FeedbackPipeline::new(2, 2).push(vec![w(1)]);
    }

    #[test]
    fn fifo_ordering_and_capacity() {
        let mut f = WordFifo::new(2);
        assert!(f.is_empty());
        assert_eq!(f.push(w(1)), PushOutcome::Stored);
        assert_eq!(f.push(w(2)), PushOutcome::Stored);
        assert!(f.is_full());
        assert_eq!(f.push(w(3)), PushOutcome::Dropped);
        assert_eq!(f.peek(), Some(w(1)));
        assert_eq!(f.pop(), Some(w(1)));
        assert_eq!(f.pop(), Some(w(2)));
        assert_eq!(f.pop(), None);
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn switch_state_construction() {
        let s = SwitchState::new(4, 3, 16);
        assert_eq!(s.pipe.depth(), 4);
        assert_eq!(s.host_in_ports(), 6);
        assert_eq!(s.host_out_ports(), 3);
        assert!(s.host_in.iter().all(WordFifo::is_empty));
        assert!(s.host_out.iter().all(WordFifo::is_empty));
    }
}
