//! Property tests for the switch-state primitives: the feedback pipeline
//! behaves as a shift register of layer snapshots, and the bounded FIFO
//! behaves as a queue with drop-on-full semantics fed by an attached
//! stream, with bounded storage.

use std::collections::VecDeque;
use systolic_ring_core::switch::{FeedbackPipeline, PushOutcome, WordFifo};
use systolic_ring_harness::for_random_cases;
use systolic_ring_isa::Word16;

/// After any push sequence, stage `q` holds the vector pushed `q` pushes
/// ago (zero-filled beyond history).
#[test]
fn pipeline_is_a_shift_register() {
    for_random_cases!(256, 0x51f7, |rng| {
        let depth = rng.index(11) + 1;
        let width = rng.index(5) + 1;
        let push_count = rng.index(40);
        let pushes = rng.vec_i16(push_count, i16::MIN as i64..i16::MAX as i64 + 1);

        let mut pipe = FeedbackPipeline::new(depth, width);
        let mut history: Vec<Vec<Word16>> = Vec::new();
        for (i, &seed) in pushes.iter().enumerate() {
            let vector: Vec<Word16> = (0..width)
                .map(|lane| Word16::from_i16(seed.wrapping_add(lane as i16 + i as i16)))
                .collect();
            history.push(vector.clone());
            pipe.push(vector);
        }
        for q in 0..depth {
            for lane in 0..width {
                let expect = if q < history.len() {
                    history[history.len() - 1 - q][lane]
                } else {
                    Word16::ZERO
                };
                assert_eq!(pipe.read(q, lane), expect, "stage {q} lane {lane}");
            }
        }
    });
}

/// The bounded FIFO agrees with a reference deque that ignores pushes past
/// capacity.
#[test]
fn fifo_matches_a_reference_queue() {
    for_random_cases!(256, 0xf1f0, |rng| {
        let capacity = rng.index(7) + 1;
        let op_count = rng.index(64);
        let ops: Vec<Option<i16>> = (0..op_count)
            .map(|_| rng.next_bool().then(|| rng.any_i16()))
            .collect();

        let mut fifo = WordFifo::new(capacity);
        let mut model: VecDeque<Word16> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let word = Word16::from_i16(v);
                    let outcome = fifo.push(word);
                    if model.len() < capacity {
                        assert_eq!(outcome, PushOutcome::Stored);
                        model.push_back(word);
                    } else {
                        assert_eq!(outcome, PushOutcome::Dropped);
                    }
                }
                None => {
                    assert_eq!(fifo.pop(), model.pop_front());
                }
            }
            assert_eq!(fifo.len(), model.len());
            assert_eq!(fifo.peek(), model.front().copied());
            assert_eq!(fifo.is_empty(), model.is_empty());
            assert_eq!(fifo.is_full(), model.len() >= capacity);
        }
    });
}

/// The representation a [`WordFifo`] replaces: a host source queue
/// feeding a separate bounded FIFO queue.
#[derive(Default)]
struct TwoQueues {
    source: VecDeque<Word16>,
    fifo: VecDeque<Word16>,
    capacity: usize,
}

impl TwoQueues {
    fn deliver(&mut self) -> bool {
        if self.source.is_empty() || self.fifo.len() >= self.capacity {
            return false;
        }
        let word = self.source.pop_front().expect("checked non-empty");
        self.fifo.push_back(word);
        true
    }

    fn push(&mut self, word: Word16) -> PushOutcome {
        if self.fifo.len() >= self.capacity {
            PushOutcome::Dropped
        } else {
            self.fifo.push_back(word);
            PushOutcome::Stored
        }
    }
}

fn assert_matches(fifo: &WordFifo, model: &TwoQueues, what: &str) {
    assert_eq!(fifo.len(), model.fifo.len(), "{what}: len");
    assert_eq!(fifo.pending(), model.source.len(), "{what}: pending");
    assert_eq!(fifo.peek(), model.fifo.front().copied(), "{what}: peek");
    assert_eq!(fifo.is_empty(), model.fifo.is_empty(), "{what}: empty");
    assert_eq!(
        fifo.is_full(),
        model.fifo.len() >= model.capacity,
        "{what}: full"
    );
    assert_eq!(
        fifo.can_deliver(),
        !model.source.is_empty() && model.fifo.len() < model.capacity,
        "{what}: can_deliver"
    );
}

/// Random interleavings of attach, deliver, push (including pushes made
/// while a stream is still pending), pop and peek agree with the
/// two-queue model step by step, and equality ignores how much consumed
/// prefix a FIFO still stores.
#[test]
fn stream_fifo_matches_the_two_queue_model() {
    for_random_cases!(512, 0x5e7f, |rng| {
        let capacity = rng.index(8) + 1;
        let op_count = rng.index(400);
        let mut fifo = WordFifo::new(capacity);
        let mut model = TwoQueues {
            capacity,
            ..TwoQueues::default()
        };
        for step in 0..op_count {
            let what = format!("step {step}");
            match rng.index(10) {
                0 => {
                    let words: Vec<Word16> = (0..rng.index(12))
                        .map(|_| Word16::from_i16(rng.any_i16()))
                        .collect();
                    fifo.attach(words.iter().copied());
                    model.source.extend(words);
                }
                1..=3 => assert_eq!(fifo.deliver(), model.deliver(), "{what}: deliver"),
                4 | 5 => {
                    let word = Word16::from_i16(rng.any_i16());
                    assert_eq!(fifo.push(word), model.push(word), "{what}: push");
                }
                6..=8 => assert_eq!(fifo.pop(), model.fifo.pop_front(), "{what}: pop"),
                _ => assert_eq!(fifo.peek(), model.fifo.front().copied(), "{what}: peek"),
            }
            assert_matches(&fifo, &model, &what);
        }
        // Draining through pops and deliveries reproduces the model's
        // remaining words in order.
        let mut rest = Vec::new();
        loop {
            if let Some(word) = fifo.pop() {
                rest.push(word);
            } else if !fifo.deliver() {
                break;
            }
        }
        let mut expect: Vec<Word16> = model.fifo.drain(..).collect();
        expect.extend(model.source.drain(..));
        assert_eq!(rest, expect, "drain order");
        assert_eq!(
            fifo,
            WordFifo::new(capacity),
            "drained FIFO equals a new one"
        );
    });
}

/// A push lands behind the delivered words and ahead of the undelivered
/// stream, exactly where the two-queue model puts it.
#[test]
fn push_lands_between_delivered_and_undelivered_words() {
    let w = Word16::from_i16;
    let mut fifo = WordFifo::new(8);
    fifo.attach([w(1), w(2), w(3)]);
    assert!(fifo.deliver());
    assert_eq!(fifo.push(w(9)), PushOutcome::Stored);
    assert_eq!(fifo.pending(), 2);
    while fifo.deliver() {}
    let order: Vec<Word16> = std::iter::from_fn(|| fifo.pop()).collect();
    assert_eq!(order, [w(1), w(9), w(2), w(3)]);
}

/// A long run on a FIFO that never empties — each step delivers a
/// stream word or pushes one, then pops one — keeps its stored buffer
/// bounded: the consumed prefix is compacted away instead of growing with
/// every word that ever passed through.
#[test]
fn a_never_empty_fifo_keeps_its_buffer_bounded() {
    let w = |v: u32| Word16::from_i16(v as i16);
    for capacity in [2usize, 4, 16] {
        let mut fifo = WordFifo::new(capacity);
        fifo.push(w(0));
        let mut max_stored = 0;
        for i in 1..100_000u32 {
            if fifo.pending() < 3 {
                fifo.attach([w(i), w(i + 1)]);
            }
            if i % 5 == 0 {
                assert_eq!(fifo.push(w(i)), PushOutcome::Stored);
            } else {
                assert!(fifo.deliver());
            }
            assert!(fifo.pop().is_some());
            assert_eq!(fifo.len(), 1, "the FIFO never empties");
            max_stored = max_stored.max(fifo.stored());
        }
        // At most 6 words are live (2 queued, 4 undelivered); compaction
        // keeps the buffer within about four times that.
        assert!(
            max_stored <= 32,
            "capacity {capacity}: buffer grew to {max_stored} words"
        );
    }
}
