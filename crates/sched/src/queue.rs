//! Ready-task queues encoding each greedy variant's priority rule.
//!
//! A greedy scheduler is fully determined by how it picks which ready
//! tasks to run when more are ready than processors are allotted. The
//! [`ReadyQueue`] trait captures that choice; the generic executor in
//! [`crate::executor`] is parameterised over it.

use abg_dag::{ExplicitDag, Level, TaskId};
use std::collections::VecDeque;

/// A container of ready tasks with a scheduler-specific pop order.
pub trait ReadyQueue {
    /// An empty queue with room for one run of `dag`: every task of a
    /// run enters the ready queue exactly once, so the queue never grows
    /// while the run lasts.
    fn for_dag(dag: &ExplicitDag) -> Self;

    /// Inserts a task that just became ready, along with its level.
    fn push(&mut self, task: TaskId, level: Level);

    /// Makes a dag's sources (its level-0 tasks, in id order) ready;
    /// the same as pushing each at level 0.
    fn push_sources(&mut self, sources: &[TaskId]) {
        for &t in sources {
            self.push(t, 0);
        }
    }

    /// Removes and returns the next task to execute, or `None` if empty.
    fn pop(&mut self) -> Option<TaskId>;

    /// Number of ready tasks.
    fn len(&self) -> usize;

    /// Whether no tasks are ready.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every task while keeping allocated storage, so a reset
    /// executor can refill the queue without reallocating.
    fn clear(&mut self);

    /// Bulk-access hook: a queue that maintains per-level segments returns
    /// itself here, which lets the executor drain whole frontier levels
    /// as contiguous slices instead of per-task `pop` calls. Queues
    /// without level structure return `None` (the default), keeping the
    /// executor on the exact per-task path. Monomorphisation turns the
    /// check into a compile-time constant for every concrete queue.
    fn as_level_buckets(&mut self) -> Option<&mut BreadthFirstQueue> {
        None
    }
}

/// Breadth-first priority: always pops a ready task with the **lowest
/// level** (the B-Greedy rule, Section 2). Ties within a level break in
/// FIFO order.
///
/// The queue is one flat `Vec<TaskId>` cut into one segment per level,
/// each as long as its level has tasks ([`ExplicitDag::level_sizes`]),
/// plus an empty sentinel segment after the last level. Every task
/// enters the ready queue once per run, so a segment never overflows: a
/// push is one store and a tail bump, and the pending tasks of a level
/// are one contiguous slice — the representation behind the executor's
/// bulk level stepping. A push past a segment's end would overwrite the
/// next level, so it panics instead.
#[derive(Debug, Clone)]
pub struct BreadthFirstQueue {
    slots: Vec<TaskId>,
    /// One entry per level, then the sentinel; `slots[head..tail]` is a
    /// level's pending run and `tail..end` its free room.
    segments: Vec<Segment>,
    /// Lower bound on the first non-empty level; advanced by
    /// `current_level`, lowered by a push below it.
    cursor: usize,
    len: usize,
}

/// One level's window into [`BreadthFirstQueue::slots`]; it starts where
/// the previous level's `end` is.
#[derive(Debug, Clone, Copy)]
struct Segment {
    head: usize,
    tail: usize,
    end: usize,
}

impl Segment {
    /// Claims room for `n` tasks and returns their slot range.
    #[inline]
    fn claim(&mut self, n: usize) -> std::ops::Range<usize> {
        let at = self.tail;
        assert!(
            n <= self.end - at,
            "ready-queue level overflow: a level received more tasks than it holds"
        );
        self.tail = at + n;
        at..at + n
    }
}

impl BreadthFirstQueue {
    /// An empty queue whose level `l` holds up to `level_sizes[l]` tasks
    /// between two [`clear`](ReadyQueue::clear)s.
    pub fn with_level_sizes(level_sizes: &[u64]) -> Self {
        let mut segments = Vec::with_capacity(level_sizes.len() + 1);
        let mut end = 0usize;
        for &size in level_sizes.iter().chain([&0]) {
            let start = end;
            end += usize::try_from(size).expect("level size fits in usize");
            segments.push(Segment {
                head: start,
                tail: start,
                end,
            });
        }
        Self {
            slots: vec![TaskId(0); end],
            segments,
            cursor: 0,
            len: 0,
        }
    }

    /// Advances the cursor to the lowest level with pending tasks and
    /// returns `(level, pending count)`; `None` when empty.
    pub fn current_level(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let mut seg = self.segments[self.cursor];
        while seg.head == seg.tail {
            self.cursor += 1;
            seg = self.segments[self.cursor];
        }
        Some((self.cursor, seg.tail - seg.head))
    }

    /// The pending tasks of level `l` in FIFO order, as one slice.
    pub fn pending(&self, l: usize) -> &[TaskId] {
        let seg = self.segments[l];
        &self.slots[seg.head..seg.tail]
    }

    /// Marks the first `n` pending tasks of level `l` consumed (they must
    /// already have been copied out).
    pub fn consume(&mut self, l: usize, n: usize) {
        let seg = &mut self.segments[l];
        assert!(n <= seg.tail - seg.head, "consumed more than is pending");
        seg.head += n;
        self.len -= n;
    }

    /// Splits the queue into the first `n` pending tasks of level `l`
    /// (borrowed in place — no copy) and a [`LevelPusher`] that can
    /// insert tasks at strictly higher levels while the slice is live.
    /// This is the zero-copy core of the executor's saturated bulk step:
    /// while the minimum nonempty level drains, every newly enabled
    /// successor lives above it, so the two borrows are disjoint.
    ///
    /// Call [`finish_bulk`](Self::finish_bulk) afterwards with the
    /// pusher's final [`pushed`](LevelPusher::pushed) count to commit the
    /// drain.
    ///
    /// # Panics
    ///
    /// The pusher panics if a task is pushed at a level `≤ l` or past
    /// its level's segment — either would break the frozen-frontier
    /// invariant the bulk step relies on.
    pub(crate) fn bulk_level(&mut self, l: usize, n: usize) -> (&[TaskId], LevelPusher<'_>) {
        let (low, high) = self.segments.split_at_mut(l + 1);
        let seg = low[l];
        assert!(n <= seg.tail - seg.head, "drained more than is pending");
        let (drained, above) = self.slots.split_at_mut(seg.end);
        (
            &drained[seg.head..seg.head + n],
            LevelPusher {
                slots: above,
                offset: seg.end,
                segments: high,
                base: l + 1,
                pushed: 0,
            },
        )
    }

    /// Commits a bulk drain opened by [`bulk_level`](Self::bulk_level):
    /// accounts the `pushed` insertions, then consumes the `n` drained
    /// tasks of level `l`.
    pub(crate) fn finish_bulk(&mut self, l: usize, n: usize, pushed: usize) {
        self.len += pushed;
        self.consume(l, n);
    }
}

/// A push handle over the levels strictly above a draining frontier
/// level, produced by [`BreadthFirstQueue::bulk_level`]. Insertions skip
/// the queue's cursor and length bookkeeping (the cursor sits at or
/// below the draining level and the length is committed once by
/// [`BreadthFirstQueue::finish_bulk`]), leaving one checked store per
/// enabled task.
#[derive(Debug)]
pub(crate) struct LevelPusher<'a> {
    /// The slots from the first level above the drain onwards; slot `i`
    /// of the queue is `slots[i - offset]`.
    slots: &'a mut [TaskId],
    offset: usize,
    /// The segments of levels `base..`.
    segments: &'a mut [Segment],
    base: usize,
    pushed: usize,
}

impl LevelPusher<'_> {
    /// Appends a task to its level (FIFO position preserved).
    #[inline]
    pub(crate) fn push(&mut self, task: TaskId, level: Level) {
        self.extend(level, std::slice::from_ref(&task));
    }

    /// Appends `tasks`, in order, to one level.
    #[inline]
    pub(crate) fn extend(&mut self, level: Level, tasks: &[TaskId]) {
        let room = self.segments[level as usize - self.base].claim(tasks.len());
        self.slots[room.start - self.offset..room.end - self.offset].copy_from_slice(tasks);
        self.pushed += tasks.len();
    }

    /// Tasks pushed through this handle so far — pass the final value to
    /// [`BreadthFirstQueue::finish_bulk`].
    pub(crate) fn pushed(&self) -> usize {
        self.pushed
    }
}

impl ReadyQueue for BreadthFirstQueue {
    fn for_dag(dag: &ExplicitDag) -> Self {
        Self::with_level_sizes(dag.level_sizes())
    }

    #[inline]
    fn push(&mut self, task: TaskId, level: Level) {
        let l = level as usize;
        let at = self.segments[l].claim(1).start;
        self.slots[at] = task;
        self.cursor = self.cursor.min(l);
        self.len += 1;
    }

    fn push_sources(&mut self, sources: &[TaskId]) {
        let room = self.segments[0].claim(sources.len());
        self.slots[room].copy_from_slice(sources);
        self.cursor = 0;
        self.len += sources.len();
    }

    fn pop(&mut self) -> Option<TaskId> {
        let (l, _) = self.current_level()?;
        let t = self.slots[self.segments[l].head];
        self.consume(l, 1);
        Some(t)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        let mut start = 0;
        for seg in &mut self.segments {
            seg.head = start;
            seg.tail = start;
            start = seg.end;
        }
        self.cursor = 0;
        self.len = 0;
    }

    fn as_level_buckets(&mut self) -> Option<&mut BreadthFirstQueue> {
        Some(self)
    }
}

/// Plain-greedy order: FIFO over readiness time, ignoring levels ("any
/// `a(q)` ready tasks"). This is the unaugmented greedy scheduler of
/// Graham \[10\] used as a measurement baseline.
#[derive(Debug, Default, Clone)]
pub struct FifoQueue {
    queue: VecDeque<TaskId>,
}

impl ReadyQueue for FifoQueue {
    fn for_dag(dag: &ExplicitDag) -> Self {
        Self {
            queue: VecDeque::with_capacity(dag.num_tasks()),
        }
    }

    fn push(&mut self, task: TaskId, _level: Level) {
        self.queue.push_back(task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn clear(&mut self) {
        self.queue.clear();
    }
}

/// Depth-first order: LIFO over readiness time, so the scheduler chases
/// the most recently enabled chain. The antithesis of B-Greedy; included
/// for the scheduler-strategy ablation.
#[derive(Debug, Default, Clone)]
pub struct LifoQueue {
    stack: Vec<TaskId>,
}

impl ReadyQueue for LifoQueue {
    fn for_dag(dag: &ExplicitDag) -> Self {
        Self {
            stack: Vec::with_capacity(dag.num_tasks()),
        }
    }

    fn push(&mut self, task: TaskId, _level: Level) {
        self.stack.push(task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn clear(&mut self) {
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_dag::generate::figure2_job;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    /// A queue whose level `l` holds `sizes[l]` tasks.
    fn sized(sizes: &[u64]) -> BreadthFirstQueue {
        BreadthFirstQueue::with_level_sizes(sizes)
    }

    #[test]
    fn breadth_first_pops_lowest_level() {
        let mut q = sized(&[2, 1, 1]);
        q.push(t(0), 2);
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.push(t(3), 0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(t(1)));
        assert_eq!(q.pop(), Some(t(3)));
        assert_eq!(q.pop(), Some(t(2)));
        assert_eq!(q.pop(), Some(t(0)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn breadth_first_interleaved_push_pop() {
        let mut q = sized(&[1, 1, 0, 1]);
        q.push(t(0), 1);
        assert_eq!(q.pop(), Some(t(0)));
        // Cursor has advanced past level 0; a later push at level 0 must
        // still be found first.
        q.push(t(1), 3);
        q.push(t(2), 0);
        assert_eq!(q.pop(), Some(t(2)));
        assert_eq!(q.pop(), Some(t(1)));
    }

    #[test]
    fn breadth_first_bulk_slices_match_pop_order() {
        let mut q = sized(&[0, 2, 1]);
        q.push(t(4), 1);
        q.push(t(5), 1);
        q.push(t(6), 2);
        let (l, n) = q.current_level().unwrap();
        assert_eq!((l, n), (1, 2));
        assert_eq!(q.pending(1), &[t(4), t(5)]);
        q.consume(1, 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.current_level(), Some((2, 1)));
        q.consume(2, 1);
        assert_eq!(q.current_level(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn breadth_first_partial_consume_keeps_fifo_tail() {
        let mut q = sized(&[6]);
        for i in 0..5 {
            q.push(t(i), 0);
        }
        q.consume(0, 2);
        assert_eq!(q.pending(0), &[t(2), t(3), t(4)]);
        assert_eq!(q.pop(), Some(t(2)));
        // A consumed slot is not reused before a clear: the next push
        // takes the level's last free slot.
        q.consume(0, 2);
        assert_eq!(q.len(), 0);
        q.push(t(9), 0);
        assert_eq!(q.pending(0), &[t(9)]);
    }

    #[test]
    fn clear_empties_and_queue_stays_usable() {
        let mut q = sized(&[0, 1, 1, 1]);
        q.push(t(0), 3);
        q.push(t(1), 1);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(t(2), 2);
        assert_eq!(q.pop(), Some(t(2)));
        // The rewind gives every level its full room again.
        q.push(t(3), 3);
        assert_eq!(q.pop(), Some(t(3)));

        let mut f = FifoQueue::default();
        f.push(t(0), 0);
        f.clear();
        assert!(f.is_empty());
        let mut l = LifoQueue::default();
        l.push(t(0), 0);
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    fn only_breadth_first_exposes_level_buckets() {
        let d = figure2_job();
        assert!(BreadthFirstQueue::for_dag(&d).as_level_buckets().is_some());
        assert!(FifoQueue::for_dag(&d).as_level_buckets().is_none());
        assert!(LifoQueue::for_dag(&d).as_level_buckets().is_none());
    }

    #[test]
    fn sources_fill_level_zero_in_one_copy() {
        let d = figure2_job();
        let mut bf = BreadthFirstQueue::for_dag(&d);
        let mut fifo = FifoQueue::for_dag(&d);
        bf.push_sources(d.source_tasks());
        fifo.push_sources(d.source_tasks());
        assert_eq!(bf.pending(0), d.source_tasks());
        assert_eq!(bf.len(), fifo.len());
        assert_eq!(bf.pop(), fifo.pop());
    }

    #[test]
    fn bulk_pusher_fills_levels_above_the_drain() {
        let mut q = sized(&[2, 3, 1]);
        q.push(t(0), 0);
        q.push(t(1), 0);
        let (slice, mut pusher) = q.bulk_level(0, 2);
        assert_eq!(slice, &[t(0), t(1)]);
        pusher.extend(1, &[t(2), t(3)]);
        pusher.push(t(4), 2);
        pusher.push(t(5), 1);
        let pushed = pusher.pushed();
        q.finish_bulk(0, 2, pushed);
        assert_eq!(q.len(), 4);
        assert_eq!(q.current_level(), Some((1, 3)));
        assert_eq!(q.pending(1), &[t(2), t(3), t(5)]);
        assert_eq!(q.pending(2), &[t(4)]);
    }

    #[test]
    fn last_level_drains_into_the_empty_sentinel() {
        let mut q = sized(&[1]);
        q.push(t(0), 0);
        let (_, mut pusher) = q.bulk_level(0, 1);
        pusher.extend(1, &[]);
        let pushed = pusher.pushed();
        q.finish_bulk(0, 1, pushed);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "ready-queue level overflow")]
    fn push_past_a_level_segment_panics() {
        let mut q = sized(&[1, 1]);
        q.push(t(0), 0);
        q.push(t(1), 0);
    }

    #[test]
    #[should_panic(expected = "ready-queue level overflow")]
    fn bulk_push_past_a_level_segment_panics() {
        let mut q = sized(&[1, 1, 1]);
        q.push(t(0), 0);
        let (_, mut pusher) = q.bulk_level(0, 1);
        pusher.extend(1, &[t(1), t(2)]);
    }

    #[test]
    fn fifo_order() {
        let mut q = FifoQueue::default();
        q.push(t(5), 9);
        q.push(t(6), 0);
        assert_eq!(q.pop(), Some(t(5)));
        assert_eq!(q.pop(), Some(t(6)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lifo_order() {
        let mut q = LifoQueue::default();
        q.push(t(5), 9);
        q.push(t(6), 0);
        assert_eq!(q.pop(), Some(t(6)));
        assert_eq!(q.pop(), Some(t(5)));
    }

    #[test]
    fn lengths_track_contents() {
        let mut q = LifoQueue::default();
        assert!(q.is_empty());
        q.push(t(1), 0);
        q.push(t(2), 0);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
