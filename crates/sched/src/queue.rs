//! Ready-task queues encoding each greedy variant's priority rule.
//!
//! A greedy scheduler is fully determined by how it picks which ready
//! tasks to run when more are ready than processors are allotted. The
//! [`ReadyQueue`] trait captures that choice; the generic executor in
//! [`crate::executor`] is parameterised over it.

use abg_dag::{Level, TaskId};
use std::collections::VecDeque;

/// A container of ready tasks with a scheduler-specific pop order.
pub trait ReadyQueue: Default {
    /// Inserts a task that just became ready, along with its level.
    fn push(&mut self, task: TaskId, level: Level);

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

    /// Bulk-access hook: a queue that maintains per-level buckets returns
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
/// Each level is a `Vec` bucket with a consumed-prefix head index
/// (instead of a `VecDeque`), so the pending tasks of a level are one
/// contiguous slice — the representation behind the executor's bulk
/// level stepping. A fully consumed bucket is cleared and its head
/// rewound, so the backing storage is reused when later pushes land on
/// the same level (which only happens after a `clear`/reset on
/// well-formed dags).
#[derive(Debug, Default, Clone)]
pub struct BreadthFirstQueue {
    buckets: Vec<Vec<TaskId>>,
    /// Consumed prefix per bucket: `buckets[l][heads[l]..]` is pending.
    heads: Vec<usize>,
    /// Lower bound on the first non-empty bucket; monotonically advanced
    /// by `pop`, reset by `push` when a lower level arrives (which cannot
    /// happen on well-formed dags, but the structure stays correct).
    cursor: usize,
    len: usize,
}

impl BreadthFirstQueue {
    /// Advances the cursor to the lowest level with pending tasks and
    /// returns `(level, pending count)`; `None` when empty.
    pub fn current_level(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        while self.heads[self.cursor] == self.buckets[self.cursor].len() {
            self.cursor += 1;
        }
        Some((
            self.cursor,
            self.buckets[self.cursor].len() - self.heads[self.cursor],
        ))
    }

    /// The pending tasks of level `l` in FIFO order, as one slice.
    pub fn pending(&self, l: usize) -> &[TaskId] {
        &self.buckets[l][self.heads[l]..]
    }

    /// Marks the first `n` pending tasks of level `l` consumed (they must
    /// already have been copied out). A fully consumed bucket is cleared
    /// in place so its storage is reused.
    pub fn consume(&mut self, l: usize, n: usize) {
        debug_assert!(self.heads[l] + n <= self.buckets[l].len());
        self.heads[l] += n;
        self.len -= n;
        if self.heads[l] == self.buckets[l].len() {
            self.buckets[l].clear();
            self.heads[l] = 0;
        }
    }

    /// Pre-sizes the bucket table to hold levels `0..levels`, so pushes
    /// through a [`LevelPusher`] never need to grow it mid-drain.
    pub(crate) fn ensure_levels(&mut self, levels: usize) {
        if levels > self.buckets.len() {
            self.buckets.resize_with(levels, Vec::new);
            self.heads.resize(levels, 0);
        }
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
    /// drain. Requires [`ensure_levels`](Self::ensure_levels) to cover
    /// every level the pusher will see.
    ///
    /// # Panics
    ///
    /// The pusher panics (index out of bounds) if a task is pushed at a
    /// level `≤ l` or beyond the ensured table — both would break the
    /// frozen-frontier invariant the bulk step relies on.
    pub(crate) fn bulk_level(&mut self, l: usize, n: usize) -> (&[TaskId], LevelPusher<'_>) {
        let (low, high) = self.buckets.split_at_mut(l + 1);
        let head = self.heads[l];
        debug_assert!(head + n <= low[l].len());
        (
            &low[l][head..head + n],
            LevelPusher {
                buckets: high,
                base: l + 1,
                pushed: 0,
            },
        )
    }

    /// Specialisation of [`bulk_level`](Self::bulk_level) for dags whose
    /// every edge drops exactly one level: all successors enabled while
    /// level `l` drains land on level `l + 1`, so instead of a
    /// [`LevelPusher`] the caller gets bucket `l + 1` itself and appends
    /// straight into it (e.g. via `extend_from_slice`) with no per-task
    /// level indexing at all. Commit with
    /// [`finish_bulk`](Self::finish_bulk) passing the bucket's length
    /// growth as `pushed`. Requires
    /// [`ensure_levels`](Self::ensure_levels) to cover level `l + 1`.
    pub(crate) fn bulk_level_unit(&mut self, l: usize, n: usize) -> (&[TaskId], &mut Vec<TaskId>) {
        let (low, high) = self.buckets.split_at_mut(l + 1);
        let head = self.heads[l];
        debug_assert!(head + n <= low[l].len());
        (&low[l][head..head + n], &mut high[0])
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
/// the queue's resize/cursor/length bookkeeping (the cursor sits at or
/// below the draining level and the length is committed once by
/// [`BreadthFirstQueue::finish_bulk`]), leaving one bounds-checked
/// bucket append per enabled task.
#[derive(Debug)]
pub(crate) struct LevelPusher<'a> {
    buckets: &'a mut [Vec<TaskId>],
    base: usize,
    pushed: usize,
}

impl LevelPusher<'_> {
    /// Appends a task to its level bucket (FIFO position preserved).
    #[inline]
    pub(crate) fn push(&mut self, task: TaskId, level: Level) {
        self.buckets[level as usize - self.base].push(task);
        self.pushed += 1;
    }

    /// Tasks pushed through this handle so far — pass the final value to
    /// [`BreadthFirstQueue::finish_bulk`].
    pub(crate) fn pushed(&self) -> usize {
        self.pushed
    }
}

impl ReadyQueue for BreadthFirstQueue {
    fn push(&mut self, task: TaskId, level: Level) {
        let l = level as usize;
        if l >= self.buckets.len() {
            self.buckets.resize_with(l + 1, Vec::new);
            self.heads.resize(l + 1, 0);
        }
        self.buckets[l].push(task);
        self.cursor = self.cursor.min(l);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<TaskId> {
        let (l, _) = self.current_level()?;
        let t = self.buckets[l][self.heads[l]];
        self.consume(l, 1);
        Some(t)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.heads.fill(0);
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

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn breadth_first_pops_lowest_level() {
        let mut q = BreadthFirstQueue::default();
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
        let mut q = BreadthFirstQueue::default();
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
        let mut q = BreadthFirstQueue::default();
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
        let mut q = BreadthFirstQueue::default();
        for i in 0..5 {
            q.push(t(i), 0);
        }
        q.consume(0, 2);
        assert_eq!(q.pending(0), &[t(2), t(3), t(4)]);
        assert_eq!(q.pop(), Some(t(2)));
        // Bucket fully consumed → storage rewound; a later push reuses it.
        q.consume(0, 2);
        assert_eq!(q.len(), 0);
        q.push(t(9), 0);
        assert_eq!(q.pending(0), &[t(9)]);
    }

    #[test]
    fn clear_empties_and_queue_stays_usable() {
        let mut q = BreadthFirstQueue::default();
        q.push(t(0), 3);
        q.push(t(1), 1);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(t(2), 2);
        assert_eq!(q.pop(), Some(t(2)));

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
        assert!(BreadthFirstQueue::default().as_level_buckets().is_some());
        assert!(FifoQueue::default().as_level_buckets().is_none());
        assert!(LifoQueue::default().as_level_buckets().is_none());
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
