//! Property tests for the ready-queue priority structures.

use abg_dag::TaskId;
use abg_sched::queue::{BreadthFirstQueue, FifoQueue, LifoQueue, ReadyQueue};
use proptest::prelude::*;
use std::collections::VecDeque;

/// An interleaved push/pop script: `Some((id, level))` pushes, `None`
/// pops.
fn scripts() -> impl Strategy<Value = Vec<Option<(u32, u32)>>> {
    prop::collection::vec(
        prop_oneof![
            3 => ((0u32..1000), (0u32..20)).prop_map(Some),
            1 => Just(None),
        ],
        0..200,
    )
}

/// The pop rule a naive model replays (see [`oracle`]).
#[derive(Clone, Copy)]
enum Discipline {
    BreadthFirst,
    Fifo,
    Lifo,
}

/// Replays a script against a naive `Vec` model of the discipline and
/// returns the pop sequence: the model keeps `(level, arrival, id)`
/// triples and pops by linear scan — minimum `(level, arrival)` for
/// breadth-first (stable: FIFO within a level), minimum `arrival` for
/// FIFO, maximum `arrival` for LIFO.
fn oracle(script: &[Option<(u32, u32)>], d: Discipline) -> Vec<u32> {
    let mut model: Vec<(u32, usize, u32)> = Vec::new();
    let mut popped = Vec::new();
    for (arrival, step) in script.iter().enumerate() {
        match step {
            Some((id, level)) => model.push((*level, arrival, *id)),
            None => {
                let pick = match d {
                    Discipline::BreadthFirst => model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(l, a, _))| (l, a))
                        .map(|(i, _)| i),
                    Discipline::Fifo => model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, a, _))| a)
                        .map(|(i, _)| i),
                    Discipline::Lifo => model
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &(_, a, _))| a)
                        .map(|(i, _)| i),
                };
                if let Some(i) = pick {
                    popped.push(model.remove(i).2);
                }
            }
        }
    }
    popped
}

/// A breadth-first queue with room for every push in `script`: each
/// level holds as many tasks as the script pushes there.
fn sized_for(script: &[Option<(u32, u32)>]) -> BreadthFirstQueue {
    let mut sizes = Vec::new();
    for &(_, level) in script.iter().flatten() {
        let l = level as usize;
        if sizes.len() <= l {
            sizes.resize(l + 1, 0);
        }
        sizes[l] += 1;
    }
    BreadthFirstQueue::with_level_sizes(&sizes)
}

fn run_script<Q: ReadyQueue>(queue: &mut Q, script: &[Option<(u32, u32)>]) -> Vec<u32> {
    let mut popped = Vec::new();
    for step in script {
        match step {
            Some((id, level)) => queue.push(TaskId(*id), *level),
            None => {
                if let Some(t) = queue.pop() {
                    popped.push(t.0);
                }
            }
        }
    }
    popped
}

/// One step of a [`segment_oracle`] script. Push levels and consume
/// counts are reduced modulo what the queue can take at that moment, so
/// every generated step is valid.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a fresh task at the level `k % levels` (or the next level up,
    /// cyclically, that still has room).
    Push(usize),
    /// Push up to `k` fresh tasks at level 0 through `push_sources`.
    PushSources(usize),
    Pop,
    CurrentLevel,
    /// Compare `pending(k % levels)`.
    Pending(usize),
    /// Consume `n % (pending + 1)` tasks of level `k % levels`.
    Consume(usize, usize),
    Clear,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..16, 0usize..64, 0usize..64).prop_map(|(kind, k, n)| match kind {
        0..=6 => Op::Push(k),
        7 => Op::PushSources(k % 4),
        8 | 9 => Op::Pop,
        10 => Op::CurrentLevel,
        11 => Op::Pending(k),
        12 | 13 => Op::Consume(k, n),
        _ => Op::Clear,
    });
    prop::collection::vec(op, 0..300)
}

/// Replays `ops` against the flat queue and a `Vec<VecDeque>` model of
/// the breadth-first rule (one FIFO per level, lowest non-empty level
/// first), comparing every observation and the length after every step.
fn segment_oracle(sizes: &[u64], ops: &[Op]) {
    let levels = sizes.len();
    let mut queue = BreadthFirstQueue::with_level_sizes(sizes);
    let mut model: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); levels];
    // Pushes each level can still take before the next clear.
    let mut room: Vec<u64> = sizes.to_vec();
    let mut next_id = 0u32;
    let mut fresh = || {
        next_id += 1;
        TaskId(next_id)
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Push(k) => {
                if let Some(l) = (0..levels).map(|i| (k + i) % levels).find(|&l| room[l] > 0) {
                    let t = fresh();
                    room[l] -= 1;
                    model[l].push_back(t);
                    queue.push(t, l as u32);
                }
            }
            Op::PushSources(k) => {
                let k = k.min(room[0] as usize);
                let sources: Vec<TaskId> = (0..k).map(|_| fresh()).collect();
                room[0] -= k as u64;
                model[0].extend(sources.iter().copied());
                queue.push_sources(&sources);
            }
            Op::Pop => {
                let want = model.iter_mut().find_map(|lv| lv.pop_front());
                assert_eq!(queue.pop(), want, "pop at step {step}");
            }
            Op::CurrentLevel => {
                let want = model
                    .iter()
                    .position(|lv| !lv.is_empty())
                    .map(|l| (l, model[l].len()));
                assert_eq!(queue.current_level(), want, "current_level at step {step}");
            }
            Op::Pending(k) => {
                let l = k % levels;
                let want: Vec<TaskId> = model[l].iter().copied().collect();
                assert_eq!(queue.pending(l), &want[..], "pending({l}) at step {step}");
            }
            Op::Consume(k, n) => {
                let l = k % levels;
                let n = n % (model[l].len() + 1);
                model[l].drain(..n);
                queue.consume(l, n);
            }
            Op::Clear => {
                model.iter_mut().for_each(VecDeque::clear);
                room.copy_from_slice(sizes);
                queue.clear();
            }
        }
        let len: usize = model.iter().map(VecDeque::len).sum();
        assert_eq!(queue.len(), len, "len after step {step}");
        assert_eq!(queue.is_empty(), len == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat, segment-per-level breadth-first queue against a
    /// `Vec<VecDeque>` model: random level sizes (empty levels
    /// included), and random pushes at levels above and below the
    /// cursor, source fills, pops, `current_level`, `pending`,
    /// `consume` and `clear`, all within each level's room.
    #[test]
    fn flat_queue_matches_per_level_fifo_model(
        sizes in prop::collection::vec(0u64..8, 1..12),
        ops in ops(),
    ) {
        segment_oracle(&sizes, &ops);
    }

    /// The breadth-first queue always pops a task of the minimum level
    /// currently present, regardless of interleaving.
    #[test]
    fn breadth_first_always_pops_minimum_level(script in scripts()) {
        let mut queue = sized_for(&script);
        // Shadow model: multiset of (level, id) currently enqueued.
        let mut model: Vec<(u32, u32)> = Vec::new();
        for step in &script {
            match step {
                Some((id, level)) => {
                    queue.push(TaskId(*id), *level);
                    model.push((*level, *id));
                }
                None => {
                    let popped = queue.pop();
                    match popped {
                        Some(t) => {
                            let min_level = model.iter().map(|(l, _)| *l).min()
                                .expect("queue non-empty implies model non-empty");
                            let idx = model.iter()
                                .position(|&(l, id)| id == t.0 && l == min_level)
                                .unwrap_or_else(|| panic!(
                                    "popped {t} is not a minimum-level ({min_level}) task"));
                            model.swap_remove(idx);
                        }
                        None => prop_assert!(model.is_empty()),
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
    }

    /// Conservation: across any script, every queue type pops exactly
    /// the ids it was given (drain at the end and compare multisets).
    #[test]
    fn queues_conserve_tasks(script in scripts()) {
        fn check<Q: ReadyQueue>(mut q: Q, script: &[Option<(u32, u32)>]) {
            let mut popped = run_script(&mut q, script);
            while let Some(t) = q.pop() {
                popped.push(t.0);
            }
            let mut pushed: Vec<u32> =
                script.iter().flatten().map(|(id, _)| *id).collect();
            pushed.sort_unstable();
            popped.sort_unstable();
            assert_eq!(pushed, popped, "queue lost or duplicated tasks");
        }
        check(sized_for(&script), &script);
        check(FifoQueue::default(), &script);
        check(LifoQueue::default(), &script);
    }

    /// Exact-identity oracle: each queue's full pop sequence over an
    /// interleaved script equals a naive sorted model of its discipline
    /// — for breadth-first that is "stable sort by level": minimum level
    /// first, FIFO (push order) within a level. The interleaving drives
    /// the breadth-first cursor up and then pushes below it, so the
    /// rewind path is exercised, not just monotone level streams.
    #[test]
    fn pop_sequences_match_sorted_model(script in scripts()) {
        let bf = run_script(&mut sized_for(&script), &script);
        let fifo = run_script(&mut FifoQueue::default(), &script);
        let lifo = run_script(&mut LifoQueue::default(), &script);
        prop_assert_eq!(bf, oracle(&script, Discipline::BreadthFirst));
        prop_assert_eq!(fifo, oracle(&script, Discipline::Fifo));
        prop_assert_eq!(lifo, oracle(&script, Discipline::Lifo));
    }

    /// Directed push-below-cursor coverage: drain a high level to park
    /// the breadth-first cursor there, then push strictly lower levels.
    /// Every later pop must still produce the global minimum level, and
    /// the final drain must follow the sorted model exactly.
    #[test]
    fn breadth_first_push_below_cursor(
        high in 5u32..20,
        low_ids in prop::collection::vec((0u32..1000, 0u32..5), 1..32),
    ) {
        // Park the cursor: push two tasks at `high`, pop them both.
        let mut script: Vec<Option<(u32, u32)>> =
            vec![Some((9000, high)), Some((9001, high)), None, None];
        // Now everything arrives below the cursor.
        script.extend(low_ids.iter().map(|&(id, l)| Some((id, l))));
        script.extend((0..low_ids.len()).map(|_| None));
        let got = run_script(&mut sized_for(&script), &script);
        prop_assert_eq!(got, oracle(&script, Discipline::BreadthFirst));
    }

    /// FIFO pops in push order; LIFO pops in reverse push order (when
    /// pops happen only after all pushes).
    #[test]
    fn fifo_and_lifo_orders(ids in prop::collection::vec(0u32..1000, 0..64)) {
        let mut fifo = FifoQueue::default();
        let mut lifo = LifoQueue::default();
        for &id in &ids {
            fifo.push(TaskId(id), 0);
            lifo.push(TaskId(id), 0);
        }
        let fifo_out: Vec<u32> = std::iter::from_fn(|| fifo.pop()).map(|t| t.0).collect();
        let lifo_out: Vec<u32> = std::iter::from_fn(|| lifo.pop()).map(|t| t.0).collect();
        prop_assert_eq!(&fifo_out, &ids);
        let reversed: Vec<u32> = ids.iter().rev().copied().collect();
        prop_assert_eq!(&lifo_out, &reversed);
    }
}

/// A push past a level's segment would overwrite the next level's first
/// task; it must panic instead, in release builds too.
#[test]
#[should_panic(expected = "ready-queue level overflow")]
fn push_past_a_level_segment_panics() {
    let mut queue = BreadthFirstQueue::with_level_sizes(&[2, 1]);
    queue.push(TaskId(0), 1);
    queue.push(TaskId(1), 0);
    queue.push(TaskId(2), 0);
    queue.push(TaskId(3), 0);
}
