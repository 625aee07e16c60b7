//! Host-speed calibration.
//!
//! On a shared host the speed of one thread drifts by 15–50% in plateaus
//! lasting seconds, so a run's median can land on a fast or a slow
//! plateau; the thread's CPU time follows its wall time, so the drift is
//! host speed, not descheduling. After every pass the benchmark runs a
//! fixed reference kernel for a tenth of the pass's time and scales that
//! pass's figures by the kernel's speed relative to
//! [`NOMINAL_ROUNDS_PER_S`], raised to [`ELASTICITY`]: the end-to-end
//! metrics read as they would on a host running the kernel at nominal
//! speed. The scaling follows the host only; a faster simulator moves
//! the figures by exactly its own speed-up.
//!
//! The kernel uses the standard library only, so no change to the
//! simulator moves it. It mixes what the simulator's own loops do —
//! ordered-map updates, small heap allocations and dependent
//! floating-point arithmetic — because a kernel of another kind follows
//! the host's plateaus poorly: a pointer chase over a cache-sized table
//! even moved against the simulator.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel rounds per second that count as nominal host speed
/// (about what a 2.1 GHz Xeon vCPU of a busy shared host runs).
pub const NOMINAL_ROUNDS_PER_S: f64 = 3300.0;

/// How strongly the simulator's speed follows the kernel's from one host
/// regime to the next: on the shared 2.1 GHz Xeon host this benchmark was
/// tuned on, a pass ran at about the kernel's relative speed raised to
/// this power. Of the exponents 1 to 2 in steps of 0.25 it left the
/// least spread over all four workloads together (12 to 17 runs each,
/// spanning several regimes); with 1 the spread was 1.7 to 2.8 times
/// larger. `README.md` has the table.
pub const ELASTICITY: f64 = 1.5;

/// Operations in one round of the kernel.
const OPS_PER_ROUND: u64 = 2000;

/// One round: a fresh ordered map and allocation pool driven by a
/// xorshift stream.
fn round(state: &mut u64) {
    let mut map = BTreeMap::new();
    let mut pool: Vec<Box<[u32]>> = Vec::new();
    let mut acc = 0.0f64;
    for i in 0..OPS_PER_ROUND {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        map.insert(x % 4096, i);
        if x & 3 == 0 {
            map.remove(&((x >> 8) % 4096));
        }
        if x & 15 == 1 {
            pool.push(vec![i as u32; (x % 64) as usize + 1].into_boxed_slice());
        }
        if pool.len() > 32 {
            pool.swap_remove((x % 32) as usize);
        }
        acc += (x % 1000) as f64 / (1.0 + acc.abs());
    }
    black_box((map.len(), pool.len(), acc));
}

/// Runs the reference kernel for at least `seconds` (and at least one
/// round) and returns the factor by which the host currently speeds the
/// simulator up over nominal.
pub fn host_speed(seconds: f64) -> f64 {
    let mut state = 0x1234_5678;
    let started = Instant::now();
    let mut rounds = 0u32;
    while rounds == 0 || started.elapsed().as_secs_f64() < seconds {
        round(&mut state);
        rounds += 1;
    }
    let relative = rounds as f64 / started.elapsed().as_secs_f64() / NOMINAL_ROUNDS_PER_S;
    relative.powf(ELASTICITY)
}
