//! OS-level processor allocators for the ABG reproduction.
//!
//! In the two-level framework (Section 1), the *OS allocator* receives
//! each job's processor request `d(q)` at every quantum boundary and
//! decides the allotments `a(q)` under the system policy. The paper
//! assumes the allocator is **conservative** — it never allots more than
//! requested, so `a(q) = min{d(q), p(q)}` where `p(q)` is the
//! availability under the policy — and its global results (Theorem 5)
//! additionally require the allocator to be **fair** (equal shares unless
//! a job asks for less) and **non-reserving** (no processor stays idle
//! while some job wants more).
//!
//! [`DynamicEquiPartition`] (McCann, Vaswani, Zahorjan 1993) is the fair
//! non-reserving policy used in the paper's multiprogrammed simulations;
//! [`RoundRobin`], [`Proportional`] and the adversarial [`Scripted`]
//! allocator provide contrasts and the trim-analysis adversary.
//!
//! Requests are real-valued (the controller output); allotments are
//! integral. Allocators integerize a request as `ceil(d)` and the
//! conservativeness invariant is `a_i ≤ ceil(d_i)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deq;
pub mod invariants;
pub mod proportional;
pub mod round_robin;
pub mod scripted;

pub use deq::DynamicEquiPartition;
pub use proportional::Proportional;
pub use round_robin::RoundRobin;
pub use scripted::Scripted;

/// What the *last* `allocate_into` call guarantees about repeating the
/// allocation, used by frozen-quantum macro-stepping to decide whether
/// allotments can be held without re-running the policy.
///
/// The verdict describes the call that just happened: "if the next call
/// saw inputs equivalent in the stated sense, it would write the same
/// allotments and leave the policy state unchanged."
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AllocationStability {
    /// No guarantee — the policy mutated tie-break state (or made no
    /// claim), so the allocation must be recomputed every quantum.
    #[default]
    Unstable,
    /// The allotments are a pure function of the integerized requests
    /// `ceil(d_i)`: repeating the call with requests of equal ceilings
    /// reproduces the allotments exactly.
    ByCeilings,
    /// The allotments are a pure function of the *exact* request values:
    /// repeating the call requires bit-identical `d_i`, not just equal
    /// ceilings.
    ByExactRequests,
}

/// Integerizes a request: the smallest processor count that satisfies
/// it, saturating into `0..=u32::MAX`.
///
/// # Panics
///
/// Panics on NaN or negative requests — a controller must never emit
/// those.
#[inline]
pub fn ceil_request(d: f64) -> u32 {
    assert!(!d.is_nan() && d >= 0.0, "invalid processor request {d}");
    if d >= u32::MAX as f64 {
        u32::MAX
    } else {
        // Truncate and round up by one compare: `f64::ceil` is a
        // software routine on baseline x86-64, and every allocation and
        // frozen-window check integerizes each live request.
        let t = d as u32;
        t + u32::from((t as f64) < d)
    }
}

/// A processor-allocation policy.
///
/// `allocate` is called once per quantum boundary with the standing
/// requests of all live jobs (indexed consistently with the returned
/// vector). Implementations must be conservative (`a_i ≤ ceil(d_i)`) and
/// respect the machine capacity (`Σ a_i ≤ P`); [`invariants::validate`]
/// checks both and is used in debug builds and tests.
pub trait Allocator {
    /// Computes the allotment of each job for the next quantum, writing
    /// it into `out` (which is cleared first and ends up with
    /// `requests.len()` entries).
    ///
    /// This is the required method so the simulation engines can reuse
    /// one allotment buffer across quanta and keep their steady-state
    /// loops free of per-quantum heap allocation; [`Allocator::allocate`]
    /// is the allocating convenience wrapper.
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>);

    /// Computes the allotment of each job for the next quantum.
    fn allocate(&mut self, requests: &[f64]) -> Vec<u32> {
        let mut out = Vec::with_capacity(requests.len());
        self.allocate_into(requests, &mut out);
        out
    }

    /// The availability `p_i` of each job: the allotment the job would
    /// have received had it requested the whole machine, holding the
    /// other requests fixed. Satisfies `a_i = min(ceil(d_i), p_i)` when
    /// queried **before** the corresponding `allocate` call — policies
    /// with rotating tie-break state (DEQ, round-robin) answer for the
    /// *next* allocation, so probe first, then allocate.
    ///
    /// The default implementation re-runs the policy once per job with
    /// that job's request raised to the machine size, on a clone of the
    /// policy state (leaving the real state untouched); stateful
    /// policies may override with something cheaper.
    fn availabilities(&mut self, requests: &[f64]) -> Vec<u32>
    where
        Self: Clone,
    {
        let p = self.total_processors() as f64;
        let mut out = Vec::with_capacity(requests.len());
        let mut probe = requests.to_vec();
        for i in 0..requests.len() {
            let saved = probe[i];
            probe[i] = p;
            // Clone so the probe does not advance stateful policies.
            let alloc = self.clone().allocate(&probe);
            out.push(alloc[i]);
            probe[i] = saved;
        }
        out
    }

    /// Object-safe availability probe used by the generic quantum core:
    /// writes the availability `p_i` of each job into `out` and returns
    /// `true`, or returns `false` (leaving `out` in an unspecified state)
    /// if this policy cannot answer. Like [`Allocator::availabilities`],
    /// the answer describes the *next* allocation, so engines probe
    /// first, then allocate.
    ///
    /// The default declines; the concrete policies in this crate all
    /// override it (delegating to the clone-probing
    /// [`Allocator::availabilities`]), so traces carry `p(q)` under any
    /// of them.
    fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
        let _ = (requests, out);
        false
    }

    /// Machine size `P`.
    fn total_processors(&self) -> u32;

    /// Short policy name for traces and reports.
    fn name(&self) -> &'static str;

    /// Stability verdict for the most recent [`allocate_into`] call (see
    /// [`AllocationStability`]). The default `Unstable` is always
    /// correct; policies that can certify repeatability override it so
    /// engines may macro-step frozen quanta without re-allocating.
    ///
    /// [`allocate_into`]: Allocator::allocate_into
    fn allocation_stability(&self) -> AllocationStability {
        AllocationStability::Unstable
    }
}

/// Mutable references are allocators too, so a driver that owns its
/// allocator can lend it to a generic engine for the duration of a run.
impl<A: Allocator + ?Sized> Allocator for &mut A {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        (**self).allocate_into(requests, out)
    }
    fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
        (**self).try_availabilities(requests, out)
    }
    fn total_processors(&self) -> u32 {
        (**self).total_processors()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn allocation_stability(&self) -> AllocationStability {
        (**self).allocation_stability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_request_rounds_up() {
        assert_eq!(ceil_request(0.0), 0);
        assert_eq!(ceil_request(0.2), 1);
        assert_eq!(ceil_request(3.0), 3);
        assert_eq!(ceil_request(3.001), 4);
    }

    #[test]
    fn ceil_request_matches_f64_ceil() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            (1u64 << 31) as f64 + 0.5,
            u32::MAX as f64 - 1.0,
            u32::MAX as f64 - 0.5,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let random = (0..100_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((x % 11) as i32)
        });
        for d in edges.into_iter().chain(random) {
            assert_eq!(
                ceil_request(d),
                d.ceil().min(u32::MAX as f64) as u32,
                "d = {d:e}"
            );
        }
    }

    #[test]
    fn ceil_request_saturates() {
        assert_eq!(ceil_request(1e20), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "invalid processor request")]
    fn ceil_request_rejects_nan() {
        let _ = ceil_request(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid processor request")]
    fn ceil_request_rejects_negative() {
        let _ = ceil_request(-1.0);
    }
}
