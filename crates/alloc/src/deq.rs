//! Dynamic equi-partitioning (DEQ) — the fair, conservative,
//! non-reserving policy of McCann, Vaswani and Zahorjan used by the
//! paper's multiprogrammed experiments (Section 7).

use crate::{ceil_request, invariants, AllocationStability, Allocator};

/// The DEQ allocator.
///
/// DEQ repeatedly offers every unsatisfied job an equal share of the
/// remaining processors; jobs requesting no more than the share are
/// granted their full request and drop out, which raises the share for
/// the rest (water-filling). Jobs still unsatisfied at the fixpoint split
/// the remainder evenly, with the integer remainder rotated across quanta
/// so no job is systematically favoured.
///
/// Properties (checked by the test-suite):
///
/// * **conservative** — `a_i ≤ ceil(d_i)`;
/// * **fair** — deprived jobs' allotments differ by at most one;
/// * **non-reserving** — `Σ a_i = min(Σ ceil(d_i), P)`.
///
/// ```
/// use abg_alloc::{Allocator, DynamicEquiPartition};
///
/// let mut deq = DynamicEquiPartition::new(12);
/// // A modest job releases its surplus share to the greedy ones.
/// let allotments = deq.allocate(&[1.0, 100.0, 100.0]);
/// assert_eq!(allotments[0], 1);
/// assert_eq!(allotments[1] + allotments[2], 11);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicEquiPartition {
    processors: u32,
    /// Rotates which deprived jobs absorb the integer remainder.
    rotation: u64,
    /// Scratch (integerized requests), reused so repeated `allocate_into`
    /// calls allocate nothing at steady state.
    caps: Vec<u32>,
    /// Scratch (indices of jobs not yet satisfied by water-filling).
    active: Vec<usize>,
    /// Stability verdict of the last `allocate_into` call.
    stability: AllocationStability,
}

impl DynamicEquiPartition {
    /// Creates a DEQ policy over a `processors`-processor machine.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "a machine needs at least one processor");
        Self {
            processors,
            rotation: 0,
            caps: Vec::new(),
            active: Vec::new(),
            stability: AllocationStability::Unstable,
        }
    }
}

impl Allocator for DynamicEquiPartition {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        let n = requests.len();
        out.clear();
        out.resize(n, 0);
        if n == 0 {
            return;
        }
        let Self {
            processors,
            rotation,
            caps,
            active,
            stability,
        } = self;
        // Until the remainder branch proves otherwise, the allotments are
        // a pure function of the integerized requests.
        *stability = AllocationStability::ByCeilings;
        caps.clear();
        caps.extend(requests.iter().map(|&d| ceil_request(d)));
        let mut remaining = *processors as u64;
        active.clear();
        active.extend(0..n);

        // Water-filling: satisfy every job whose cap fits under the
        // current equal share, re-deriving the share until a fixpoint.
        loop {
            if active.is_empty() || remaining == 0 {
                break;
            }
            let share = remaining / active.len() as u64;
            let before = active.len();
            active.retain(|&i| {
                if caps[i] as u64 <= share {
                    out[i] = caps[i];
                    remaining -= caps[i] as u64;
                    false
                } else {
                    true
                }
            });
            if active.len() == before {
                break; // every remaining job wants more than the share
            }
        }

        // Split what is left evenly among the deprived jobs; the `extra`
        // single processors rotate across calls.
        if !active.is_empty() && remaining > 0 {
            let len = active.len() as u64;
            let base = remaining / len;
            let extra = remaining % len;
            let offset = *rotation % len;
            for (k, &i) in active.iter().enumerate() {
                let slot = (k as u64 + len - offset) % len;
                let bonus = u64::from(slot < extra);
                out[i] = ((base + bonus).min(caps[i] as u64)) as u32;
            }
            if extra > 0 {
                // The rotation advanced: replaying the same requests
                // would hand the bonus processors to different jobs.
                *stability = AllocationStability::Unstable;
                *rotation = rotation.wrapping_add(extra);
            }
        }

        debug_assert_eq!(invariants::validate(requests, out, self.processors), Ok(()));
    }

    fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
        out.clear();
        out.append(&mut self.availabilities(requests));
        true
    }

    fn total_processors(&self) -> u32 {
        self.processors
    }

    fn name(&self) -> &'static str {
        "deq"
    }

    fn allocation_stability(&self) -> AllocationStability {
        self.stability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::{is_fair, is_non_reserving, validate};

    fn deq(p: u32) -> DynamicEquiPartition {
        DynamicEquiPartition::new(p)
    }

    #[test]
    fn light_demand_fully_granted() {
        let mut d = deq(16);
        let a = d.allocate(&[3.0, 5.0, 2.0]);
        assert_eq!(a, vec![3, 5, 2]);
    }

    #[test]
    fn heavy_demand_split_equally() {
        let mut d = deq(12);
        let a = d.allocate(&[100.0, 100.0, 100.0]);
        assert_eq!(a, vec![4, 4, 4]);
    }

    #[test]
    fn small_requesters_release_share_to_big_ones() {
        let mut d = deq(12);
        // Equal share is 4; job 0 takes only 1, freeing share for others.
        let a = d.allocate(&[1.0, 100.0, 100.0]);
        assert_eq!(a[0], 1);
        assert_eq!(a[1] + a[2], 11);
        assert!(a[1].abs_diff(a[2]) <= 1);
    }

    #[test]
    fn remainder_rotates_across_quanta() {
        let mut d = deq(10);
        let reqs = [100.0, 100.0, 100.0];
        let a1 = d.allocate(&reqs);
        let a2 = d.allocate(&reqs);
        // 10 = 3 + 3 + 3 + 1: one job gets the extra processor, and it
        // should be a different job the next time around.
        let lucky1 = a1.iter().position(|&x| x == 4).expect("one +1 slot");
        let lucky2 = a2.iter().position(|&x| x == 4).expect("one +1 slot");
        assert_ne!(lucky1, lucky2, "remainder should rotate");
    }

    #[test]
    fn stability_tracks_the_rotation() {
        let mut d = deq(12);
        assert_eq!(d.allocation_stability(), AllocationStability::Unstable);
        // Satisfied regime: pure function of the ceilings.
        d.allocate(&[3.0, 5.0, 2.0]);
        assert_eq!(d.allocation_stability(), AllocationStability::ByCeilings);
        // Deprived with an even split (12 = 4+4+4): still stable.
        d.allocate(&[100.0, 100.0, 100.0]);
        assert_eq!(d.allocation_stability(), AllocationStability::ByCeilings);
        // Deprived with a remainder (12 = 7+5): the rotation advances.
        d.allocate(&[100.0, 100.0, 100.0, 100.0, 100.0]);
        assert_eq!(d.allocation_stability(), AllocationStability::Unstable);
    }

    #[test]
    fn single_job_gets_min_of_request_and_machine() {
        let mut d = deq(128);
        assert_eq!(d.allocate(&[1000.0]), vec![128]);
        assert_eq!(d.allocate(&[37.2]), vec![38]);
    }

    #[test]
    fn empty_request_set() {
        let mut d = deq(8);
        assert!(d.allocate(&[]).is_empty());
    }

    #[test]
    fn zero_request_gets_zero() {
        let mut d = deq(8);
        let a = d.allocate(&[0.0, 5.0]);
        assert_eq!(a, vec![0, 5]);
    }

    #[test]
    fn contract_invariants_hold_on_mixed_workload() {
        let mut d = deq(7);
        let reqs = [0.5, 9.0, 2.0, 40.0, 1.0];
        let a = d.allocate(&reqs);
        assert_eq!(validate(&reqs, &a, 7), Ok(()));
        assert!(is_non_reserving(&reqs, &a, 7));
        assert!(is_fair(&reqs, &a));
    }

    #[test]
    fn availabilities_bound_allotments() {
        let mut d = deq(9);
        let reqs = [2.0, 50.0, 4.0];
        // Probe availability first, then allocate — the engine's order.
        // (The probes run on clones, so the rotation state the real
        // allocation sees is the same one the probes saw.)
        let p = d.availabilities(&reqs);
        let a = d.allocate(&reqs);
        for i in 0..reqs.len() {
            assert!(a[i] <= p[i], "a={a:?} p={p:?}");
            // a_i = min(ceil(d_i), p_i) per the conservative model.
            assert_eq!(a[i], ceil_request(reqs[i]).min(p[i]), "a={a:?} p={p:?}");
        }
    }

    #[test]
    fn fairness_under_many_equal_requests() {
        let mut d = deq(10);
        let reqs = vec![3.0; 7]; // demand 21 > 10
        let a = d.allocate(&reqs);
        assert!(is_fair(&reqs, &a));
        assert_eq!(a.iter().map(|&x| x as u64).sum::<u64>(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processor_machine_rejected() {
        let _ = deq(0);
    }
}
