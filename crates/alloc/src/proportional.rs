//! Proportional-share allocation.

use crate::{ceil_request, invariants, AllocationStability, Allocator};

/// Allocates processors in proportion to the requests.
///
/// Each job's ideal share is `P·d_i / Σd`; jobs receive the floor of the
/// ideal (capped by their request), and the leftover processors go one
/// at a time to the uncapped jobs with the largest fractional remainder
/// (largest-remainder apportionment). Conservative and non-reserving,
/// but **not** fair in the equi-partition sense: a job can starve
/// smaller requesters by inflating its request, which is one reason the
/// paper's framework prefers DEQ.
#[derive(Debug, Clone)]
pub struct Proportional {
    processors: u32,
    /// Scratch (integerized requests), reused across `allocate_into`
    /// calls.
    caps: Vec<u32>,
    /// Scratch (fractional remainders for largest-remainder rounds).
    fractions: Vec<(f64, usize)>,
    /// Stability verdict of the last `allocate_into` call.
    stability: AllocationStability,
}

impl Proportional {
    /// Creates a proportional-share policy over a `processors`-processor
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "a machine needs at least one processor");
        Self {
            processors,
            caps: Vec::new(),
            fractions: Vec::new(),
            stability: AllocationStability::Unstable,
        }
    }
}

impl Allocator for Proportional {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        out.clear();
        let n = requests.len();
        if n == 0 {
            self.stability = AllocationStability::ByCeilings;
            return;
        }
        let Self {
            processors,
            caps,
            fractions,
            stability,
        } = self;
        caps.clear();
        caps.extend(requests.iter().map(|&d| ceil_request(d)));
        let demand: u64 = caps.iter().map(|&c| c as u64).sum();
        let p = *processors as u64;
        if demand <= p {
            // Everyone fits: grant everything (non-reserving). The
            // allotments are exactly the ceilings, so repeating the call
            // with ceiling-equal requests reproduces them.
            *stability = AllocationStability::ByCeilings;
            out.extend_from_slice(caps);
            return;
        }
        // Overloaded: the ideal shares divide the *raw* requests, so two
        // requests with equal ceilings can still split differently.
        *stability = AllocationStability::ByExactRequests;
        let total: f64 = requests.iter().sum();
        out.resize(n, 0);
        let mut granted = 0u64;
        fractions.clear();
        for i in 0..n {
            let ideal = p as f64 * requests[i] / total;
            let base = (ideal.floor() as u64).min(caps[i] as u64) as u32;
            out[i] = base;
            granted += base as u64;
            fractions.push((ideal - base as f64, i));
        }
        // Largest remainder first; ties broken by index for determinism.
        fractions.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let mut leftover = p - granted;
        while leftover > 0 {
            let mut progressed = false;
            for &(_, i) in fractions.iter() {
                if leftover == 0 {
                    break;
                }
                if out[i] < caps[i] {
                    out[i] += 1;
                    leftover -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // every job is at its cap
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
        "proportional"
    }

    fn allocation_stability(&self) -> AllocationStability {
        self.stability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::{is_non_reserving, validate};

    #[test]
    fn light_demand_fully_granted() {
        let mut pr = Proportional::new(16);
        assert_eq!(pr.allocate(&[3.0, 4.0]), vec![3, 4]);
    }

    #[test]
    fn heavy_demand_split_proportionally() {
        let mut pr = Proportional::new(12);
        let a = pr.allocate(&[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![2, 4, 6]);
    }

    #[test]
    fn remainders_are_apportioned() {
        let mut pr = Proportional::new(10);
        let reqs = [30.0, 30.0, 30.0];
        let a = pr.allocate(&reqs);
        assert_eq!(a.iter().sum::<u32>(), 10);
        assert!(a.iter().all(|&x| x == 3 || x == 4));
        assert!(is_non_reserving(&reqs, &a, 10));
    }

    #[test]
    fn big_requester_dominates() {
        let mut pr = Proportional::new(10);
        let a = pr.allocate(&[90.0, 10.0]);
        assert_eq!(a, vec![9, 1], "proportional is not equi-partition fair");
    }

    #[test]
    fn contract_holds() {
        let mut pr = Proportional::new(9);
        let reqs = [0.4, 7.3, 2.0, 100.0];
        let a = pr.allocate(&reqs);
        assert_eq!(validate(&reqs, &a, 9), Ok(()));
        assert!(is_non_reserving(&reqs, &a, 9));
    }

    #[test]
    fn empty_request_set() {
        let mut pr = Proportional::new(4);
        assert!(pr.allocate(&[]).is_empty());
    }

    #[test]
    fn stability_tracks_the_branch() {
        let mut pr = Proportional::new(16);
        assert_eq!(pr.allocation_stability(), AllocationStability::Unstable);
        pr.allocate(&[3.0, 4.0]);
        assert_eq!(pr.allocation_stability(), AllocationStability::ByCeilings);
        pr.allocate(&[10.0, 20.0, 30.0]);
        assert_eq!(
            pr.allocation_stability(),
            AllocationStability::ByExactRequests,
            "overloaded shares divide the raw requests"
        );
    }
}
