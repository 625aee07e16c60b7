//! Static equal-share ("round-robin") allocation.

use crate::{ceil_request, invariants, Allocator};

/// Equal-share allocation without redistribution.
///
/// Every live job is offered exactly `P / n` processors (the integer
/// remainder rotating across quanta) and takes the minimum of that offer
/// and its request. Unlike [DEQ](crate::DynamicEquiPartition), a job
/// requesting *less* than its share does **not** release the difference
/// to the others — the policy is fair and conservative but *reserving*,
/// which is precisely the inefficiency DEQ removes. Kept as an
/// experimental contrast (He et al. also analysed round-robin
/// allocators).
#[derive(Debug, Clone)]
pub struct RoundRobin {
    processors: u32,
    rotation: u64,
}

impl RoundRobin {
    /// Creates an equal-share policy over a `processors`-processor
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "a machine needs at least one processor");
        Self {
            processors,
            rotation: 0,
        }
    }
}

impl Allocator for RoundRobin {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        out.clear();
        let n = requests.len();
        if n == 0 {
            return;
        }
        let len = n as u64;
        let base = self.processors as u64 / len;
        let extra = self.processors as u64 % len;
        let offset = self.rotation % len;
        out.extend(requests.iter().enumerate().map(|(k, &d)| {
            let slot = (k as u64 + len - offset) % len;
            let share = base + u64::from(slot < extra);
            (share.min(ceil_request(d) as u64)) as u32
        }));
        self.rotation = self.rotation.wrapping_add(extra);
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
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::{is_fair, is_non_reserving, validate};

    #[test]
    fn shares_are_equal() {
        let mut rr = RoundRobin::new(12);
        let a = rr.allocate(&[100.0, 100.0, 100.0]);
        assert_eq!(a, vec![4, 4, 4]);
    }

    #[test]
    fn does_not_redistribute_unused_share() {
        let mut rr = RoundRobin::new(12);
        let reqs = [1.0, 100.0, 100.0];
        let a = rr.allocate(&reqs);
        assert_eq!(a, vec![1, 4, 4], "round-robin reserves the slack");
        assert!(!is_non_reserving(&reqs, &a, 12));
        assert!(is_fair(&reqs, &a));
        assert_eq!(validate(&reqs, &a, 12), Ok(()));
    }

    #[test]
    fn single_job_capped_by_machine() {
        let mut rr = RoundRobin::new(8);
        assert_eq!(rr.allocate(&[100.0]), vec![8]);
    }

    #[test]
    fn remainder_rotates() {
        let mut rr = RoundRobin::new(7);
        let reqs = [100.0, 100.0, 100.0];
        let a1 = rr.allocate(&reqs);
        let a2 = rr.allocate(&reqs);
        assert_eq!(a1.iter().sum::<u32>(), 7);
        assert_ne!(a1, a2, "the +1 slots should move between quanta");
    }

    #[test]
    fn empty_request_set() {
        let mut rr = RoundRobin::new(4);
        assert!(rr.allocate(&[]).is_empty());
    }
}
