//! Scripted (adversarial) single-job availability.

use crate::{ceil_request, invariants, Allocator};

/// A single-job allocator whose per-quantum availability `p(q)` follows
/// a caller-supplied script.
///
/// The paper's trim analysis (Section 6.1) limits the power of an OS
/// allocator that behaves *adversarially* — e.g. offering many
/// processors exactly when the job's parallelism is low. `Scripted`
/// realises such adversaries for the Theorem-3 experiments: quantum `q`
/// grants `a(q) = min(ceil(d(q)), p(q))` with `p(q)` read from the
/// script (repeating the last entry, or cycling if so configured).
///
/// With a constant script equal to the machine size this is also the
/// "unconstrained environment" of the paper's first simulation set, in
/// which every request is granted (Section 7.2).
#[derive(Debug, Clone)]
pub struct Scripted {
    processors: u32,
    script: Vec<u32>,
    cycle: bool,
    cursor: usize,
}

impl Scripted {
    /// Creates a scripted allocator; availability for quantum `q`
    /// (0-based) is `script[q]`, with the last entry repeated once the
    /// script runs out.
    ///
    /// # Panics
    ///
    /// Panics if the script is empty or any entry exceeds `processors`.
    pub fn new(processors: u32, script: Vec<u32>) -> Self {
        assert!(processors > 0, "a machine needs at least one processor");
        assert!(!script.is_empty(), "availability script must be non-empty");
        assert!(
            script.iter().all(|&p| p <= processors),
            "scripted availability cannot exceed the machine size"
        );
        Self {
            processors,
            script,
            cycle: false,
            cursor: 0,
        }
    }

    /// As [`Scripted::new`], but the script repeats from the start
    /// instead of holding its last value.
    pub fn cycling(processors: u32, script: Vec<u32>) -> Self {
        let mut s = Self::new(processors, script);
        s.cycle = true;
        s
    }

    /// Constant availability: every request is granted up to the machine
    /// size (the paper's unconstrained single-job environment).
    pub fn ample(processors: u32) -> Self {
        Self::new(processors, vec![processors])
    }

    /// The availability that will apply to the next `allocate` call.
    fn peek_availability(&self) -> u32 {
        let idx = if self.cycle {
            self.cursor % self.script.len()
        } else {
            self.cursor.min(self.script.len() - 1)
        };
        self.script[idx]
    }
}

impl Allocator for Scripted {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        assert!(
            requests.len() <= 1,
            "the scripted allocator models a single-job environment"
        );
        out.clear();
        if requests.is_empty() {
            return;
        }
        let p = self.peek_availability();
        self.cursor += 1;
        out.push(ceil_request(requests[0]).min(p));
        debug_assert_eq!(invariants::validate(requests, out, self.processors), Ok(()));
    }

    fn availabilities(&mut self, requests: &[f64]) -> Vec<u32> {
        // The script *is* the availability; do not advance the cursor.
        if requests.is_empty() {
            Vec::new()
        } else {
            vec![self.peek_availability()]
        }
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
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follows_script_then_holds() {
        let mut s = Scripted::new(16, vec![4, 8, 2]);
        assert_eq!(s.allocate(&[100.0]), vec![4]);
        assert_eq!(s.allocate(&[100.0]), vec![8]);
        assert_eq!(s.allocate(&[100.0]), vec![2]);
        assert_eq!(s.allocate(&[100.0]), vec![2], "holds last entry");
    }

    #[test]
    fn cycling_script_wraps() {
        let mut s = Scripted::cycling(16, vec![4, 8]);
        assert_eq!(s.allocate(&[100.0]), vec![4]);
        assert_eq!(s.allocate(&[100.0]), vec![8]);
        assert_eq!(s.allocate(&[100.0]), vec![4]);
    }

    #[test]
    fn conservative_wrt_request() {
        let mut s = Scripted::new(16, vec![10]);
        assert_eq!(s.allocate(&[3.5]), vec![4]);
    }

    #[test]
    fn ample_grants_every_request() {
        let mut s = Scripted::ample(128);
        assert_eq!(s.allocate(&[1000.0]), vec![128]);
        assert_eq!(s.allocate(&[37.0]), vec![37]);
    }

    #[test]
    fn availabilities_do_not_advance_script() {
        let mut s = Scripted::new(16, vec![4, 8]);
        assert_eq!(s.availabilities(&[100.0]), vec![4]);
        assert_eq!(s.allocate(&[100.0]), vec![4]);
        assert_eq!(s.availabilities(&[100.0]), vec![8]);
    }

    #[test]
    #[should_panic(expected = "single-job")]
    fn multi_job_rejected() {
        let mut s = Scripted::ample(8);
        let _ = s.allocate(&[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot exceed the machine size")]
    fn oversized_script_rejected() {
        let _ = Scripted::new(8, vec![9]);
    }
}
