//! Quantum classification and derived per-run metrics.

use crate::trace::QuantumRecord;

/// The trim-analysis classification of a quantum (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumClass {
    /// A full quantum that counts toward speedup: the request was
    /// deprived (`a(q) < d(q)`) **and** the allotment was below the
    /// measured parallelism (`a(q) < A(q)`).
    Accounted,
    /// A full quantum that the analysis trims: the request was satisfied
    /// (`a(q) = d(q)`) or the allotment reached the parallelism
    /// (`a(q) ≥ A(q)`).
    Deductible,
    /// A non-full quantum (work missing on some step) — only the job's
    /// last quantum can be one under a positive allotment.
    NonFull,
}

/// Classifies a traced quantum per the paper's definitions.
pub fn classify(record: &QuantumRecord) -> QuantumClass {
    if !record.stats.is_full() {
        return QuantumClass::NonFull;
    }
    let deprived = record.deprived();
    let below_parallelism = match record.stats.average_parallelism() {
        Some(a) => (record.allotment as f64) < a,
        None => false,
    };
    if deprived && below_parallelism {
        QuantumClass::Accounted
    } else {
        QuantumClass::Deductible
    }
}

/// Aggregate classification counts and availability data for one job's
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Number of accounted quanta, `|A|`.
    pub accounted: u64,
    /// Number of deductible quanta, `|D|`.
    pub deductible: u64,
    /// Number of non-full quanta, `|N|` (≤ 1 under positive allotments).
    pub non_full: u64,
    /// Availability per quantum, where recorded (for trim analysis).
    pub availabilities: Vec<u32>,
    /// Mean availability over accounted quanta (the `P` of Theorem 3's
    /// proof), if any quantum was accounted and availability recorded.
    pub mean_accounted_availability: Option<f64>,
}

impl JobMetrics {
    /// Computes metrics from a quantum trace.
    pub fn from_trace(trace: &[QuantumRecord]) -> Self {
        let mut accounted = 0u64;
        let mut deductible = 0u64;
        let mut non_full = 0u64;
        let mut availabilities = Vec::with_capacity(trace.len());
        let mut acc_avail_sum = 0u64;
        let mut acc_avail_n = 0u64;
        for r in trace {
            let class = classify(r);
            match class {
                QuantumClass::Accounted => accounted += 1,
                QuantumClass::Deductible => deductible += 1,
                QuantumClass::NonFull => non_full += 1,
            }
            if let Some(p) = r.availability {
                availabilities.push(p);
                if class == QuantumClass::Accounted {
                    acc_avail_sum += p as u64;
                    acc_avail_n += 1;
                }
            }
        }
        JobMetrics {
            accounted,
            deductible,
            non_full,
            availabilities,
            mean_accounted_availability: (acc_avail_n > 0)
                .then(|| acc_avail_sum as f64 / acc_avail_n as f64),
        }
    }

    /// Total quanta classified.
    pub fn total(&self) -> u64 {
        self.accounted + self.deductible + self.non_full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_sched::QuantumStats;

    fn record(request: f64, allotment: u32, work: u64, span: f64, full: bool) -> QuantumRecord {
        let quantum_len = 10;
        QuantumRecord {
            index: 1,
            start_step: 0,
            request,
            allotment,
            availability: Some(allotment),
            stats: QuantumStats {
                allotment,
                quantum_len,
                steps_worked: if full { quantum_len } else { quantum_len / 2 },
                work,
                span,
                completed: !full,
            },
        }
    }

    #[test]
    fn deprived_below_parallelism_is_accounted() {
        // d = 8, a = 4, A = 40/5 = 8 > 4.
        let r = record(8.0, 4, 40, 5.0, true);
        assert_eq!(classify(&r), QuantumClass::Accounted);
    }

    #[test]
    fn satisfied_quantum_is_deductible() {
        let r = record(4.0, 4, 40, 5.0, true);
        assert_eq!(classify(&r), QuantumClass::Deductible);
    }

    #[test]
    fn deprived_but_at_parallelism_is_deductible() {
        // a = 8 ≥ A = 8 even though deprived (d = 16).
        let r = record(16.0, 8, 40, 5.0, true);
        assert_eq!(classify(&r), QuantumClass::Deductible);
    }

    #[test]
    fn non_full_quantum_detected() {
        let r = record(4.0, 4, 10, 2.0, false);
        assert_eq!(classify(&r), QuantumClass::NonFull);
    }

    #[test]
    fn from_trace_aggregates() {
        let trace = vec![
            record(8.0, 4, 40, 5.0, true),  // accounted
            record(4.0, 4, 40, 5.0, true),  // deductible
            record(4.0, 4, 10, 2.0, false), // non-full
        ];
        let m = JobMetrics::from_trace(&trace);
        assert_eq!(m.accounted, 1);
        assert_eq!(m.deductible, 1);
        assert_eq!(m.non_full, 1);
        assert_eq!(m.total(), 3);
        assert_eq!(m.availabilities.len(), 3);
        assert_eq!(m.mean_accounted_availability, Some(4.0));
    }

    #[test]
    fn empty_trace_is_empty_metrics() {
        let m = JobMetrics::from_trace(&[]);
        assert_eq!(m.total(), 0);
        assert_eq!(m.mean_accounted_availability, None);
    }
}
