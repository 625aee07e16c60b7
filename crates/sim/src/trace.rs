//! Per-quantum trace records.

use abg_sched::QuantumStats;

/// Everything the two-level scheduler saw and did in one quantum of one
/// job: the standing request, the grant, the availability under the
/// policy, and the measured statistics.
///
/// Traces are the raw material for the paper's trajectory figures
/// (Figures 1 and 4) and for the quantum classification of the trim
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumRecord {
    /// Quantum index `q`, 1-based as in the paper.
    pub index: u32,
    /// Absolute step at which the quantum started.
    pub start_step: u64,
    /// The request `d(q)` standing when the quantum was allocated.
    pub request: f64,
    /// The allotment `a(q)` granted by the allocator.
    pub allotment: u32,
    /// The availability `p(q)` under the allocator's policy, if the
    /// engine recorded it (`a(q) = min(ceil d(q), p(q))`).
    pub availability: Option<u32>,
    /// The statistics measured by the task scheduler.
    pub stats: QuantumStats,
}

impl QuantumRecord {
    /// Whether the job was *deprived* in this quantum: granted less than
    /// it requested (`a(q) < d(q)`).
    pub fn deprived(&self) -> bool {
        (self.allotment as f64) < self.request
    }

    /// Whether the request was *satisfied* (not deprived).
    pub fn satisfied(&self) -> bool {
        !self.deprived()
    }
}

/// Renders a trace as CSV (header + one line per quantum) for offline
/// analysis or plotting outside this crate.
pub fn trace_to_csv(records: &[QuantumRecord]) -> String {
    let mut out = String::from(
        "quantum,start_step,request,allotment,availability,work,span,steps_worked,completed\n",
    );
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.index,
            r.start_step,
            r.request,
            r.allotment,
            r.availability.map_or(String::new(), |p| p.to_string()),
            r.stats.work,
            r.stats.span,
            r.stats.steps_worked,
            r.stats.completed,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(request: f64, allotment: u32) -> QuantumRecord {
        QuantumRecord {
            index: 1,
            start_step: 0,
            request,
            allotment,
            availability: None,
            stats: QuantumStats {
                allotment,
                quantum_len: 10,
                steps_worked: 10,
                work: 10,
                span: 1.0,
                completed: false,
            },
        }
    }

    #[test]
    fn deprived_iff_granted_less_than_requested() {
        assert!(record(5.0, 4).deprived());
        assert!(record(5.0, 5).satisfied());
        // Integral grant of a fractional request satisfies it.
        assert!(record(4.2, 5).satisfied());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = trace_to_csv(&[record(5.0, 4), record(3.0, 3)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("quantum,start_step,request"));
        assert!(lines[1].starts_with("1,0,5,4,"));
        // Unrecorded availability renders as an empty cell.
        assert!(lines[1].contains(",,") || lines[1].split(',').nth(4) == Some(""));
    }

    #[test]
    fn csv_of_empty_trace_is_header_only() {
        assert_eq!(trace_to_csv(&[]).lines().count(), 1);
    }

    /// The exported fields of one record, in column order — what a CSV
    /// consumer can reconstruct.
    type CsvFields = (u32, u64, f64, u32, Option<u32>, u64, f64, u64, bool);

    fn exported(r: &QuantumRecord) -> CsvFields {
        (
            r.index,
            r.start_step,
            r.request,
            r.allotment,
            r.availability,
            r.stats.work,
            r.stats.span,
            r.stats.steps_worked,
            r.stats.completed,
        )
    }

    fn parse_line(line: &str) -> CsvFields {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), 9, "column count drifted: {line}");
        (
            cells[0].parse().unwrap(),
            cells[1].parse().unwrap(),
            cells[2].parse().unwrap(),
            cells[3].parse().unwrap(),
            (!cells[4].is_empty()).then(|| cells[4].parse().unwrap()),
            cells[5].parse().unwrap(),
            cells[6].parse().unwrap(),
            cells[7].parse().unwrap(),
            cells[8].parse().unwrap(),
        )
    }

    #[test]
    fn csv_round_trips_every_exported_field() {
        let mut with_availability = record(6.5, 6);
        with_availability.availability = Some(12);
        with_availability.index = 7;
        with_availability.start_step = 640;
        with_availability.stats.span = 2.25; // dyadic: exact through {}
        with_availability.stats.completed = true;
        let records = [record(5.0, 4), with_availability, record(0.0, 0)];

        let csv = trace_to_csv(&records);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 9, "header/field count drifted");
        let parsed: Vec<CsvFields> = lines.map(parse_line).collect();
        assert_eq!(parsed.len(), records.len());
        for (got, want) in parsed.iter().zip(records.iter().map(exported)) {
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn deprivation_boundary_cases() {
        // Exactly the requested grant: satisfied, not deprived.
        assert!(record(4.0, 4).satisfied());
        // One processor short of an integral request: deprived.
        assert!(record(4.0, 3).deprived());
        // Any fractional request above the grant is deprivation...
        assert!(record(4.000001, 4).deprived());
        // ...while the integral grant covering the fraction satisfies.
        assert!(record(3.999999, 4).satisfied());
        // A zero request can never be deprived, even by a zero grant.
        assert!(record(0.0, 0).satisfied());
        // deprived/satisfied partition every record.
        for r in [record(4.0, 4), record(4.5, 4), record(0.0, 1)] {
            assert_ne!(r.deprived(), r.satisfied());
        }
    }
}
