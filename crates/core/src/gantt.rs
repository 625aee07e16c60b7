//! Terminal Gantt rendering of multiprogrammed runs: one row per job,
//! one column per quantum, glyph density showing the allotment.
//!
//! Built on the per-job traces that
//! [`MultiJobSim::with_traces`](abg_sim::MultiJobSim::with_traces) leaves
//! in each finished job's [`trace`](abg_sim::CompletedJob::trace); the
//! picture makes DEQ's water-filling and the schedulers' request
//! dynamics directly visible, e.g. A-Greedy's columns flicker while
//! ABG's stay solid.

use abg_sim::MultiJobOutcome;

/// Glyph ramp from idle to a full machine share.
const RAMP: [char; 6] = ['.', '1', '2', '4', '8', '#'];

/// Maps an allotment to a density glyph given the machine size.
fn glyph(allotment: u32, processors: u32) -> char {
    if allotment == 0 {
        return RAMP[0];
    }
    match allotment {
        1 => RAMP[1],
        2..=3 => RAMP[2],
        4..=7 => RAMP[3],
        8..=15 => RAMP[4],
        _ if allotment * 2 >= processors => RAMP[5],
        _ => RAMP[4],
    }
}

/// Renders the allotment Gantt of a traced multiprogrammed run.
///
/// Each row is a job of `outcome.jobs`, drawn from its own `trace`;
/// column `q` shows the allotment the job held in global quantum `q`
/// (`.` = not live / zero). Runs longer than `max_columns` quanta are
/// right-truncated with an ellipsis marker.
///
/// # Panics
///
/// Panics if no job carries a trace (run the simulation with
/// `with_traces`).
pub fn render_gantt(
    outcome: &MultiJobOutcome,
    quantum_len: u64,
    processors: u32,
    max_columns: usize,
) -> String {
    assert!(
        outcome.jobs.iter().any(|j| !j.trace.is_empty()),
        "no traces recorded; build the simulator with with_traces()"
    );
    let total_quanta = outcome
        .jobs
        .iter()
        .flat_map(|j| j.trace.iter())
        .map(|r| (r.start_step / quantum_len) as usize + 1)
        .max()
        .unwrap_or(0);
    let columns = total_quanta.min(max_columns);

    let mut out = String::new();
    out.push_str(&format!(
        "allotment per quantum (L = {quantum_len}, P = {processors}; \
         glyphs .=0 1 2 4 8 #=P/2+)\n"
    ));
    for (i, job) in outcome.jobs.iter().enumerate() {
        let mut row = vec!['.'; columns];
        for r in &job.trace {
            let q = (r.start_step / quantum_len) as usize;
            if q < columns {
                row[q] = glyph(r.allotment, processors);
            }
        }
        let truncated = if total_quanta > columns { "…" } else { "" };
        out.push_str(&format!(
            "job {i:>3} |{}|{} done @ {}\n",
            row.iter().collect::<String>(),
            truncated,
            job.completion
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_alloc::DynamicEquiPartition;
    use abg_control::AControl;
    use abg_dag::PhasedJob;
    use abg_sched::PipelinedExecutor;
    use abg_sim::MultiJobSim;

    fn traced_outcome() -> MultiJobOutcome {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(8), 10).with_traces();
        sim.add_job(
            Box::new(PipelinedExecutor::new(PhasedJob::constant(4, 60))),
            Box::new(AControl::new(0.2)),
            0,
        );
        sim.add_job(
            Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 30))),
            Box::new(AControl::new(0.2)),
            20,
        );
        sim.run()
    }

    #[test]
    fn gantt_shape_matches_run() {
        let out = traced_outcome();
        let g = render_gantt(&out, 10, 8, 80);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per job:\n{g}");
        assert!(lines[1].starts_with("job   0 |"));
        // Job 1 released at step 20: its first two quanta are idle dots.
        let row1 = lines[2].split('|').nth(1).expect("gantt row");
        assert!(row1.starts_with(".."), "late release shows as idle: {row1}");
    }

    #[test]
    fn gantt_truncates_long_runs() {
        let out = traced_outcome();
        let g = render_gantt(&out, 10, 8, 3);
        assert!(g.contains('…'));
    }

    #[test]
    fn glyphs_are_monotone_in_allotment() {
        let order: Vec<char> = [0u32, 1, 2, 4, 8, 64]
            .iter()
            .map(|&a| glyph(a, 128))
            .collect();
        assert_eq!(order, vec!['.', '1', '2', '4', '8', '#']);
    }

    #[test]
    #[should_panic(expected = "no traces")]
    fn untraced_outcome_rejected() {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(4), 10);
        sim.add_job(
            Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 20))),
            Box::new(AControl::new(0.2)),
            0,
        );
        let out = sim.run();
        let _ = render_gantt(&out, 10, 4, 40);
    }
}
