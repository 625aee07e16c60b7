//! Pending-event layer for the event-driven open-system driver.
//!
//! The quantum-by-quantum open loop burned a full allocate/step/observe
//! round on every quantum even when provably nothing could change. The
//! event-driven driver instead treats the run as a sequence of
//! *events* — the next arrival, the next saturation-trend evaluation,
//! the quanta-budget edge, and (inside the core) the earliest possible
//! completion or request change — and jumps between them with
//! [`QuantumCore::advance_frozen`](abg_sim::QuantumCore::advance_frozen).
//!
//! This module supplies the driver-level piece: [`frozen_window_bound`],
//! the arithmetic folding the driver-level event horizons into the
//! largest quantum count the next frozen window may cover without
//! skipping an observable event. Keeping it here keeps the driver loop
//! free of event bookkeeping and makes the bound unit-testable against
//! the legacy loop's admission and check points.

/// The largest number of quanta the next frozen window may cover
/// without stepping over a driver-level event, given the current
/// boundary `now` and quantum length `len`:
///
/// * **arrival** — the window must close before the quantum boundary at
///   which `next_arrival` would be admitted (the first boundary at or
///   after it), so a frozen quantum may start at `now + j·len` only
///   while that is strictly before the arrival;
/// * **trend check** — `trend_horizon` quanta until the saturation
///   detector's next trend evaluation (between evaluations only the
///   hard population cap is live, and a constant population cannot
///   newly cross it);
/// * **budget** — the window may reach, but never pass, `max_quanta`
///   total executed quanta, so the horizon-exhausted report carries the
///   same numbers the per-quantum loop would have reported.
///
/// The core further bounds the window by completion and
/// request-stability lookahead; this function only folds the horizons
/// the driver owns.
pub fn frozen_window_bound(
    now: u64,
    len: u64,
    next_arrival: u64,
    trend_horizon: u64,
    quanta: u64,
    max_quanta: u64,
) -> u64 {
    let arrival = if next_arrival <= now {
        0
    } else {
        (next_arrival - now).div_ceil(len)
    };
    let budget = max_quanta.saturating_sub(quanta);
    arrival.min(trend_horizon).min(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bound_respects_each_horizon() {
        // Arrival strictly inside the window: ceil((95-40)/10) = 6
        // quanta may start before the boundary at 100 admits it.
        assert_eq!(frozen_window_bound(40, 10, 95, 1000, 0, 1000), 6);
        // Arrival exactly on a boundary: that quantum is not frozen.
        assert_eq!(frozen_window_bound(40, 10, 50, 1000, 0, 1000), 1);
        // Arrival due now (or overdue): no window at all.
        assert_eq!(frozen_window_bound(40, 10, 40, 1000, 0, 1000), 0);
        assert_eq!(frozen_window_bound(40, 10, 12, 1000, 0, 1000), 0);
        // Trend evaluation closer than the arrival.
        assert_eq!(frozen_window_bound(40, 10, 9999, 3, 0, 1000), 3);
        // Budget edge: may reach max_quanta but not pass it.
        assert_eq!(frozen_window_bound(40, 10, 9999, 1000, 998, 1000), 2);
        assert_eq!(frozen_window_bound(40, 10, 9999, 1000, 1000, 1000), 0);
    }
}
