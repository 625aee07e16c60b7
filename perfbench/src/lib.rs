//! End-to-end and per-layer benchmark of the ABG simulator.
//!
//! The benchmark drives the workspace's public API in one process on one
//! worker thread: it builds a workload's seeded inputs, times its set-up,
//! then repeats passes of the workload's simulations in a closed loop and
//! checks every run's outcome. See `README.md` in this directory for the
//! workloads, the metrics and what each layer metric should move.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod check;
pub mod layers;
pub mod measure;
pub mod workloads;
