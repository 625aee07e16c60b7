//! Workspace-root shim crate for the ABG reproduction.
//!
//! This package exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`. The actual library
//! surface lives in the [`abg`] facade crate and the per-subsystem crates
//! (`abg-dag`, `abg-sched`, `abg-control`, `abg-alloc`, `abg-sim`,
//! `abg-workload`).

pub use abg::prelude;

/// Compiles and runs the README's Rust blocks as doctests, so its
/// library example cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
