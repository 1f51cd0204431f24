//! End-to-end and per-layer benchmark of the talft pipeline.
//!
//! Three workloads, each a closed loop over programs in one process:
//! [`verify`] (the full static + dynamic verdict per program), [`campaign`]
//! (fault campaigns only) and [`frontend`] (compiler, checker, machine,
//! simulator and mutant checking). See `README.md` beside this crate for
//! why each exists and which metrics each layer should move.

pub mod campaign;
pub mod common;
pub mod frontend;
pub mod harness;
pub mod inputs;
pub mod stats;
pub mod trace;
pub mod verify;
