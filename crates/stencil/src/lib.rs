//! # stencil-lab — the paper's stencil workloads on the simulated node
//!
//! Implements 2D5pt and 3D7pt iterative Jacobi solvers in every code
//! variant the paper evaluates (§6.1.1):
//!
//! | Variant | Communication | Synchronization | Kernels |
//! |---|---|---|---|
//! | Baseline Copy | host `cudaMemcpyAsync` | host barrier | discrete |
//! | Baseline Copy Overlap | host `cudaMemcpyAsync` | host barrier | discrete, split streams |
//! | Baseline P2P | device ld/st | host barrier | discrete |
//! | Baseline NVSHMEM | device put+signal | device signal waits, host launches | discrete + sync kernel |
//! | CPU-Free | device put+signal | fully device-side | persistent |
//! | CPU-Free (PERKS) | device put+signal | fully device-side | persistent, cached |
//!
//! All variants run the *identical numerical problem* and, in
//! [`gpu_sim::ExecMode::Full`], are verified bitwise against a sequential
//! reference ([`Domain::verify`]). Large-domain sweeps run in
//! `TimingOnly` mode with the same protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod degraded;
pub mod domain;
pub mod ft;
pub mod geometry;
pub mod grid;
pub mod variants;

pub use config::{Slab, StencilConfig, Workload};
pub use degraded::{degraded_reference, run_cpu_free_degraded, DegradedExecuted};
pub use domain::{Domain, Executed};
pub use ft::{run_cpu_free_ft, FtConfig, FtExecuted};
pub use geometry::{Geo2D, Geo3D, Geometry};
pub use variants::Variant;
