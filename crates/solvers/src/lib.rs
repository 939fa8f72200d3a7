//! # cpufree-solvers — iterative solvers on the CPU-Free model
//!
//! The paper motivates CPU-free execution with iterative methods whose
//! every step needs inter-device data movement and synchronization; its
//! PERKS foundation demonstrates persistent-kernel gains on **Conjugate
//! Gradient** as well as stencils. This crate provides that second
//! application class: a distributed CG solver for the 2D Poisson problem,
//! implemented twice —
//!
//! * [`cg::run_cpu_free`] — one persistent kernel per PE: device-initiated
//!   p-halo exchange (flag semaphores), device-side **allreduce**
//!   (`nvshmem_sim::allreduce`, recursive doubling) for the two dot
//!   products per iteration, zero host involvement after launch — the same
//!   iteration the fault-tolerant ([`ft`]) and degraded ([`degraded`])
//!   runners drive;
//! * [`cg::run_baseline`] — the CPU-controlled shape: five kernel launches
//!   per iteration, host-staged reductions (device partial → D2H copy →
//!   host barrier → combine), host-driven halo exchange.
//!
//! Both are verified against a sequential reference CG that mimics the
//! distributed reduction order exactly ([`PoissonProblem::reference_cg`]),
//! so results match **bitwise**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod degraded;
pub mod ft;
pub mod kernels;
pub mod problem;

pub use cg::{run_baseline, run_cpu_free, CgResult};
pub use degraded::{degraded_reference_cg, run_cpu_free_degraded, CgDegradedResult};
pub use ft::{run_cpu_free_ft, CgFtConfig, CgFtResult};
pub use problem::{PoissonProblem, ReduceOrder};
