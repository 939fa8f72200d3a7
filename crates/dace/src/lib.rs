//! # dace-sim — a mini data-centric compiler with CPU-Free code generation
//!
//! A compact reimplementation of the DaCe machinery the paper extends
//! (§2.3, §5), targeting the simulated multi-GPU node:
//!
//! * an **SDFG-style IR** ([`ir`]): states of maps/tasklets/copies plus
//!   **library nodes** for MPI (the Ziogas et al. distributed baseline) and
//!   NVSHMEM (this work's contribution), with symbolic sizes ([`expr`]);
//! * **transformations** ([`transform`]): `GPUTransform`, `MapFusion`,
//!   `GPUPersistentKernel`, `NVSHMEMArray`, and the **MPI → NVSHMEM
//!   conversion** that rewrites `Isend`/`Irecv`/`Waitall` into
//!   `PutmemSignal`/`SignalWait` (contiguous) or `Iput`+`Quiet`+`SignalOp`
//!   (strided, §5.3.1) without touching program structure;
//! * two **backends** ([`lower`]): the discrete host-driven MPI workflow
//!   (Fig 5.1's stream-sync-heavy pattern) and the persistent CPU-Free
//!   kernel with conservatively scheduled in-kernel communication (§5.3.2),
//!   whose schedule (a crate-private walk yielding map, copy, library-node,
//!   grid-sync and iteration-end steps) the cost predictor prices as is;
//! * the **benchmark programs** ([`programs`]): distributed Jacobi 1D
//!   (single-element messages) and Jacobi 2D (four neighbors, strided
//!   east/west columns) with sequential references;
//! * a **static protocol verifier** ([`analysis`], [`verify`]): walks the
//!   SDFG under symbolic rank bindings and proves CPU-Free conformance
//!   (signal ↔ wait balance, nbi source reuse, halo coverage, storage
//!   classes, wait cycles) for *all* schedules before anything runs,
//!   sharing diagnostic vocabulary with the dynamic happens-before checker
//!   and gating both backends and the transform pipeline;
//! * a **static cost predictor** ([`cost`]): closed-form virtual-time
//!   prediction of the persistent backend's schedule on any topology
//!   preset — exact
//!   on uncontended routes, conservatively bounded on shared links — with
//!   a per-kernel/per-route cost ledger, no simulation required.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod expr;
pub mod ir;
pub mod lower;
pub mod mpi;
pub mod programs;
mod schedule;
pub mod transform;
pub mod verify;

pub use analysis::{CommGraph, IntervalSet};
pub use cost::{predict_cost, CostError, CostReport, KernelCost, RouteCost};
pub use expr::{Bindings, Cond, CondOp, Expr};
pub use ir::{Schedule, Sdfg, Storage};
pub use lower::{
    run_discrete, run_persistent, run_persistent_checked, run_persistent_on, CheckedRun,
    LowerError, Lowered,
};
pub use programs::{Jacobi1dSetup, Jacobi2dSetup};
pub use transform::{
    gpu_persistent_kernel, gpu_transform, map_fusion, mpi_to_nvshmem, mpi_to_nvshmem_with,
    nvshmem_array, to_cpu_free, PutGranularity, TransformError,
};
pub use verify::{verify_sdfg, verify_structure, StaticDiag, VerifyError, VerifyReport};
