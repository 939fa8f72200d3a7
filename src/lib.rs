//! # cpufree — autonomous (CPU-free) execution for multi-GPU systems
//!
//! A full Rust reproduction of *"Autonomous Execution for Multi-GPU
//! Systems: CPU-Free Blueprint and Compiler Support"*: the CPU-Free
//! execution model, every substrate it runs on, the paper's stencil
//! workloads, and the data-centric compiler extensions — executing on a
//! deterministic virtual-time simulator of an 8×A100 NVLink node.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim_des`] — the deterministic discrete-event engine (agents, flags,
//!   barriers, traces);
//! * [`gpu_sim`] — the simulated multi-GPU node (devices, streams, host
//!   runtime latencies, cooperative kernels, cost model);
//! * [`nvshmem_sim`] — GPU-initiated PGAS communication (symmetric heap,
//!   put-with-signal, signal waits, strided puts);
//! * [`cpufree_core`] — **the paper's contribution**: persistent-kernel
//!   launch blueprint, thread-block specialization, device-side
//!   synchronization, run statistics;
//! * [`stencil_lab`] — 2D/3D Jacobi in all evaluated variants (4 CPU
//!   controlled baselines, CPU-Free, PERKS) with bitwise verification;
//! * [`dace_sim`] — the mini data-centric compiler: SDFG IR,
//!   transformations, MPI/NVSHMEM library nodes, discrete + CPU-Free
//!   backends;
//! * [`cpufree_solvers`] — a second application class: distributed
//!   Conjugate Gradient with device-side allreduces, CPU-Free vs
//!   CPU-controlled.
//!
//! ## Quickstart
//!
//! ```
//! use cpufree::prelude::*;
//!
//! // 2D Jacobi, 34x34 grid, 8 steps, 4 simulated GPUs, full arithmetic.
//! let cfg = StencilConfig::square2d(34, 8, 4);
//! let out = Variant::CpuFree.run(&cfg);
//! assert_eq!(out.max_err, Some(0.0));        // bitwise-exact vs reference
//! let base = Variant::BaselineCopy.run(&cfg);
//! assert!(out.total < base.total);           // and faster
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every figure of the paper.

#![forbid(unsafe_code)]

pub use cpufree_core;
pub use cpufree_solvers;
pub use dace_sim;
pub use gpu_sim;
pub use nvshmem_sim;
pub use sim_des;
pub use stencil_lab;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use cpufree_core::{
        launch_cpu_free, launch_cpu_free_dual, spawn_watchdog, LocalRendezvous, RunStats,
        TbAllocation, WatchdogSpec,
    };
    pub use gpu_sim::{
        BlockGroup, Buf, CheckReport, Checker, CostModel, CrashFault, DevId, DeviceSpec, DropFault,
        ExecMode, FaultPlan, FaultState, HostCtx, KernelCtx, LinkFault, Machine, StragglerFault,
        Topology, TopologyKind, Transport,
    };
    pub use nvshmem_sim::{ShmemCtx, ShmemWorld, SymArray, SymSignal};
    pub use sim_des::{
        ms, ns, us, Category, Cmp, DiagKind, Diagnostic, Engine, Flag, SignalOp, SimDur, SimTime,
    };
    pub use stencil_lab::{FtConfig, StencilConfig, Variant};
}
