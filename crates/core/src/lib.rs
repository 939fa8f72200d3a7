//! # cpufree-core — the CPU-Free multi-GPU execution model
//!
//! The paper's primary contribution as a reusable library. The model removes
//! the CPU from the control path of multi-GPU applications by combining:
//!
//! 1. **Persistent kernels** — the time loop lives on the device; the host
//!    launches exactly once ([`launch_cpu_free`]);
//! 2. **Device-side synchronization** — cooperative-groups `grid.sync()`
//!    within a device, NVSHMEM flag semaphores between devices (§4.1.1;
//!    see `nvshmem_sim::ShmemCtx::signal_wait_until`);
//! 3. **Thread-block specialization** — communication vs. computation block
//!    groups with the §4.1.2 proportional work allocation
//!    ([`TbAllocation`]);
//! 4. **GPU-initiated data movement** — halo exchange issued from inside
//!    the kernel (`nvshmem_sim::ShmemCtx::putmem_signal_nbi`).
//!
//! The "alternative design" of two co-resident kernels in separate streams
//! is provided by [`launch_cpu_free_dual`] with [`LocalRendezvous`].
//! [`RunStats`] measures what the paper's figures report — per-iteration
//! time, exposed communication, overlap ratio — from the simulation trace.
//! A workload writes its persistent-kernel iteration once, as a
//! [`Recoverable`], and runs it under one of three [`Driver`]s: [`Blocking`]
//! (fault-free), [`Rollback`] (checkpoint/restart) or [`Quorum`] (degraded
//! mode).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod launch;
mod rollback;
mod stats;
mod watchdog;

pub use alloc::TbAllocation;
pub use launch::{launch_cpu_free, launch_cpu_free_dual, LocalRendezvous, BLOCK_THREADS};
pub use rollback::{
    run_blocking, Blocking, Driver, FtCtx, Halo, Interrupted, Quorum, Recoverable, Rollback,
    RollbackCounts, CHECKPOINT_EVERY, POLL, WATCHDOG_INTERVAL,
};
pub use stats::RunStats;
pub use watchdog::{spawn_watchdog, WatchdogSpec};
