//! Kernel execution contexts: discrete (stream-scheduled) and cooperative
//! (persistent, grid-synchronizable).

use crate::cost::CostModel;
use crate::machine::{ExecMode, Machine};
use crate::mem::{Buf, DevId};
use sim_des::{AgentCtx, Barrier, Category, SimDur, SimTime};

/// The closure type executed as a kernel body.
pub type KernelBody = Box<dyn FnOnce(&mut KernelCtx<'_>) + Send>;

/// Grid information available inside a cooperative (persistent) kernel.
#[derive(Debug, Clone)]
pub struct GridInfo {
    /// Grid-wide barrier implementing `grid.sync()`.
    pub(crate) barrier: Barrier,
    /// Index of this block group within the kernel (0-based).
    pub group_index: usize,
    /// Total number of block groups (= agents) in the kernel.
    pub group_count: usize,
    /// Physical thread blocks this group stands for.
    pub blocks_in_group: u64,
    /// Total physical thread blocks in the kernel.
    pub total_blocks: u64,
    /// Threads per block of the launch.
    pub threads_per_block: u32,
}

/// Execution context handed to kernel bodies.
///
/// In the simulator, "device code" is a Rust closure over this context:
/// compute phases charge roofline time via [`KernelCtx::compute`], persistent
/// kernels synchronize via [`KernelCtx::grid_sync`], and the NVSHMEM device
/// API (crate `nvshmem-sim`) layers on top via [`KernelCtx::agent_mut`].
pub struct KernelCtx<'a> {
    agent: &'a mut AgentCtx,
    machine: Machine,
    dev: DevId,
    name: String,
    grid: Option<GridInfo>,
}

impl<'a> KernelCtx<'a> {
    /// Context for a discrete (stream-scheduled, non-cooperative) kernel.
    pub(crate) fn discrete(
        agent: &'a mut AgentCtx,
        machine: Machine,
        dev: DevId,
        name: &str,
    ) -> Self {
        KernelCtx {
            agent,
            machine,
            dev,
            name: name.to_string(),
            grid: None,
        }
    }

    /// Context for one block group of a cooperative kernel.
    pub(crate) fn cooperative(
        agent: &'a mut AgentCtx,
        machine: Machine,
        dev: DevId,
        name: &str,
        grid: GridInfo,
    ) -> Self {
        KernelCtx {
            agent,
            machine,
            dev,
            name: name.to_string(),
            grid: Some(grid),
        }
    }

    /// The device this kernel runs on.
    pub fn device(&self) -> DevId {
        self.dev
    }

    /// Kernel name (for traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine (topology, allocation, cost model).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        self.machine.cost()
    }

    /// Whether buffer arithmetic actually executes.
    pub fn exec_mode(&self) -> ExecMode {
        self.machine.exec_mode()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.agent.now()
    }

    /// Charge virtual time without a trace span.
    pub fn advance(&mut self, dur: SimDur) {
        self.agent.advance(dur);
    }

    /// Charge virtual time with a trace span.
    pub fn busy<'l>(
        &mut self,
        category: Category,
        label: impl Into<sim_des::Label<'l>>,
        dur: SimDur,
    ) {
        self.agent.busy(category, label, dur);
    }

    /// Grid info — panics when called from a discrete kernel.
    pub fn grid(&self) -> &GridInfo {
        self.grid
            .as_ref()
            .expect("grid() called outside a cooperative kernel")
    }

    /// Cooperative-groups grid-wide barrier (`grid.sync()`).
    ///
    /// Blocks until every block group of the kernel arrives, then charges the
    /// barrier cost. Panics in discrete kernels (as CUDA would fail the
    /// cooperative API without a cooperative launch).
    pub fn grid_sync(&mut self) {
        let barrier = self.grid().barrier;
        let cost = self.cost().grid_sync();
        let start = self.agent.now();
        self.agent.barrier(barrier);
        self.agent.advance(cost);
        let end = self.agent.now();
        self.agent.record(Category::Sync, "grid.sync", start, end);
    }

    /// A device compute phase: charges roofline time for moving `bytes` and
    /// executing `flops` on `fraction` of the device, then runs `work` (the
    /// actual arithmetic) if the machine executes functionally.
    pub fn compute<'l>(
        &mut self,
        label: impl Into<sim_des::Label<'l>>,
        bytes: u64,
        flops: u64,
        fraction: f64,
        work: impl FnOnce(),
    ) {
        let dur = self.cost().sweep(bytes, flops, fraction);
        self.busy(Category::Compute, label, dur);
        if self.machine.exec_mode() == ExecMode::Full {
            work();
        }
    }

    /// Direct peer load/store over UVA: synchronously move `len` elements
    /// between devices from within the kernel, charging the routed P2P
    /// cost (the transfer occupies every link on the `src -> dst` route).
    ///
    /// This is the Baseline-P2P communication style: GPU-initiated data
    /// movement, but synchronous with respect to the issuing kernel.
    pub fn p2p_copy<'l>(
        &mut self,
        dst: &Buf,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        label: impl Into<sim_des::Label<'l>>,
    ) {
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let (dur, _) =
            self.machine
                .transport()
                .memcpy(src.place(), dst.place(), bytes, self.agent.now());
        self.busy(Category::Comm, label, dur);
        dst.copy_from(dst_off, src, src_off, len);
    }

    /// Declare a read of `buf[lo..hi]` to the race detector. No-op unless
    /// the machine's checker is enabled
    /// ([`Machine::with_checker`](crate::Machine::with_checker)).
    pub fn check_read(&mut self, buf: &Buf, lo: usize, hi: usize, label: &str) {
        if let Some(chk) = self.machine.checker() {
            chk.record(self.agent, buf, lo, hi, false, label);
        }
    }

    /// Declare a write of `buf[lo..hi]` to the race detector. No-op unless
    /// the machine's checker is enabled.
    pub fn check_write(&mut self, buf: &Buf, lo: usize, hi: usize, label: &str) {
        if let Some(chk) = self.machine.checker() {
            chk.record(self.agent, buf, lo, hi, true, label);
        }
    }

    /// Escape hatch for higher layers (the NVSHMEM device API) that need raw
    /// agent operations (flag waits, scheduled signals/calls).
    pub fn agent_mut(&mut self) -> &mut AgentCtx {
        self.agent
    }

    /// Shared access to the underlying agent (for `now`, flag reads).
    pub fn agent(&self) -> &AgentCtx {
        self.agent
    }
}

/// Handle to a running cooperative kernel on one device.
pub struct CoopKernel {
    /// Completion counter: each block-group agent adds 1 on return.
    pub(crate) done: sim_des::Flag,
    /// Number of block-group agents.
    pub(crate) parties: u64,
    /// Device the kernel runs on.
    pub(crate) dev: DevId,
}

impl CoopKernel {
    /// The device the kernel occupies.
    pub fn device(&self) -> DevId {
        self.dev
    }
}

/// Specification of one block group in a cooperative launch: `blocks`
/// physical thread blocks that execute `body` in lockstep, represented by a
/// single agent.
pub struct BlockGroup {
    /// Group name, used for the agent/trace name (e.g. `"comm_top"`).
    pub name: String,
    /// Number of physical thread blocks the group stands for.
    pub blocks: u64,
    /// The group's device code.
    pub body: KernelBody,
}

impl BlockGroup {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        blocks: u64,
        body: impl FnOnce(&mut KernelCtx<'_>) + Send + 'static,
    ) -> Self {
        BlockGroup {
            name: name.into(),
            blocks,
            body: Box::new(body),
        }
    }
}
