//! The simulated multi-GPU node: devices + engine + cost model + teardown.

use crate::check::Checker;
use crate::cost::CostModel;
use crate::device::DeviceSpec;
use crate::host::HostCtx;
use crate::mem::{Buf, DevId, Place};
use crate::stream::StreamShared;
use crate::topo::{Topology, TopologyKind, Transport};
use sim_des::lock::Mutex;
use sim_des::{Barrier, Engine, FaultPlan, FaultState, Flag, SignalOp, SimError, SimTime, Trace};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Whether kernels execute their buffer arithmetic or only charge time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real arithmetic on real buffers (verifiable results).
    Full,
    /// Control flow, communication and costs only — for large-domain sweeps.
    TimingOnly,
}

pub(crate) struct MachineInner {
    pub(crate) engine: Engine,
    pub(crate) cost: CostModel,
    pub(crate) spec: DeviceSpec,
    pub(crate) num_devices: usize,
    pub(crate) exec_mode: ExecMode,
    pub(crate) streams: Mutex<Vec<Arc<StreamShared>>>,
    pub(crate) host_count: AtomicUsize,
    pub(crate) hosts_done: Flag,
    pub(crate) ran: AtomicBool,
    pub(crate) faults: Mutex<Arc<FaultState>>,
    pub(crate) transport: Transport,
    pub(crate) checker: Mutex<Option<Arc<Checker>>>,
}

/// A simulated multi-GPU node.
///
/// ```
/// use gpu_sim::{Machine, CostModel, ExecMode};
///
/// let machine = Machine::new(4, CostModel::a100_hgx(), ExecMode::Full);
/// machine.spawn_host("rank0", |host| {
///     let dev = gpu_sim::DevId(0);
///     let stream = host.create_stream(dev, "s0");
///     host.launch(&stream, "noop", |_k| {});
///     host.sync_stream(&stream);
/// });
/// let end = machine.run().unwrap();
/// assert!(end.as_nanos() > 0);
/// ```
#[derive(Clone)]
pub struct Machine {
    pub(crate) inner: Arc<MachineInner>,
}

impl Machine {
    /// Create a node with `num_devices` GPUs of the default A100 spec, on
    /// the interconnect selected by `cost.topology`.
    pub fn new(num_devices: usize, cost: CostModel, exec_mode: ExecMode) -> Machine {
        Machine::with_spec(num_devices, DeviceSpec::a100(), cost, exec_mode)
    }

    /// Create a node on an explicit interconnect graph, overriding the
    /// cost model's default `topology` selection.
    pub fn with_topology(
        num_devices: usize,
        mut cost: CostModel,
        topology: TopologyKind,
        exec_mode: ExecMode,
    ) -> Machine {
        cost.topology = topology;
        Machine::new(num_devices, cost, exec_mode)
    }

    /// Create a node with a custom device spec.
    pub fn with_spec(
        num_devices: usize,
        spec: DeviceSpec,
        cost: CostModel,
        exec_mode: ExecMode,
    ) -> Machine {
        assert!(num_devices > 0, "need at least one device");
        let engine = Engine::new();
        let hosts_done = engine.flag(0);
        let topo = Topology::build(cost.topology, num_devices, &cost);
        let transport = Transport::new(topo, cost.clone());
        Machine {
            inner: Arc::new(MachineInner {
                engine,
                cost,
                spec,
                num_devices,
                exec_mode,
                streams: Mutex::new(Vec::new()),
                host_count: AtomicUsize::new(0),
                hosts_done,
                ran: AtomicBool::new(false),
                faults: Mutex::new(FaultState::none()),
                transport,
                checker: Mutex::new(None),
            }),
        }
    }

    /// Install a deterministic fault schedule. Must be called before the
    /// communication contexts are created (i.e. before [`Machine::run`]).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.inner.faults.lock() = FaultState::new(plan);
    }

    /// Builder form of [`Machine::enable_checker`]:
    /// `Machine::new(..).with_checker()`.
    pub fn with_checker(self) -> Machine {
        self.enable_checker();
        self
    }

    /// Enable the happens-before race detector and protocol conformance
    /// checker. Must be called before spawning hosts so every
    /// synchronization edge is observed. Idempotent; returns the checker.
    ///
    /// Tier-1 runs never enable this — the default cost is one skipped
    /// `Option` check per engine operation.
    pub fn enable_checker(&self) -> Arc<Checker> {
        let mut g = self.inner.checker.lock();
        if let Some(c) = g.as_ref() {
            return Arc::clone(c);
        }
        let c = Arc::new(Checker::new(self.inner.engine.enable_hb()));
        *g = Some(Arc::clone(&c));
        c
    }

    /// The checker, if enabled with [`Machine::with_checker`] /
    /// [`Machine::enable_checker`].
    pub fn checker(&self) -> Option<Arc<Checker>> {
        self.inner.checker.lock().clone()
    }

    /// Seed deterministic jitter on the wake order of simultaneously-woken
    /// agents (multi-waiter signals, barrier releases). Used by the
    /// schedule-perturbation harness: any permutation of a wake batch is a
    /// valid schedule, so checked runs must stay clean and numerics
    /// bit-identical under every seed.
    pub fn set_wake_jitter(&self, seed: u64) {
        self.inner.engine.set_wake_jitter(seed);
    }

    /// The machine's shared fault state (fault-free by default).
    pub fn faults(&self) -> Arc<FaultState> {
        Arc::clone(&self.inner.faults.lock())
    }

    /// The underlying discrete-event engine.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The transfer-charging layer: routes, link occupancy, fault slowdown.
    pub fn transport(&self) -> &Transport {
        &self.inner.transport
    }

    /// The interconnect graph this node was built on.
    pub fn topology(&self) -> &Arc<Topology> {
        self.inner.transport.topology()
    }

    /// The device architecture.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }

    /// Number of GPUs in the node.
    pub fn num_devices(&self) -> usize {
        self.inner.num_devices
    }

    /// All device ids.
    pub fn devices(&self) -> impl Iterator<Item = DevId> {
        (0..self.inner.num_devices).map(DevId)
    }

    /// Functional or timing-only execution.
    pub fn exec_mode(&self) -> ExecMode {
        self.inner.exec_mode
    }

    fn make_buf(&self, place: Place, name: String, len: usize) -> Buf {
        let buf = match self.inner.exec_mode {
            // Timing-only runs sweep paper-scale domains (tens of GB);
            // buffers are virtual: sized for cost accounting, storage-free.
            ExecMode::TimingOnly => Buf::new_virtual(place, name, len),
            ExecMode::Full => Buf::new(place, name, len),
        };
        match self.checker() {
            Some(checker) => buf.watched_by(&checker),
            None => buf,
        }
    }

    /// Allocate device global memory (virtual in timing-only mode).
    pub fn alloc(&self, dev: DevId, name: impl Into<String>, len: usize) -> Buf {
        self.check_dev(dev);
        self.make_buf(Place::Device(dev), name.into(), len)
    }

    /// Allocate host memory (virtual in timing-only mode).
    pub fn alloc_host(&self, name: impl Into<String>, len: usize) -> Buf {
        self.make_buf(Place::Host, name.into(), len)
    }

    /// Allocate symmetric-heap memory on one device (used by `nvshmem-sim`;
    /// applications normally allocate through that crate's collective API).
    pub fn alloc_symmetric(&self, dev: DevId, name: impl Into<String>, len: usize) -> Buf {
        self.check_dev(dev);
        self.make_buf(Place::Symmetric(dev), name.into(), len)
    }

    fn check_dev(&self, dev: DevId) {
        assert!(
            dev.0 < self.inner.num_devices,
            "device {dev} out of range (node has {})",
            self.inner.num_devices
        );
    }

    /// Allocate an engine flag.
    pub fn flag(&self, init: u64) -> Flag {
        self.inner.engine.flag(init)
    }

    /// Allocate an engine barrier.
    pub fn barrier(&self, parties: usize) -> Barrier {
        self.inner.engine.barrier(parties)
    }

    /// Spawn a host rank (one CPU thread controlling GPUs, as in the
    /// OpenMP/MPI style of NVIDIA's multi-GPU samples).
    pub fn spawn_host<'a, F>(&self, name: impl Into<sim_des::Label<'a>>, f: F)
    where
        F: FnOnce(&mut HostCtx<'_>) + Send + 'static,
    {
        assert!(
            !self.inner.ran.load(Ordering::SeqCst),
            "spawn_host after run()"
        );
        self.inner.host_count.fetch_add(1, Ordering::SeqCst);
        let machine = self.clone();
        let done = self.inner.hosts_done;
        self.inner.engine.spawn(name, move |agent| {
            let mut host = HostCtx::new(agent, machine);
            f(&mut host);
            host.agent_mut().signal(done, SignalOp::Add, 1);
        });
    }

    /// Run the simulation to completion.
    ///
    /// A supervisor agent waits for every host rank to return, then shuts
    /// down all stream agents so the engine can drain.
    pub fn run(&self) -> Result<SimTime, SimError> {
        assert!(
            !self.inner.ran.swap(true, Ordering::SeqCst),
            "Machine::run called twice"
        );
        let machine = self.clone();
        let hosts = self.inner.host_count.load(Ordering::SeqCst) as u64;
        let done = self.inner.hosts_done;
        self.inner.engine.spawn("machine.supervisor", move |ctx| {
            ctx.wait_flag(done, sim_des::Cmp::Ge, hosts);
            let streams = machine.inner.streams.lock().clone();
            for s in streams {
                s.ops.lock().push_back(crate::stream::StreamOp::Shutdown);
                s.enqueued.fetch_add(1, Ordering::SeqCst);
                ctx.signal(s.doorbell, SignalOp::Add, 1);
            }
        });
        let res = self.inner.engine.run();
        if let Err(err) = &res {
            // A deadlocked/timed-out run leaves waits forever unsatisfied:
            // surface each as a lost-signal diagnostic naming both endpoints.
            if matches!(err, SimError::Deadlock { .. } | SimError::Timeout { .. }) {
                if let Some(chk) = self.checker() {
                    chk.note_blocked(&self.inner.engine.blocked_agents(), self.inner.engine.now());
                }
            }
        }
        res
    }

    /// The recorded trace (read after [`Machine::run`]).
    pub fn trace(&self) -> Trace {
        self.inner.engine.trace()
    }

    /// Enable/disable trace recording.
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.inner.engine.set_trace_enabled(enabled);
    }
}
