//! Code generation: execute an SDFG on the simulated multi-GPU node.
//!
//! Two backends, mirroring the paper's comparison:
//!
//! * [`run_discrete`] — the existing DaCe distributed workflow (§5.2):
//!   per-state discrete kernel launches, MPI library nodes expanded to
//!   GPU-aware MPI with staging copies, stream synchronizations around
//!   every communication call (the Fig 5.1 pattern with "little to no
//!   overlap");
//! * [`run_persistent`] — the CPU-Free backend (§5.3): one persistent
//!   cooperative kernel per PE, NVSHMEM library nodes expanded in-kernel,
//!   communication scheduled conservatively (single thread followed by a
//!   grid sync, §5.3.2); it executes the steps of the crate-private
//!   `schedule` walk, which the cost predictor prices.

use crate::analysis::{map_footprint, CommGraph, IntervalSet};
use crate::expr::Bindings;
use crate::ir::*;
use crate::mpi::{ChanKey, MpiSim};
use crate::programs::{jacobi1d_point, jacobi2d_point};
use crate::schedule::{self, Step};
use crate::verify::{verify_sdfg, VerifyError};
use cpufree_core::{launch_cpu_free, RunStats, BLOCK_THREADS};
use gpu_sim::{
    BlockGroup, Buf, CheckReport, CostModel, DevId, ExecMode, HostCtx, KernelCtx, Machine, Stream,
    TopologyKind,
};
use nvshmem_sim::{ShmemCtx, ShmemWorld, SymArray, SymSignal};
use sim_des::{us, Category, Cmp, SignalOp, SimDur, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Lowering/legality errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A map is not scheduled for the requested backend.
    MapNotScheduled(String),
    /// MPI library nodes cannot run inside a persistent kernel.
    MpiInPersistent,
    /// A put targets an array not on the symmetric heap (§5.3.3).
    PutTargetNotSymmetric(String),
    /// `PutmemSignal` used on a strided subset (must be `Iput`).
    StridedPutmemSignal(String),
    /// Array shape differs across PEs.
    NonUniformShape(String),
    /// NVSHMEM nodes are not supported by the discrete backend.
    NvshmemInDiscrete,
    /// The static protocol verifier rejected the program (lost signals,
    /// nbi source reuse, halo gaps, ... — see the embedded report).
    ProtocolViolation(VerifyError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::MapNotScheduled(m) => {
                write!(f, "map `{m}` is not scheduled for this backend")
            }
            LowerError::MpiInPersistent => {
                write!(f, "MPI library nodes cannot run inside a persistent kernel")
            }
            LowerError::PutTargetNotSymmetric(a) => write!(
                f,
                "array `{a}` is a put target but not GPU_NVSHMEM storage \
                 (run the NVSHMEMArray transformation)"
            ),
            LowerError::StridedPutmemSignal(a) => write!(
                f,
                "PutmemSignal on strided subset of `{a}` (expand to iput + signal)"
            ),
            LowerError::NonUniformShape(a) => {
                write!(f, "array `{a}` resolves to different shapes across PEs")
            }
            LowerError::NvshmemInDiscrete => {
                write!(f, "NVSHMEM nodes are not supported by the discrete backend")
            }
            LowerError::ProtocolViolation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LowerError::ProtocolViolation(e) => Some(e),
            _ => None,
        }
    }
}

/// A lowered-and-executed program's results.
#[derive(Debug)]
pub struct Lowered {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// Trace-derived measurements.
    pub stats: RunStats,
    /// Final per-PE contents of every array.
    pub finals: BTreeMap<String, Vec<Vec<f64>>>,
    /// Deterministic checksum of all finals.
    pub checksum: u64,
}

/// Per-array instantiation.
enum ArrInst {
    Plain(Vec<Buf>),
    Sym(SymArray),
}

impl ArrInst {
    fn local(&self, pe: usize) -> &Buf {
        match self {
            ArrInst::Plain(v) => &v[pe],
            ArrInst::Sym(s) => s.local(pe),
        }
    }

    fn sym(&self) -> Option<&SymArray> {
        match self {
            ArrInst::Sym(s) => Some(s),
            ArrInst::Plain(_) => None,
        }
    }
}

/// Everything the per-PE executors share.
struct Instance {
    sdfg: Sdfg,
    n: usize,
    user: Bindings,
    machine: Machine,
    arrays: BTreeMap<String, ArrInst>,
    shapes: BTreeMap<String, Vec<i64>>,
    sigs: BTreeMap<u32, SymSignal>,
    world: ShmemWorld,
    /// Dynamic checker enabled: annotate map/copy footprints and iteration
    /// commits so the happens-before tracker sees SDFG-level accesses.
    checked: bool,
    /// Per PE: may this rank report iteration commits to the divergence
    /// monitor? (See [`CommGraph::iteration_eligible`].)
    iter_eligible: Vec<bool>,
}

impl Instance {
    fn bindings(&self, pe: usize) -> Bindings {
        self.sdfg.bindings(pe, self.n, &self.user)
    }

    fn buf(&self, name: &str, pe: usize) -> &Buf {
        self.arrays
            .get(name)
            .unwrap_or_else(|| panic!("unknown array `{name}`"))
            .local(pe)
    }

    fn shape(&self, name: &str) -> &[i64] {
        &self.shapes[name]
    }
}

fn build_instance(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    exec: ExecMode,
    init: &dyn Fn(usize, &str) -> Vec<f64>,
) -> Result<Arc<Instance>, LowerError> {
    let machine = Machine::new(n_pes, CostModel::a100_hgx(), exec);
    build_instance_on(sdfg, n_pes, user, machine, init)
}

/// Like [`build_instance`] but on a caller-provided machine (custom
/// topology, checker enabled, ...). The machine's device count must match
/// `n_pes`.
fn build_instance_on(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    machine: Machine,
    init: &dyn Fn(usize, &str) -> Vec<f64>,
) -> Result<Arc<Instance>, LowerError> {
    let exec = machine.exec_mode();
    let checked = machine.checker().is_some();
    let iter_eligible = if checked {
        CommGraph::build(sdfg, n_pes, user).iteration_eligible()
    } else {
        vec![false; n_pes]
    };
    let world = ShmemWorld::init(&machine);
    let shapes = schedule::resolve_shapes(sdfg, n_pes, user)?;
    // Allocate and initialize.
    let mut arrays = BTreeMap::new();
    for a in &sdfg.arrays {
        let len: i64 = shapes[&a.name].iter().product();
        let len = len as usize;
        let inst = match a.storage {
            Storage::GpuNvshmem => ArrInst::Sym(world.malloc(a.name.clone(), len)),
            _ => ArrInst::Plain(
                (0..n_pes)
                    .map(|pe| machine.alloc(DevId(pe), format!("{}@{pe}", a.name), len))
                    .collect(),
            ),
        };
        if exec == ExecMode::Full {
            for pe in 0..n_pes {
                let data = init(pe, &a.name);
                assert_eq!(data.len(), len, "init size mismatch on `{}`", a.name);
                inst.local(pe).write_slice(0, &data);
            }
        }
        arrays.insert(a.name.clone(), inst);
    }
    // Signal cells used by NVSHMEM nodes.
    let mut sigs = BTreeMap::new();
    sdfg.visit_states(&mut |state| {
        for op in &state.ops {
            if let Op::Lib(lib) = &op.op {
                let id = match lib {
                    LibNode::PutmemSignal { sig, .. }
                    | LibNode::PutmemSignalBlock { sig, .. }
                    | LibNode::SignalWait { sig, .. }
                    | LibNode::SignalOp { sig, .. } => Some(*sig),
                    _ => None,
                };
                if let Some(id) = id {
                    sigs.entry(id).or_insert_with(|| world.signal(0));
                }
            }
        }
    });
    Ok(Arc::new(Instance {
        sdfg: sdfg.clone(),
        n: n_pes,
        user: user.clone(),
        machine,
        arrays,
        shapes,
        sigs,
        world,
        checked,
        iter_eligible,
    }))
}

/// The static verification gate both backends run after their structural
/// legality checks: malformed or mis-transformed programs fail here, at
/// lowering time, instead of deadlocking (or silently racing) in gpu-sim.
pub(crate) fn verify_gate(sdfg: &Sdfg, n_pes: usize, user: &Bindings) -> Result<(), LowerError> {
    let report = verify_sdfg(sdfg, n_pes, user);
    if report.clean() {
        Ok(())
    } else {
        Err(LowerError::ProtocolViolation(VerifyError { report }))
    }
}

/// Execute a map's tasklet functionally (Full mode only).
fn exec_map(inst: &Instance, m: &MapOp, pe: usize, b: &Bindings) {
    match &m.tasklet {
        TaskletKind::Jacobi1d { src, dst } => {
            let (_, lo, hi) = &m.range[0];
            let (lo, hi) = (lo.eval(b) as usize, hi.eval(b) as usize);
            let s = inst.buf(src, pe);
            let d = inst.buf(dst, pe);
            s.with(|sv| {
                d.with_mut(|dv| {
                    for i in lo..=hi {
                        dv[i] = jacobi1d_point(sv[i - 1], sv[i], sv[i + 1]);
                    }
                })
            });
        }
        TaskletKind::Jacobi2d { src, dst } => {
            let (_, ilo, ihi) = &m.range[0];
            let (_, jlo, jhi) = &m.range[1];
            let (ilo, ihi) = (ilo.eval(b) as usize, ihi.eval(b) as usize);
            let (jlo, jhi) = (jlo.eval(b) as usize, jhi.eval(b) as usize);
            let st = inst.shape(src)[1] as usize;
            let s = inst.buf(src, pe);
            let d = inst.buf(dst, pe);
            s.with(|sv| {
                d.with_mut(|dv| {
                    for i in ilo..=ihi {
                        for j in jlo..=jhi {
                            dv[i * st + j] = jacobi2d_point(
                                sv[i * st + j],
                                sv[(i - 1) * st + j],
                                sv[(i + 1) * st + j],
                                sv[i * st + j + 1],
                                sv[i * st + j - 1],
                            );
                        }
                    }
                })
            });
        }
    }
}

/// Roofline cost of a map execution; discrete kernels pay the cold-cache
/// relaunch penalty (persistent kernels retain cache/shared-memory state).
/// Shared with the static cost predictor ([`crate::cost`]) so predicted
/// and simulated map charges come from one formula.
pub(crate) fn map_cost(cost: &CostModel, points: u64, discrete: bool) -> SimDur {
    let base = cost.sweep(points * 16, points * 5, 1.0);
    if discrete {
        base * cost.discrete_cache_penalty
    } else {
        base
    }
}

// ------------------------------------------------------------------
// Discrete backend
// ------------------------------------------------------------------

/// Validate and run the CPU-controlled (discrete, MPI) backend.
pub fn run_discrete(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    iterations: u64,
    exec: ExecMode,
    init: &dyn Fn(usize, &str) -> Vec<f64>,
) -> Result<Lowered, LowerError> {
    // Legality: all maps on GpuDevice, no NVSHMEM nodes.
    let mut err = None;
    sdfg.visit_states(&mut |state| {
        for op in &state.ops {
            match &op.op {
                Op::Map(m) if m.schedule != Schedule::GpuDevice => {
                    err.get_or_insert(LowerError::MapNotScheduled(m.name.clone()));
                }
                Op::Lib(
                    LibNode::PutmemSignal { .. }
                    | LibNode::PutmemSignalBlock { .. }
                    | LibNode::PutMapped { .. }
                    | LibNode::SignalWait { .. }
                    | LibNode::Iput { .. }
                    | LibNode::PutSingle { .. }
                    | LibNode::SignalOp { .. }
                    | LibNode::Quiet,
                ) => {
                    err.get_or_insert(LowerError::NvshmemInDiscrete);
                }
                _ => {}
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    verify_gate(sdfg, n_pes, user)?;
    let inst = build_instance(sdfg, n_pes, user, exec, init)?;
    let shapes = inst.shapes.clone();
    let mpi = Arc::new(MpiSim::build(
        sdfg,
        n_pes,
        &inst.machine,
        &|pe| inst.bindings(pe),
        &|name| shapes[name].clone(),
    ));
    for pe in 0..n_pes {
        let inst = Arc::clone(&inst);
        let mpi = Arc::clone(&mpi);
        inst.machine
            .clone()
            .spawn_host(format!("rank{pe}"), move |host| {
                let mut b = inst.bindings(pe);
                let stream = host.create_stream(DevId(pe), "comp");
                let mut counters: HashMap<ChanKey, u64> = HashMap::new();
                let body = inst.sdfg.body.clone();
                exec_cf_discrete(host, &stream, &inst, &mpi, pe, &mut b, &mut counters, &body);
                // Final device synchronization at program end.
                host.sync_stream(&stream);
            });
    }
    let end = inst
        .machine
        .run()
        .unwrap_or_else(|e| panic!("discrete lowering run failed: {e}"));
    Ok(collect(&inst, end, iterations))
}

#[allow(clippy::too_many_arguments)]
fn exec_cf_discrete(
    host: &mut HostCtx<'_>,
    stream: &Stream,
    inst: &Arc<Instance>,
    mpi: &MpiSim,
    pe: usize,
    b: &mut Bindings,
    counters: &mut HashMap<ChanKey, u64>,
    body: &[Cf],
) {
    for cf in body {
        match cf {
            Cf::Loop {
                var,
                start,
                end,
                body,
                ..
            } => {
                let (lo, hi) = (start.eval(b), end.eval(b));
                for v in lo..=hi {
                    b.insert(var.clone(), v);
                    exec_cf_discrete(host, stream, inst, mpi, pe, b, counters, body);
                }
            }
            Cf::State(state) => {
                exec_state_discrete(host, stream, inst, mpi, pe, b, counters, state);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_state_discrete(
    host: &mut HostCtx<'_>,
    stream: &Stream,
    inst: &Arc<Instance>,
    mpi: &MpiSim,
    pe: usize,
    b: &Bindings,
    counters: &mut HashMap<ChanKey, u64>,
    state: &State,
) {
    let cost = inst.machine.cost().clone();
    let mut pending: Vec<(ChanKey, DataRef)> = Vec::new();
    for gop in &state.ops {
        if !gop.active(b) {
            continue;
        }
        match &gop.op {
            Op::Map(m) => {
                let points = m.volume(b);
                let dur = map_cost(&cost, points, true);
                let inst2 = Arc::clone(inst);
                let m2 = m.clone();
                let b2 = b.clone();
                host.launch(stream, m.name.clone(), move |k| {
                    k.busy(Category::Compute, m2.name.clone(), dur);
                    if k.exec_mode() == ExecMode::Full {
                        exec_map(&inst2, &m2, pe, &b2);
                    }
                });
            }
            Op::Copy { dst, src } => {
                let rd = dst.resolve(inst.shape(&dst.array), b);
                let rs = src.resolve(inst.shape(&src.array), b);
                assert_eq!(rd.count, rs.count, "copy size mismatch");
                assert!(
                    rd.stride == 1 && rs.stride == 1,
                    "strided Copy not supported in discrete backend"
                );
                let dbuf = inst.buf(&dst.array, pe).clone();
                let sbuf = inst.buf(&src.array, pe).clone();
                host.memcpy_async(stream, &dbuf, rd.offset, &sbuf, rs.offset, rs.count);
            }
            Op::Lib(LibNode::MpiIsend { buf, dest, tag }) => {
                // Fig 5.1: generated code synchronizes the stream before
                // every communication call.
                host.sync_stream(stream);
                let dst = dest.eval(b) as usize;
                let ch = Arc::clone(mpi.channel(pe, dst, *tag));
                let cnt = counters.entry((pe, dst, *tag)).or_insert(0);
                *cnt += 1;
                let cnt = *cnt;
                // Rendezvous: the receiver must have consumed the previous
                // message before the staging buffer is reused.
                host.wait_flag(ch.ack, Cmp::Ge, cnt - 1, "MPI send rendezvous");
                let r = buf.resolve(inst.shape(&buf.array), b);
                let bytes = (r.count * 8) as u64;
                let sbuf = inst.buf(&buf.array, pe).clone();
                if r.stride == 1 {
                    host.memcpy_async(stream, &ch.staging, 0, &sbuf, r.offset, r.count);
                    host.sync_stream(stream);
                } else {
                    // MPI_Type_vector: host-path pack, then a D2D copy to
                    // the remote staging buffer over the routed link.
                    let dur = cost.mpi_vector_pack(r.count as u64)
                        + inst
                            .machine
                            .transport()
                            .p2p(DevId(pe), DevId(dst), bytes, host.now());
                    host.agent_mut().busy(
                        Category::Comm,
                        format!("MPI_Type_vector pack x{}", r.count),
                        dur,
                    );
                    ch.staging
                        .copy_strided_from(0, 1, &sbuf, r.offset, r.stride, r.count);
                }
                host.agent_mut()
                    .busy(Category::Api, "MPI_Isend", cost.api_call());
                let msg_dur = inst.machine.transport().mpi_msg(pe, dst, bytes, host.now());
                host.agent_mut()
                    .schedule_signal(ch.msg, SignalOp::Add, 1, msg_dur);
            }
            Op::Lib(LibNode::MpiIrecv { buf, src, tag }) => {
                host.agent_mut()
                    .busy(Category::Api, "MPI_Irecv", cost.api_call());
                let from = src.eval(b) as usize;
                pending.push(((from, pe, *tag), buf.clone()));
            }
            Op::Lib(LibNode::MpiWaitall) => {
                for (key, buf) in pending.drain(..) {
                    let ch = Arc::clone(mpi.channel(key.0, key.1, key.2));
                    let cnt = counters.entry(key).or_insert(0);
                    *cnt += 1;
                    let cnt = *cnt;
                    host.wait_flag(ch.msg, Cmp::Ge, cnt, "MPI_Waitall");
                    host.agent_mut()
                        .busy(Category::Comm, "MPI recv path", us(cost.mpi_msg_us));
                    let r = buf.resolve(inst.shape(&buf.array), b);
                    let bytes = (r.count * 8) as u64;
                    let dbuf = inst.buf(&buf.array, pe).clone();
                    if r.stride == 1 {
                        host.memcpy_async(stream, &dbuf, r.offset, &ch.staging, 0, r.count);
                        host.sync_stream(stream);
                    } else {
                        // Unpack: the pipelined D2D copy inside the MPI
                        // library crosses the sender's route once more.
                        let dur = cost.mpi_vector_pack(r.count as u64)
                            + inst.machine.transport().p2p(
                                DevId(key.0),
                                DevId(pe),
                                bytes,
                                host.now(),
                            );
                        host.agent_mut().busy(
                            Category::Comm,
                            format!("MPI_Type_vector unpack x{}", r.count),
                            dur,
                        );
                        dbuf.copy_strided_from(r.offset, r.stride, &ch.staging, 0, 1, r.count);
                    }
                    host.agent_mut().signal(ch.ack, SignalOp::Add, 1);
                }
            }
            Op::Lib(_) => unreachable!("validated: no NVSHMEM nodes in discrete backend"),
        }
    }
}

// ------------------------------------------------------------------
// Persistent (CPU-Free) backend
// ------------------------------------------------------------------

/// Structural legality of an SDFG for the persistent backend: all maps on
/// the persistent schedule, no MPI nodes, symmetric put targets,
/// contiguous `PutmemSignal` subsets.
pub(crate) fn persistent_legality(sdfg: &Sdfg) -> Result<(), LowerError> {
    let mut err: Option<LowerError> = None;
    sdfg.visit_states(&mut |state| {
        for op in &state.ops {
            match &op.op {
                Op::Map(m) if m.schedule != Schedule::GpuPersistent => {
                    err.get_or_insert(LowerError::MapNotScheduled(m.name.clone()));
                }
                Op::Lib(
                    LibNode::MpiIsend { .. } | LibNode::MpiIrecv { .. } | LibNode::MpiWaitall,
                ) => {
                    err.get_or_insert(LowerError::MpiInPersistent);
                }
                Op::Lib(
                    LibNode::PutmemSignal { dst, src, .. }
                    | LibNode::PutmemSignalBlock { dst, src, .. },
                ) => {
                    if sdfg.array(&dst.array).storage != Storage::GpuNvshmem {
                        err.get_or_insert(LowerError::PutTargetNotSymmetric(dst.array.clone()));
                    }
                    if !dst.is_structurally_contiguous() || !src.is_structurally_contiguous() {
                        err.get_or_insert(LowerError::StridedPutmemSignal(dst.array.clone()));
                    }
                }
                Op::Lib(
                    LibNode::Iput { dst, .. }
                    | LibNode::PutSingle { dst, .. }
                    | LibNode::PutMapped { dst, .. },
                ) if sdfg.array(&dst.array).storage != Storage::GpuNvshmem => {
                    err.get_or_insert(LowerError::PutTargetNotSymmetric(dst.array.clone()));
                }
                _ => {}
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(())
}

/// Spawn the per-PE persistent control kernels and run the machine.
fn launch_persistent(inst: &Arc<Instance>, name: &str) -> Result<SimTime, sim_des::SimError> {
    let sm = inst.machine.spec().sm_count as u64;
    let inst_l = Arc::clone(inst);
    launch_cpu_free(&inst.machine.clone(), name, move |pe| {
        let inst = Arc::clone(&inst_l);
        vec![BlockGroup::new("ctrl", sm, move |k| {
            let mut b = inst.bindings(pe);
            let world = inst.world.clone();
            let mut sh = ShmemCtx::new(&world, k);
            schedule::walk(&inst.sdfg.body, &mut b, None, &mut |step, b| {
                exec_step(k, &mut sh, &inst, pe, b, step);
            });
        })]
    })
}

/// Validate and run the CPU-Free (persistent, NVSHMEM) backend.
pub fn run_persistent(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    iterations: u64,
    exec: ExecMode,
    init: &dyn Fn(usize, &str) -> Vec<f64>,
) -> Result<Lowered, LowerError> {
    persistent_legality(sdfg)?;
    verify_gate(sdfg, n_pes, user)?;
    let inst = build_instance(sdfg, n_pes, user, exec, init)?;
    let end = launch_persistent(&inst, &sdfg.name)
        .unwrap_or_else(|e| panic!("persistent lowering run failed: {e}"));
    Ok(collect(&inst, end, iterations))
}

/// [`run_persistent`] on an explicit topology preset, without the dynamic
/// checker — the configuration the static cost predictor
/// ([`crate::cost::predict_cost`]) is validated against: identical timing
/// to [`run_persistent`] (the checker adds no virtual time, but this
/// avoids its bookkeeping), with the interconnect selectable.
pub fn run_persistent_on(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    iterations: u64,
    topology: TopologyKind,
    exec: ExecMode,
    init: &dyn Fn(usize, &str) -> Vec<f64>,
) -> Result<Lowered, LowerError> {
    persistent_legality(sdfg)?;
    verify_gate(sdfg, n_pes, user)?;
    let machine = Machine::with_topology(n_pes, CostModel::a100_hgx(), topology, exec);
    let inst = build_instance_on(sdfg, n_pes, user, machine, init)?;
    let end = launch_persistent(&inst, &sdfg.name)
        .unwrap_or_else(|e| panic!("persistent lowering run failed: {e}"));
    Ok(collect(&inst, end, iterations))
}

/// The result of a dynamically-checked persistent run: the happens-before
/// checker's report alongside the (possibly absent, on deadlock) execution
/// results.
#[derive(Debug)]
pub struct CheckedRun {
    /// Execution results; `None` when the simulated run deadlocked.
    pub lowered: Option<Lowered>,
    /// The dynamic checker's findings (races, lost signals, divergence).
    pub report: CheckReport,
    /// Did the run deadlock or time out instead of completing?
    pub deadlocked: bool,
}

/// Run the CPU-Free backend under the dynamic happens-before checker, with
/// SDFG-level map/copy footprints and per-iteration commits annotated.
///
/// With `gate` set, the static verifier runs first and rejects
/// non-conforming programs as [`LowerError::ProtocolViolation`] — the
/// production configuration. The differential test harness passes
/// `gate: false` to execute known-bad programs and compare the dynamic
/// findings against the static report.
pub fn run_persistent_checked(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    iterations: u64,
    topology: TopologyKind,
    gate: bool,
    init: &dyn Fn(usize, &str) -> Vec<f64>,
) -> Result<CheckedRun, LowerError> {
    persistent_legality(sdfg)?;
    if gate {
        verify_gate(sdfg, n_pes, user)?;
    }
    let machine = Machine::with_topology(n_pes, CostModel::a100_hgx(), topology, ExecMode::Full)
        .with_checker();
    let inst = build_instance_on(sdfg, n_pes, user, machine, init)?;
    let (lowered, deadlocked) = match launch_persistent(&inst, &sdfg.name) {
        Ok(end) => (Some(collect(&inst, end, iterations)), false),
        // Deadlock/timeout: the machine already converted still-blocked
        // waits into lost-signal diagnostics on the checker.
        Err(_) => (None, true),
    };
    let report = inst.machine.checker().expect("checker enabled").report();
    Ok(CheckedRun {
        lowered,
        report,
        deadlocked,
    })
}

/// Execute one step of the persistent schedule on PE `pe`.
fn exec_step(
    k: &mut KernelCtx<'_>,
    sh: &mut ShmemCtx,
    inst: &Instance,
    pe: usize,
    b: &Bindings,
    step: Step<'_>,
) {
    match step {
        Step::Map(m) => {
            if inst.checked {
                // Exact per-interval footprints: a bounding box would
                // falsely race with concurrently-landing halo puts.
                let fp = map_footprint(m, b, |name| inst.shape(name));
                for (array, cells) in &fp.reads {
                    let buf = inst.buf(array, pe).clone();
                    for &(lo, hi) in cells.intervals() {
                        k.check_read(&buf, lo, hi, &m.name);
                    }
                }
                for (array, cells) in &fp.writes {
                    let buf = inst.buf(array, pe).clone();
                    for &(lo, hi) in cells.intervals() {
                        k.check_write(&buf, lo, hi, &m.name);
                    }
                }
            }
            let dur = map_cost(k.cost(), m.volume(b), false);
            k.busy(Category::Compute, m.name.clone(), dur);
            if k.exec_mode() == ExecMode::Full {
                exec_map(inst, m, pe, b);
            }
        }
        Step::Copy { dst, src } => {
            let rd = dst.resolve(inst.shape(&dst.array), b);
            let rs = src.resolve(inst.shape(&src.array), b);
            assert_eq!(rd.count, rs.count, "copy size mismatch");
            if inst.checked {
                let sbuf = inst.buf(&src.array, pe).clone();
                for &(lo, hi) in IntervalSet::from_resolved(&rs).intervals() {
                    k.check_read(&sbuf, lo, hi, "copy");
                }
                let dbuf = inst.buf(&dst.array, pe).clone();
                for &(lo, hi) in IntervalSet::from_resolved(&rd).intervals() {
                    k.check_write(&dbuf, lo, hi, "copy");
                }
            }
            let dur = k.cost().local_copy((rd.count * 8) as u64);
            k.busy(Category::Comm, "in-kernel copy", dur);
            if k.exec_mode() == ExecMode::Full {
                let dbuf = inst.buf(&dst.array, pe);
                let sbuf = inst.buf(&src.array, pe);
                if rd.stride == 1 && rs.stride == 1 {
                    dbuf.copy_from(rd.offset, sbuf, rs.offset, rd.count);
                } else {
                    dbuf.copy_strided_from(
                        rd.offset, rd.stride, sbuf, rs.offset, rs.stride, rd.count,
                    );
                }
            }
        }
        Step::Lib(lib) => exec_lib_persistent(k, sh, inst, pe, b, lib),
        Step::GridSync => k.grid_sync(),
        Step::IterEnd(v) => {
            // Report the iteration commit to the divergence monitor
            // (eligible ranks only — see `iteration_eligible`).
            if inst.checked && inst.iter_eligible[pe] {
                if let Some(chk) = inst.machine.checker() {
                    chk.iteration(pe, v.max(0) as u64, &format!("pe{pe}"), k.now());
                }
            }
        }
    }
}

fn exec_lib_persistent(
    k: &mut KernelCtx<'_>,
    sh: &mut ShmemCtx,
    inst: &Instance,
    pe: usize,
    b: &Bindings,
    lib: &LibNode,
) {
    match lib {
        LibNode::PutmemSignal {
            dst,
            src,
            sig,
            val,
            pe: pex,
        } => {
            let target = pex.eval(b) as usize;
            let rd = dst.resolve(inst.shape(&dst.array), b);
            let rs = src.resolve(inst.shape(&src.array), b);
            assert_eq!(rd.count, rs.count, "put size mismatch");
            let sym = inst.arrays[&dst.array]
                .sym()
                .expect("validated symmetric storage");
            let srcbuf = inst.buf(&src.array, pe).clone();
            sh.putmem_signal_nbi(
                k,
                sym,
                rd.offset,
                &srcbuf,
                rs.offset,
                rd.count,
                &inst.sigs[sig],
                SignalOp::Set,
                val.eval(b) as u64,
                target,
            );
        }
        LibNode::PutmemSignalBlock {
            dst,
            src,
            sig,
            val,
            pe: pex,
        } => {
            let target = pex.eval(b) as usize;
            let rd = dst.resolve(inst.shape(&dst.array), b);
            let rs = src.resolve(inst.shape(&src.array), b);
            assert_eq!(rd.count, rs.count, "put size mismatch");
            let sym = inst.arrays[&dst.array]
                .sym()
                .expect("validated symmetric storage");
            let srcbuf = inst.buf(&src.array, pe).clone();
            sh.putmem_signal_block(
                k,
                sym,
                rd.offset,
                &srcbuf,
                rs.offset,
                rd.count,
                &inst.sigs[sig],
                SignalOp::Set,
                val.eval(b) as u64,
                target,
            );
        }
        LibNode::PutMapped { dst, src, pe: pex } => {
            let target = pex.eval(b) as usize;
            let rd = dst.resolve(inst.shape(&dst.array), b);
            let rs = src.resolve(inst.shape(&src.array), b);
            assert_eq!(rd.count, rs.count, "put size mismatch");
            assert!(
                rd.stride == 1 && rs.stride == 1,
                "PutMapped requires contiguous subsets"
            );
            let sym = inst.arrays[&dst.array]
                .sym()
                .expect("validated symmetric storage");
            let srcbuf = inst.buf(&src.array, pe).clone();
            let threads = u64::from(BLOCK_THREADS);
            sh.put_mapped(
                k, sym, rd.offset, &srcbuf, rs.offset, rd.count, threads, target,
            );
        }
        LibNode::SignalWait { sig, val } => {
            sh.signal_wait_until(k, &inst.sigs[sig], Cmp::Ge, val.eval(b) as u64);
        }
        LibNode::Iput { dst, src, pe: pex } => {
            let target = pex.eval(b) as usize;
            let rd = dst.resolve(inst.shape(&dst.array), b);
            let rs = src.resolve(inst.shape(&src.array), b);
            assert_eq!(rd.count, rs.count, "iput size mismatch");
            let sym = inst.arrays[&dst.array]
                .sym()
                .expect("validated symmetric storage");
            let srcbuf = inst.buf(&src.array, pe).clone();
            sh.iput(
                k, sym, rd.offset, rd.stride, &srcbuf, rs.offset, rs.stride, rd.count, target,
            );
        }
        LibNode::PutSingle { dst, src, pe: pex } => {
            let target = pex.eval(b) as usize;
            let rd = dst.resolve(inst.shape(&dst.array), b);
            let rs = src.resolve(inst.shape(&src.array), b);
            assert_eq!(rd.count, 1, "PutSingle requires a single element");
            let sym = inst.arrays[&dst.array]
                .sym()
                .expect("validated symmetric storage");
            let value = inst.buf(&src.array, pe).get(rs.offset);
            sh.p(k, sym, rd.offset, value, target);
        }
        LibNode::SignalOp { sig, val, pe: pex } => {
            let target = pex.eval(b) as usize;
            sh.signal_op(
                k,
                &inst.sigs[sig],
                SignalOp::Set,
                val.eval(b) as u64,
                target,
            );
        }
        LibNode::Quiet => sh.quiet(k),
        LibNode::MpiIsend { .. } | LibNode::MpiIrecv { .. } | LibNode::MpiWaitall => {
            unreachable!("validated: no MPI nodes in persistent backend")
        }
    }
}

// ------------------------------------------------------------------

fn collect(inst: &Instance, end: SimTime, iterations: u64) -> Lowered {
    let total = end.since(SimTime::ZERO);
    let stats = RunStats::from_trace(&inst.machine.trace(), total, iterations);
    let mut finals = BTreeMap::new();
    let mut checksum = 0u64;
    for (name, arr) in &inst.arrays {
        let per_pe: Vec<Vec<f64>> = (0..inst.n).map(|pe| arr.local(pe).to_vec()).collect();
        for pe in 0..inst.n {
            checksum = checksum
                .wrapping_mul(1_000_003)
                .wrapping_add(arr.local(pe).checksum());
        }
        finals.insert(name.clone(), per_pe);
    }
    Lowered {
        total,
        stats,
        finals,
        checksum,
    }
}
