//! # nvshmem-sim — GPU-initiated PGAS communication over `gpu-sim`
//!
//! A faithful-in-shape reimplementation of the NVSHMEM API surface the
//! CPU-Free paper uses, executing on the simulated multi-GPU node:
//!
//! * a **symmetric heap**: [`ShmemWorld::malloc`] allocates one buffer per
//!   PE (device), remotely addressable through the RMA calls;
//! * **signals**: 64-bit symmetric cells updated atomically by
//!   [`ShmemCtx::signal_op`] / the put-with-signal calls, waited on with
//!   [`ShmemCtx::signal_wait_until`] (the §4.1.1 semaphore protocol);
//! * **RMA**: blocking and non-blocking contiguous puts
//!   ([`ShmemCtx::putmem`], [`ShmemCtx::putmem_nbi`]), the composite
//!   [`ShmemCtx::putmem_signal_nbi`] (the paper's
//!   `nvshmemx_putmem_signal_nbi_block`), strided [`ShmemCtx::iput`] and
//!   single-element [`ShmemCtx::p`];
//! * **ordering**: [`ShmemCtx::quiet`] / [`ShmemCtx::fence`] complete
//!   outstanding non-blocking operations;
//! * **collectives**: [`ShmemCtx::barrier_all`] across all PEs.
//!
//! Non-blocking transfers cost the issuing thread block only the issue
//! latency; the payload lands in the destination buffer — and the optional
//! signal fires — at the modeled delivery time, so waiters always observe
//! the data *after* it exists (enforced by engine event ordering).
//!
//! All wire time is charged through the machine's [`gpu_sim::Transport`]:
//! a transfer occupies every link on its `(src, dst)` route, queueing
//! behind concurrent traffic on shared hops, and fault link-degradation is
//! applied inside that one path. Collectives derive their neighbor
//! selection from the machine's [`gpu_sim::Topology`] rather than raw rank
//! arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;

pub use collectives::{
    allreduce, allreduce_scalar, reference_reduce, wait_from, AllreduceWs, Members, ReduceOp, Wait,
};

use gpu_sim::{Buf, Checker, DevId, FaultState, KernelCtx, Machine, Transport};
use sim_des::{AsyncClock, Category, Cmp, Flag, SignalOp, SimDur, SimTime, WaitTimedOut};
use std::sync::Arc;

/// A symmetric array: one same-sized buffer per PE on the symmetric heap.
#[derive(Clone)]
pub struct SymArray {
    name: String,
    bufs: Arc<Vec<Buf>>,
}

impl SymArray {
    /// The allocation's debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local buffer of `pe`.
    pub fn local(&self, pe: usize) -> &Buf {
        &self.bufs[pe]
    }

    /// Elements per PE.
    pub fn len(&self) -> usize {
        self.bufs[0].len()
    }

    /// True when the per-PE length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.bufs.len()
    }
}

/// A symmetric 64-bit signal cell: one engine flag per PE.
#[derive(Clone)]
pub struct SymSignal {
    flags: Arc<Vec<Flag>>,
}

impl SymSignal {
    /// The flag backing `pe`'s copy of the cell.
    pub fn flag(&self, pe: usize) -> Flag {
        self.flags[pe]
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.flags.len()
    }
}

/// The NVSHMEM "world": PE numbering, symmetric allocation, collectives.
#[derive(Clone)]
pub struct ShmemWorld {
    machine: Machine,
    device_barrier: sim_des::Barrier,
}

impl ShmemWorld {
    /// Initialize over a machine: every device becomes a PE.
    pub fn init(machine: &Machine) -> ShmemWorld {
        ShmemWorld {
            machine: machine.clone(),
            device_barrier: machine.barrier(machine.num_devices()),
        }
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.machine.num_devices()
    }

    /// The machine underneath.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The interconnect graph collectives derive their neighbor selection
    /// from (the ring embedding).
    pub fn topology(&self) -> &Arc<gpu_sim::Topology> {
        self.machine.topology()
    }

    /// Collective symmetric allocation (`nvshmem_malloc`): `len` f64
    /// elements on every PE, zero-initialized.
    pub fn malloc(&self, name: impl Into<String>, len: usize) -> SymArray {
        let name = name.into();
        let bufs = (0..self.n_pes())
            .map(|pe| {
                self.machine
                    .alloc_symmetric(DevId(pe), format!("{name}@pe{pe}"), len)
            })
            .collect();
        SymArray {
            name,
            bufs: Arc::new(bufs),
        }
    }

    /// Allocate a symmetric signal cell, initialized to `init` on every PE.
    pub fn signal(&self, init: u64) -> SymSignal {
        let flags = (0..self.n_pes()).map(|_| self.machine.flag(init)).collect();
        SymSignal {
            flags: Arc::new(flags),
        }
    }

    /// Allocate `count` signal cells (e.g. the four per-PE halo flags of the
    /// 2D stencil: top-in, top-out, bottom-in, bottom-out).
    pub fn signals(&self, count: usize, init: u64) -> Vec<SymSignal> {
        (0..count).map(|_| self.signal(init)).collect()
    }
}

/// Per-PE device-side NVSHMEM context, created inside a kernel body.
///
/// Tracks outstanding non-blocking operations so that [`ShmemCtx::quiet`]
/// has real semantics: it blocks until the latest scheduled delivery time.
pub struct ShmemCtx {
    world: ShmemWorld,
    pe: usize,
    /// Completion time of the latest outstanding non-blocking transfer.
    outstanding_until: SimTime,
    /// The machine's fault schedule (fault-free by default).
    faults: Arc<FaultState>,
    /// The machine's transfer-charging layer (routes + link occupancy).
    transport: Transport,
    /// The machine's race/conformance checker, when enabled.
    checker: Option<Arc<Checker>>,
    /// Async-effect stamps of outstanding `nbi` operations, absorbed into
    /// the agent's clock by [`ShmemCtx::quiet`].
    outstanding: Vec<AsyncClock>,
}

impl ShmemCtx {
    /// Create the context for the PE owning `ctx`'s device.
    ///
    /// Also declares the agent's wait-for-graph identity as `"pe{n}"`, so
    /// timeout / deadlock diagnoses can name PEs in cycle reports.
    pub fn new(world: &ShmemWorld, ctx: &KernelCtx<'_>) -> ShmemCtx {
        let pe = ctx.device().0;
        ctx.agent().set_identity(format!("pe{pe}"));
        ShmemCtx {
            world: world.clone(),
            pe,
            outstanding_until: SimTime::ZERO,
            faults: world.machine().faults(),
            transport: world.machine().transport().clone(),
            checker: world.machine().checker(),
            outstanding: Vec::new(),
        }
    }

    /// The machine's checker, when enabled with `Machine::with_checker`.
    pub fn checker(&self) -> Option<&Arc<Checker>> {
        self.checker.as_ref()
    }

    /// Record an asynchronous put's memory effects (in-flight source read +
    /// delivered destination write) and return the stamp to thread through
    /// the delivery signal. `None` when the checker is disabled.
    #[allow(clippy::too_many_arguments)]
    fn begin_async_put(
        &mut self,
        ctx: &KernelCtx<'_>,
        dst: &Buf,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        delivered_at: SimTime,
        label: &str,
    ) -> Option<AsyncClock> {
        let chk = self.checker.as_ref()?;
        let agent = ctx.agent();
        let stamp = chk.async_begin(agent);
        chk.record_async(
            &stamp,
            agent.now(),
            src,
            src_off,
            src_off + len,
            false,
            true,
            label,
        );
        chk.record_async(
            &stamp,
            delivered_at,
            dst,
            dst_off,
            dst_off + len,
            true,
            false,
            label,
        );
        self.outstanding.push(stamp.clone());
        Some(stamp)
    }

    /// Record a synchronous (blocking) put's effects under the agent clock.
    fn record_sync_copy(
        &self,
        ctx: &KernelCtx<'_>,
        dst: &Buf,
        dst_range: (usize, usize),
        src: &Buf,
        src_range: (usize, usize),
        label: &str,
    ) {
        if let Some(chk) = &self.checker {
            let agent = ctx.agent();
            chk.record(agent, src, src_range.0, src_range.1, false, label);
            chk.record(agent, dst, dst_range.0, dst_range.1, true, label);
        }
    }

    /// Record a strided transfer's effects element-exactly. A bounding-span
    /// record would overlap the untouched cells *between* the strides and
    /// report false races against concurrent accesses to them (e.g. the
    /// interleaved column exchanges of a 2D halo).
    #[allow(clippy::too_many_arguments)]
    fn record_sync_copy_strided(
        &self,
        ctx: &KernelCtx<'_>,
        dst: &Buf,
        (dst_off, dst_stride): (usize, usize),
        src: &Buf,
        (src_off, src_stride): (usize, usize),
        count: usize,
        label: &str,
    ) {
        if let Some(chk) = &self.checker {
            let agent = ctx.agent();
            if src_stride <= 1 {
                chk.record(agent, src, src_off, src_off + count, false, label);
            } else {
                for k in 0..count {
                    let c = src_off + k * src_stride;
                    chk.record(agent, src, c, c + 1, false, label);
                }
            }
            if dst_stride <= 1 {
                chk.record(agent, dst, dst_off, dst_off + count, true, label);
            } else {
                for k in 0..count {
                    let c = dst_off + k * dst_stride;
                    chk.record(agent, dst, c, c + 1, true, label);
                }
            }
        }
    }

    /// This PE's rank (`nvshmem_my_pe`).
    pub fn my_pe(&self) -> usize {
        self.pe
    }

    /// Number of PEs (`nvshmem_n_pes`).
    pub fn n_pes(&self) -> usize {
        self.world.n_pes()
    }

    /// The world this context belongs to (topology queries, team info).
    pub fn world(&self) -> &ShmemWorld {
        &self.world
    }

    fn check_pe(&self, pe: usize) {
        assert!(
            pe < self.n_pes(),
            "target PE {pe} out of range ({} PEs)",
            self.n_pes()
        );
    }

    fn assert_symmetric(dst: &SymArray, dst_off: usize, len: usize) {
        assert!(
            dst_off + len <= dst.len(),
            "remote write out of range: {}..{} > {} on `{}`",
            dst_off,
            dst_off + len,
            dst.len(),
            dst.name()
        );
    }

    /// Blocking contiguous put: returns after the data is delivered.
    #[allow(clippy::too_many_arguments)]
    pub fn putmem(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        pe: usize,
    ) {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_off, len);
        let bytes = (len * 8) as u64;
        let dur = self.transport.shmem_put(self.pe, pe, bytes, ctx.now());
        ctx.busy(Category::Comm, format!("putmem->pe{pe} {len}el"), dur);
        dst.local(pe).copy_from(dst_off, src, src_off, len);
        self.record_sync_copy(
            ctx,
            dst.local(pe),
            (dst_off, dst_off + len),
            src,
            (src_off, src_off + len),
            "putmem",
        );
    }

    /// Non-blocking contiguous put (`nvshmem_putmem_nbi`): the calling
    /// thread block pays only the issue latency; data lands later. Complete
    /// with [`ShmemCtx::quiet`].
    #[allow(clippy::too_many_arguments)]
    pub fn putmem_nbi(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        pe: usize,
    ) {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_off, len);
        let bytes = (len * 8) as u64;
        let issue = ctx.cost().shmem_signal(); // issue overhead ≈ one device op
        let delivery = self.transport.shmem_put(self.pe, pe, bytes, ctx.now());
        ctx.busy(Category::Comm, format!("putmem_nbi->pe{pe} {len}el"), issue);
        let remaining = delivery.saturating_sub(issue);
        let done_at = ctx.now() + remaining;
        self.begin_async_put(
            ctx,
            dst.local(pe),
            dst_off,
            src,
            src_off,
            len,
            done_at,
            "putmem_nbi",
        );
        let dst_buf = dst.local(pe).clone();
        let src_buf = src.clone();
        let agent = ctx.agent_mut();
        agent.schedule_call(remaining, move || {
            dst_buf.copy_from(dst_off, &src_buf, src_off, len);
        });
        if done_at > self.outstanding_until {
            self.outstanding_until = done_at;
        }
    }

    /// Composite put + remote signal (`nvshmemx_putmem_signal_nbi_block`):
    /// issues the transfer, and when the payload is delivered the signal on
    /// the destination PE is updated — the waiter observes data-then-flag.
    ///
    /// Subject to the machine's [`FaultState`]: a delivery falling inside a
    /// drop window is silently lost (the issue cost is still charged), and
    /// link-degradation windows stretch the delivery time. Fault-tolerant
    /// protocols should use [`ShmemCtx::putmem_signal_reliable`].
    #[allow(clippy::too_many_arguments)]
    pub fn putmem_signal_nbi(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        sig: &SymSignal,
        sig_op: SignalOp,
        sig_val: u64,
        pe: usize,
    ) {
        self.putmem_signal_inner(
            ctx, dst, dst_off, src, src_off, len, sig, sig_op, sig_val, pe,
        );
    }

    /// Shared body of the drop-prone put-with-signal paths. Returns `false`
    /// when the delivery was dropped by the fault schedule.
    #[allow(clippy::too_many_arguments)]
    fn putmem_signal_inner(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        sig: &SymSignal,
        sig_op: SignalOp,
        sig_val: u64,
        pe: usize,
    ) -> bool {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_off, len);
        let bytes = (len * 8) as u64;
        let issue = ctx.cost().shmem_signal();
        if self.faults.is_active() && self.faults.should_drop(self.pe, pe) {
            // Lost doorbell: the sender pays the issue latency but neither
            // the payload nor the signal ever lands.
            ctx.busy(
                Category::Comm,
                format!("putmem_signal_nbi->pe{pe} {len}el (dropped)"),
                issue,
            );
            return false;
        }
        let delivery =
            self.transport
                .put_signal_delivery(&self.faults, self.pe, pe, bytes, ctx.now(), false);
        ctx.busy(
            Category::Comm,
            format!("putmem_signal_nbi->pe{pe} {len}el"),
            issue,
        );
        let remaining = delivery.saturating_sub(issue);
        let done_at = ctx.now() + remaining;
        let stamp = self.begin_async_put(
            ctx,
            dst.local(pe),
            dst_off,
            src,
            src_off,
            len,
            done_at,
            "putmem_signal_nbi",
        );
        let dst_buf = dst.local(pe).clone();
        let src_buf = src.clone();
        let flag = sig.flag(pe);
        let agent = ctx.agent_mut();
        agent.schedule_call(remaining, move || {
            dst_buf.copy_from(dst_off, &src_buf, src_off, len);
        });
        match stamp {
            // Carry the async-effect clock on the signal so the waiter
            // happens-after the delivered payload, not just the issue.
            Some(s) => agent.schedule_signal_with_stamp(flag, sig_op, sig_val, remaining, s),
            None => agent.schedule_signal(flag, sig_op, sig_val, remaining),
        }
        if done_at > self.outstanding_until {
            self.outstanding_until = done_at;
        }
        true
    }

    /// Retrying put + signal for fault-tolerant protocols: on a dropped
    /// delivery the sender backs off — four signal latencies, doubling
    /// every retry — and re-issues until the delivery lands. Returns the
    /// number of attempts (1 on a healthy route, where this is exactly
    /// [`ShmemCtx::putmem_signal_nbi`]); each backoff span in the trace
    /// carries the attempt number. Deterministic: drop windows are
    /// attempt-counted, so the retry sequence is a pure function of the
    /// fault plan.
    #[allow(clippy::too_many_arguments)]
    pub fn putmem_signal_reliable(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        sig: &SymSignal,
        sig_op: SignalOp,
        sig_val: u64,
        pe: usize,
    ) -> u32 {
        let mut attempts = 1u32;
        let mut backoff = ctx.cost().shmem_signal() * 4;
        while !self.putmem_signal_inner(
            ctx, dst, dst_off, src, src_off, len, sig, sig_op, sig_val, pe,
        ) {
            ctx.busy(
                Category::Comm,
                format!("put_retry_backoff->pe{pe} attempt {attempts}"),
                backoff,
            );
            backoff = backoff * 2;
            attempts += 1;
        }
        attempts
    }

    /// Block-cooperative composite put + signal
    /// (`nvshmemx_putmem_signal_block`): the whole thread block drives the
    /// transfer, improving effective bandwidth over the single-thread
    /// variant (§5.3.2's granularity dimension).
    #[allow(clippy::too_many_arguments)]
    pub fn putmem_signal_block(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        sig: &SymSignal,
        sig_op: SignalOp,
        sig_val: u64,
        pe: usize,
    ) {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_off, len);
        let bytes = (len * 8) as u64;
        let issue = ctx.cost().shmem_signal();
        let delivery =
            self.transport
                .put_signal_delivery(&self.faults, self.pe, pe, bytes, ctx.now(), true);
        ctx.busy(
            Category::Comm,
            format!("putmem_signal_block->pe{pe} {len}el"),
            issue,
        );
        let remaining = delivery.saturating_sub(issue);
        let done_at = ctx.now() + remaining;
        let stamp = self.begin_async_put(
            ctx,
            dst.local(pe),
            dst_off,
            src,
            src_off,
            len,
            done_at,
            "putmem_signal_block",
        );
        let dst_buf = dst.local(pe).clone();
        let src_buf = src.clone();
        let flag = sig.flag(pe);
        let agent = ctx.agent_mut();
        agent.schedule_call(remaining, move || {
            dst_buf.copy_from(dst_off, &src_buf, src_off, len);
        });
        match stamp {
            Some(s) => agent.schedule_signal_with_stamp(flag, sig_op, sig_val, remaining, s),
            None => agent.schedule_signal(flag, sig_op, sig_val, remaining),
        }
        if done_at > self.outstanding_until {
            self.outstanding_until = done_at;
        }
    }

    /// Mapped single-element specialization (§5.3.2): `count` contiguous
    /// elements transferred as parallel `nvshmem_<T>_p` calls issued by up
    /// to `threads` GPU threads. Blocking; order with `quiet` not needed.
    #[allow(clippy::too_many_arguments)]
    pub fn put_mapped(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        src: &Buf,
        src_off: usize,
        len: usize,
        threads: u64,
        pe: usize,
    ) {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_off, len);
        let dur = self
            .transport
            .shmem_p_mapped(self.pe, pe, len as u64, threads, ctx.now());
        ctx.busy(Category::Comm, format!("p_mapped->pe{pe} {len}el"), dur);
        dst.local(pe).copy_from(dst_off, src, src_off, len);
        self.record_sync_copy(
            ctx,
            dst.local(pe),
            (dst_off, dst_off + len),
            src,
            (src_off, src_off + len),
            "p_mapped",
        );
    }

    /// Remote atomic signal update (`nvshmemx_signal_op`).
    pub fn signal_op(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sig: &SymSignal,
        op: SignalOp,
        value: u64,
        pe: usize,
    ) {
        self.check_pe(pe);
        let dur = self.transport.shmem_signal(self.pe, pe, ctx.now());
        ctx.busy(Category::Comm, format!("signal_op->pe{pe}"), dur);
        // The update lands after the NVLink signal latency.
        let flag = sig.flag(pe);
        ctx.agent_mut()
            .schedule_signal(flag, op, value, SimDur::ZERO);
    }

    /// Wait until this PE's copy of the signal satisfies `cmp value`
    /// (`nvshmem_signal_wait_until`). Charges the polling granularity.
    pub fn signal_wait_until(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sig: &SymSignal,
        cmp: Cmp,
        value: u64,
    ) {
        let flag = sig.flag(self.pe);
        let poll = ctx.cost().shmem_poll();
        let agent = ctx.agent_mut();
        let start = agent.now();
        agent.wait_flag(flag, cmp, value);
        agent.advance(poll);
        let end = agent.now();
        agent.record(
            Category::Sync,
            format!("signal_wait {cmp:?} {value}"),
            start,
            end,
        );
    }

    /// Deadline-bounded signal wait: like [`ShmemCtx::signal_wait_until`]
    /// but gives up at the virtual-time `deadline`, resuming at exactly that
    /// instant with `Err`. The building block of interruptible waits in
    /// fault-tolerant protocols (poll for recovery notices between slices).
    pub fn signal_wait_until_deadline(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sig: &SymSignal,
        cmp: Cmp,
        value: u64,
        deadline: SimTime,
    ) -> Result<(), WaitTimedOut> {
        let flag = sig.flag(self.pe);
        let poll = ctx.cost().shmem_poll();
        let agent = ctx.agent_mut();
        let start = agent.now();
        let r = agent.wait_flag_until(flag, cmp, value, deadline);
        if r.is_ok() {
            agent.advance(poll);
        }
        let end = agent.now();
        agent.record(
            Category::Sync,
            format!("signal_wait {cmp:?} {value}"),
            start,
            end,
        );
        r
    }

    /// Signal wait that declares the PE expected to deliver the signal — a
    /// wait-for-graph edge. On deadlock/timeout the engine reports the full
    /// cycle of PEs instead of a flat blocked list.
    pub fn signal_wait_from(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sig: &SymSignal,
        cmp: Cmp,
        value: u64,
        from_pe: usize,
    ) {
        let flag = sig.flag(self.pe);
        let poll = ctx.cost().shmem_poll();
        let agent = ctx.agent_mut();
        let start = agent.now();
        agent.wait_flag_from(flag, cmp, value, format!("pe{from_pe}"));
        agent.advance(poll);
        let end = agent.now();
        agent.record(
            Category::Sync,
            format!("signal_wait {cmp:?} {value} from pe{from_pe}"),
            start,
            end,
        );
    }

    /// Read this PE's copy of a signal without waiting.
    pub fn signal_fetch(&self, ctx: &KernelCtx<'_>, sig: &SymSignal) -> u64 {
        ctx.agent().flag_value(sig.flag(self.pe))
    }

    /// Strided put (`nvshmem_<T>_iput`): `count` elements, gathering every
    /// `src_stride`-th element locally and scattering every `dst_stride`-th
    /// element remotely. Blocking; per-element issue overhead dominates.
    #[allow(clippy::too_many_arguments)]
    pub fn iput(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        dst_stride: usize,
        src: &Buf,
        src_off: usize,
        src_stride: usize,
        count: usize,
        pe: usize,
    ) {
        self.check_pe(pe);
        if count == 0 {
            return;
        }
        assert!(
            dst_off + (count - 1) * dst_stride < dst.len(),
            "iput dst out of range on `{}`",
            dst.name()
        );
        let dur = self
            .transport
            .shmem_iput(self.pe, pe, count as u64, 8, ctx.now());
        ctx.busy(Category::Comm, format!("iput->pe{pe} {count}el"), dur);
        dst.local(pe)
            .copy_strided_from(dst_off, dst_stride, src, src_off, src_stride, count);
        self.record_sync_copy_strided(
            ctx,
            dst.local(pe),
            (dst_off, dst_stride),
            src,
            (src_off, src_stride),
            count,
            "iput",
        );
    }

    /// Strided get (`nvshmem_<T>_iget`): gather `count` elements from the
    /// remote PE's copy of `src` into a local buffer. Blocking (gets cannot
    /// be deferred — the caller uses the data next).
    #[allow(clippy::too_many_arguments)]
    pub fn iget(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &Buf,
        dst_off: usize,
        dst_stride: usize,
        src: &SymArray,
        src_off: usize,
        src_stride: usize,
        count: usize,
        pe: usize,
    ) {
        self.check_pe(pe);
        if count == 0 {
            return;
        }
        assert!(
            src_off + (count - 1) * src_stride < src.len(),
            "iget src out of range on `{}`",
            src.name()
        );
        let dur = self
            .transport
            .shmem_iput(pe, self.pe, count as u64, 8, ctx.now());
        ctx.busy(Category::Comm, format!("iget<-pe{pe} {count}el"), dur);
        dst.copy_strided_from(
            dst_off,
            dst_stride,
            src.local(pe),
            src_off,
            src_stride,
            count,
        );
        self.record_sync_copy_strided(
            ctx,
            dst,
            (dst_off, dst_stride),
            src.local(pe),
            (src_off, src_stride),
            count,
            "iget",
        );
    }

    /// Single-element remote store (`nvshmem_double_p`). Non-blocking in
    /// effect: value lands after the store latency; order with `quiet`.
    pub fn p(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_idx: usize,
        value: f64,
        pe: usize,
    ) {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_idx, 1);
        let issue = ctx.cost().shmem_signal();
        let delivery = self.transport.shmem_p(self.pe, pe, ctx.now());
        ctx.busy(Category::Comm, format!("p->pe{pe}"), issue);
        let remaining = delivery.saturating_sub(issue);
        let done_at = ctx.now() + remaining;
        if let Some(chk) = &self.checker {
            let agent = ctx.agent();
            let stamp = chk.async_begin(agent);
            chk.record_async(
                &stamp,
                done_at,
                dst.local(pe),
                dst_idx,
                dst_idx + 1,
                true,
                false,
                "p",
            );
            self.outstanding.push(stamp);
        }
        let dst_buf = dst.local(pe).clone();
        let agent = ctx.agent_mut();
        agent.schedule_call(remaining, move || dst_buf.set(dst_idx, value));
        if done_at > self.outstanding_until {
            self.outstanding_until = done_at;
        }
    }

    /// Complete all outstanding non-blocking operations (`nvshmem_quiet`).
    pub fn quiet(&mut self, ctx: &mut KernelCtx<'_>) {
        let now = ctx.now();
        let wait = self.outstanding_until.saturating_since(now);
        let dur = wait + ctx.cost().shmem_quiet();
        ctx.busy(Category::Sync, "quiet", dur);
        // Completion edge: the caller happens-after every outstanding
        // effect, so reusing an nbi source buffer is now race-free.
        if let Some(chk) = &self.checker {
            chk.absorb(ctx.agent(), &self.outstanding);
        }
        self.outstanding.clear();
    }

    /// Order (but do not complete) outstanding operations (`nvshmem_fence`).
    pub fn fence(&mut self, ctx: &mut KernelCtx<'_>) {
        let dur = ctx.cost().shmem_quiet();
        ctx.busy(Category::Sync, "fence", dur);
    }

    /// Barrier across all PEs (`nvshmem_barrier_all`, device-side). Exactly
    /// one agent per PE must call this per round.
    pub fn barrier_all(&mut self, ctx: &mut KernelCtx<'_>) {
        // A barrier also implies quiet.
        self.quiet(ctx);
        let barrier = self.world.device_barrier;
        let cost = ctx.cost().shmem_signal() * 2;
        let agent = ctx.agent_mut();
        let start = agent.now();
        agent.barrier(barrier);
        agent.advance(cost);
        let end = agent.now();
        agent.record(Category::Sync, "shmem barrier_all", start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BlockGroup, CostModel, ExecMode};
    use sim_des::us;

    fn setup(n: usize) -> (Machine, ShmemWorld) {
        let m = Machine::new(n, CostModel::a100_hgx(), ExecMode::Full);
        let w = ShmemWorld::init(&m);
        (m, w)
    }

    /// Run `body(pe)` as a one-block cooperative kernel on every PE.
    fn run_on_all_pes(
        m: &Machine,
        body: impl Fn(usize, &mut KernelCtx<'_>) + Send + Sync + 'static,
    ) {
        let body = Arc::new(body);
        for pe in 0..m.num_devices() {
            let body = Arc::clone(&body);
            m.spawn_host(format!("rank{pe}"), move |host| {
                let b = Arc::clone(&body);
                let k = host.launch_cooperative(
                    DevId(pe),
                    "test",
                    1024,
                    vec![BlockGroup::new("g", 1, move |kc| b(pe, kc))],
                );
                host.wait_cooperative(&k);
            });
        }
    }

    #[test]
    fn symmetric_malloc_one_buffer_per_pe() {
        let (_m, w) = setup(4);
        let a = w.malloc("halo", 128);
        assert_eq!(a.n_pes(), 4);
        assert_eq!(a.len(), 128);
        for pe in 0..4 {
            assert!(a.local(pe).place().is_symmetric());
            assert_eq!(a.local(pe).place().device(), Some(DevId(pe)));
        }
    }

    #[test]
    fn blocking_put_delivers_immediately() {
        let (m, w) = setup(2);
        let arr = w.malloc("a", 16);
        let probe = arr.clone();
        let w2 = w.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 0 {
                let src = k.machine().alloc(DevId(0), "src", 16);
                src.fill(5.0);
                sh.putmem(k, &probe, 0, &src, 0, 16, 1);
                // Blocking: data visible to us right after the call.
                assert_eq!(probe.local(1).get(15), 5.0);
            }
        });
        m.run().unwrap();
        assert_eq!(arr.local(1).get(0), 5.0);
    }

    #[test]
    fn put_signal_orders_data_before_flag() {
        let (m, w) = setup(2);
        let arr = w.malloc("halo", 64);
        let sig = w.signal(0);
        let w2 = w.clone();
        let arr2 = arr.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 0 {
                let src = k.machine().alloc(DevId(0), "src", 64);
                src.fill(3.25);
                sh.putmem_signal_nbi(k, &arr2, 0, &src, 0, 64, &sig, SignalOp::Set, 1, 1);
                // Non-blocking: remote data NOT yet visible at issue time.
                assert_eq!(arr2.local(1).get(0), 0.0);
            } else {
                sh.signal_wait_until(k, &sig, Cmp::Ge, 1);
                // After the signal, the payload must be fully visible.
                assert_eq!(arr2.local(1).get(63), 3.25);
            }
        });
        m.run().unwrap();
    }

    #[test]
    fn quiet_completes_outstanding_puts() {
        let (m, w) = setup(2);
        let arr = w.malloc("a", 1 << 16); // 512 KiB: measurable wire time
        let w2 = w.clone();
        let arr2 = arr.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 0 {
                let src = k.machine().alloc(DevId(0), "src", 1 << 16);
                src.fill(1.0);
                let t0 = k.now();
                sh.putmem_nbi(k, &arr2, 0, &src, 0, 1 << 16, 1);
                let issue_elapsed = k.now().since(t0);
                // The nbi call returns long before the wire time.
                assert!(issue_elapsed < us(2.0));
                sh.quiet(k);
                // After quiet, the data is delivered.
                assert_eq!(arr2.local(1).get((1 << 16) - 1), 1.0);
                let total = k.now().since(t0);
                let wire = k.cost().shmem_put((1u64 << 16) * 8);
                assert!(total >= wire, "quiet must cover delivery: {total} < {wire}");
            }
        });
        m.run().unwrap();
    }

    #[test]
    fn iput_scatters_strided() {
        let (m, w) = setup(2);
        // Remote "matrix" of 4 rows x 8 cols; write its column 2.
        let arr = w.malloc("mat", 32);
        let w2 = w.clone();
        let arr2 = arr.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 0 {
                let src = k.machine().alloc(DevId(0), "col", 4);
                src.write_slice(0, &[1.0, 2.0, 3.0, 4.0]);
                sh.iput(k, &arr2, 2, 8, &src, 0, 1, 4, 1);
            }
        });
        m.run().unwrap();
        let remote = arr.local(1);
        assert_eq!(remote.get(2), 1.0);
        assert_eq!(remote.get(10), 2.0);
        assert_eq!(remote.get(18), 3.0);
        assert_eq!(remote.get(26), 4.0);
        assert_eq!(remote.get(3), 0.0);
    }

    #[test]
    fn iget_gathers_remote_column() {
        let (m, w) = setup(2);
        // PE 1 holds a 4x8 "matrix"; PE 0 gathers its column 2.
        let arr = w.malloc("mat", 32);
        arr.local(1).with_mut(|d| {
            for (i, v) in d.iter_mut().enumerate() {
                *v = i as f64;
            }
        });
        let w2 = w.clone();
        let arr2 = arr.clone();
        run_on_all_pes(&m, move |pe, k| {
            if pe == 0 {
                let mut sh = ShmemCtx::new(&w2, k);
                let dst = k.machine().alloc(DevId(0), "col", 4);
                sh.iget(k, &dst, 0, 1, &arr2, 2, 8, 4, 1);
                assert_eq!(dst.to_vec(), vec![2.0, 10.0, 18.0, 26.0]);
            }
        });
        m.run().unwrap();
    }

    #[test]
    fn block_put_faster_than_thread_put_for_large_messages() {
        let c = CostModel::a100_hgx();
        let big = (1u64 << 21) * 8;
        assert!(c.shmem_put_block(big) < c.shmem_put(big));
        // Latency-dominated small messages: no meaningful difference.
        let small_diff =
            c.shmem_put(64).as_nanos() as i64 - c.shmem_put_block(64).as_nanos() as i64;
        assert!(small_diff.abs() < 100);
    }

    #[test]
    fn put_mapped_moves_data_and_charges_waves() {
        let (m, w) = setup(2);
        let arr = w.malloc("a", 4096);
        let w2 = w.clone();
        let arr2 = arr.clone();
        run_on_all_pes(&m, move |pe, k| {
            if pe == 0 {
                let mut sh = ShmemCtx::new(&w2, k);
                let src = k.machine().alloc(DevId(0), "src", 4096);
                src.fill(2.0);
                let t0 = k.now();
                sh.put_mapped(k, &arr2, 0, &src, 0, 4096, 1024, 1);
                // 4096 elements / 1024 threads = 4 waves of p-latency.
                let elapsed = k.now().since(t0);
                assert!(elapsed >= k.cost().shmem_p() * 4);
                assert_eq!(arr2.local(1).get(4095), 2.0);
            }
        });
        m.run().unwrap();
    }

    #[test]
    fn single_element_p_then_quiet() {
        let (m, w) = setup(2);
        let arr = w.malloc("cell", 4);
        let w2 = w.clone();
        let arr2 = arr.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 1 {
                sh.p(k, &arr2, 3, 9.5, 0);
                sh.quiet(k);
                assert_eq!(arr2.local(0).get(3), 9.5);
            }
        });
        m.run().unwrap();
    }

    #[test]
    fn signal_op_remote_add() {
        let (m, w) = setup(3);
        let sig = w.signal(0);
        let w2 = w.clone();
        let sig2 = sig.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe != 0 {
                sh.signal_op(k, &sig2, SignalOp::Add, 1, 0);
            } else {
                sh.signal_wait_until(k, &sig2, Cmp::Ge, 2);
                assert_eq!(sh.signal_fetch(k, &sig2), 2);
            }
        });
        m.run().unwrap();
    }

    #[test]
    fn barrier_all_synchronizes_pes() {
        let (m, w) = setup(4);
        let w2 = w.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            k.busy(Category::Compute, "skew", us(5.0 * (pe + 1) as f64));
            sh.barrier_all(k);
            // All PEs released at (or after) the slowest arrival: 20 µs.
            assert!(k.now().as_micros_f64() >= 20.0);
        });
        m.run().unwrap();
    }

    #[test]
    fn out_of_range_pe_panics() {
        let (m, w) = setup(2);
        let sig = w.signal(0);
        let w2 = w.clone();
        run_on_all_pes(&m, move |pe, k| {
            if pe == 0 {
                let mut sh = ShmemCtx::new(&w2, k);
                sh.signal_op(k, &sig, SignalOp::Set, 1, 7); // bad PE
            }
        });
        match m.run() {
            Err(sim_des::SimError::AgentPanic { message, .. }) => {
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn remote_write_bounds_checked() {
        let (m, w) = setup(2);
        let arr = w.malloc("a", 8);
        let w2 = w.clone();
        run_on_all_pes(&m, move |pe, k| {
            if pe == 0 {
                let mut sh = ShmemCtx::new(&w2, k);
                let src = k.machine().alloc(DevId(0), "src", 16);
                sh.putmem(k, &arr, 0, &src, 0, 16, 1); // too long
            }
        });
        assert!(matches!(m.run(), Err(sim_des::SimError::AgentPanic { .. })));
    }

    #[test]
    fn lost_signal_protocol_deadlocks() {
        // Failure injection: PE1 waits for a signal PE0 never sends. The
        // engine must catch this as a deadlock, not hang.
        let (m, w) = setup(2);
        let sig = w.signal(0);
        let w2 = w.clone();
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 1 {
                sh.signal_wait_until(k, &sig, Cmp::Ge, 1);
            }
        });
        assert!(matches!(m.run(), Err(sim_des::SimError::Deadlock { .. })));
    }

    #[test]
    fn device_initiated_beats_host_staged_latency() {
        // The core premise of the paper in miniature: a device-initiated
        // put+signal round trip is much cheaper than host-staged stream
        // choreography for the same payload.
        let payload = 256usize; // one small halo row

        // Device-initiated.
        let (m1, w1) = setup(2);
        let arr = w1.malloc("halo", payload);
        let sig = w1.signal(0);
        let w1c = w1.clone();
        run_on_all_pes(&m1, move |pe, k| {
            let mut sh = ShmemCtx::new(&w1c, k);
            if pe == 0 {
                let src = k.machine().alloc(DevId(0), "src", payload);
                sh.putmem_signal_nbi(k, &arr, 0, &src, 0, payload, &sig, SignalOp::Set, 1, 1);
            } else {
                sh.signal_wait_until(k, &sig, Cmp::Ge, 1);
            }
        });
        let t_dev = m1.run().unwrap();

        // Host-staged: launch kernel, sync, memcpy p2p, sync, launch, sync.
        let m2 = Machine::new(2, CostModel::a100_hgx(), ExecMode::Full);
        let src = m2.alloc(DevId(0), "src", payload);
        let dst = m2.alloc(DevId(1), "dst", payload);
        m2.spawn_host("rank0", move |host| {
            let s = host.create_stream(DevId(0), "s");
            host.launch(&s, "produce", |k| k.busy(Category::Compute, "w", us(0.1)));
            host.sync_stream(&s);
            host.memcpy_async(&s, &dst, 0, &src, 0, payload);
            host.sync_stream(&s);
            host.launch(&s, "consume", |k| k.busy(Category::Compute, "w", us(0.1)));
            host.sync_stream(&s);
        });
        let t_host = m2.run().unwrap();

        assert!(
            t_dev.as_nanos() * 2 < t_host.as_nanos(),
            "device path {t_dev} should be >2x faster than host path {t_host}"
        );
    }

    #[test]
    fn reliable_put_retries_surface_attempts_in_trace() {
        let (m, w) = setup(2);
        m.set_fault_plan(sim_des::FaultPlan::new().with_drop(sim_des::DropFault {
            from: 0,
            to: 1,
            first_attempt: 1,
            count: 2,
        }));
        let arr = w.malloc("a", 8);
        let sig = w.signal(0);
        let w2 = w.clone();
        let attempts = Arc::new(sim_des::lock::Mutex::new(0u32));
        let attempts2 = Arc::clone(&attempts);
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w2, k);
            if pe == 0 {
                let src = k.machine().alloc(DevId(0), "src", 8);
                src.fill(2.0);
                *attempts2.lock() =
                    sh.putmem_signal_reliable(k, &arr, 0, &src, 0, 8, &sig, SignalOp::Set, 1, 1);
            } else {
                sh.signal_wait_until(k, &sig, Cmp::Ge, 1);
                assert_eq!(arr.local(1).get(7), 2.0);
            }
        });
        m.run().unwrap();
        assert_eq!(*attempts.lock(), 3, "two drops then success");
        // The trace names each backoff span with its attempt number.
        let trace = m.trace();
        let labels: Vec<String> = trace
            .spans()
            .iter()
            .map(|s| trace.resolve(s.label).to_string())
            .filter(|l| l.starts_with("put_retry_backoff"))
            .collect();
        assert_eq!(
            labels,
            [
                "put_retry_backoff->pe1 attempt 1",
                "put_retry_backoff->pe1 attempt 2"
            ]
        );
        // Backoff starts at four signal latencies and doubles.
        let signal = CostModel::a100_hgx().shmem_signal();
        let backoffs: Vec<SimDur> = trace
            .spans()
            .iter()
            .filter(|s| trace.resolve(s.label).starts_with("put_retry_backoff"))
            .map(|s| s.dur())
            .collect();
        assert_eq!(backoffs, [signal * 4, signal * 8]);
    }
}
