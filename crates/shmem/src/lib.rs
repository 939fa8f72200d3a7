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
//! * **ordering**: [`ShmemCtx::quiet`] completes outstanding non-blocking
//!   operations;
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

/// What a non-blocking operation writes at its destination on delivery.
#[derive(Clone, Copy)]
enum Payload<'a> {
    /// `len` elements copied from `src[src_off..]`.
    Copy {
        src: &'a Buf,
        src_off: usize,
        len: usize,
    },
    /// One element stored (`nvshmem_<T>_p`).
    Store(f64),
}

/// An op's span label: `"{kind}->pe{pe}"`, then `" {len}el"` for a copy.
/// `kind` is pushed, not formatted: a `{kind}` argument goes through the
/// padding-aware `str` formatter, a few percent of a put's host time.
fn op_label(kind: &str, pe: usize, len: Option<usize>) -> String {
    use std::fmt::Write;
    let mut label = String::with_capacity(kind.len() + 16);
    label.push_str(kind);
    let _ = match len {
        Some(len) => write!(label, "->pe{pe} {len}el"),
        None => write!(label, "->pe{pe}"),
    };
    label
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

    /// The one non-blocking issue path, after the caller has priced the
    /// `delivery` through the transport: charge the issue latency, record
    /// the async effect (source read now, destination write at delivery),
    /// land the payload and raise the optional signal at delivery, and
    /// extend what [`ShmemCtx::quiet`] waits for.
    #[allow(clippy::too_many_arguments)]
    fn issue_nbi(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        kind: &str,
        delivery: SimDur,
        dst: &SymArray,
        dst_off: usize,
        payload: Payload<'_>,
        signal: Option<(&SymSignal, SignalOp, u64)>,
        pe: usize,
    ) {
        let issue = ctx.cost().shmem_signal();
        let len = match payload {
            Payload::Copy { len, .. } => Some(len),
            Payload::Store(_) => None,
        };
        ctx.busy(Category::Comm, op_label(kind, pe, len), issue);
        let len = len.unwrap_or(1);
        let remaining = delivery.saturating_sub(issue);
        let done_at = ctx.now() + remaining;
        let dst = dst.local(pe).clone();
        let agent = ctx.agent_mut();
        // Record every access at issue; the stamp rides the signal so the
        // waiter happens-after the delivered payload, not just the issue.
        let stamp = self.checker.as_ref().map(|chk| {
            let stamp = chk.async_begin(agent);
            if let Payload::Copy { src, src_off, .. } = payload {
                let (lo, hi) = (src_off, src_off + len);
                chk.record_async(&stamp, agent.now(), src, lo, hi, false, true, kind);
            }
            let (lo, hi) = (dst_off, dst_off + len);
            chk.record_async(&stamp, done_at, &dst, lo, hi, true, false, kind);
            self.outstanding.push(stamp.clone());
            stamp
        });
        match payload {
            Payload::Copy { src, src_off, len } => {
                let src = src.clone();
                agent.schedule_call(remaining, move || {
                    dst.copy_from(dst_off, &src, src_off, len)
                });
            }
            Payload::Store(value) => {
                agent.schedule_call(remaining, move || dst.set(dst_off, value))
            }
        }
        if let Some((sig, op, value)) = signal {
            let flag = sig.flag(pe);
            match stamp {
                Some(s) => agent.schedule_signal_with_stamp(flag, op, value, remaining, s),
                None => agent.schedule_signal(flag, op, value, remaining),
            }
        }
        self.outstanding_until = self.outstanding_until.max(done_at);
    }

    /// The one blocking copy, after the caller has priced it at `dur`:
    /// charge `dur`, then move `count` elements between the `(array,
    /// offset, stride)` sides and record both. Strided sides are recorded
    /// element-exactly: a bounding span would overlap the untouched cells
    /// between the strides and report false races against concurrent
    /// accesses to them (e.g. the interleaved column exchanges of a 2D
    /// halo). Stride 1 is the contiguous case.
    #[allow(clippy::too_many_arguments)]
    fn copy_blocking(
        &self,
        ctx: &mut KernelCtx<'_>,
        kind: &str,
        dur: SimDur,
        (dst, d_off, d_stride): (&SymArray, usize, usize),
        src: (&Buf, usize, usize),
        count: usize,
        pe: usize,
    ) {
        ctx.busy(Category::Comm, op_label(kind, pe, Some(count)), dur);
        let (d, (s, s_off, s_stride)) = (dst.local(pe), src);
        if d_stride == 1 && s_stride == 1 {
            d.copy_from(d_off, s, s_off, count);
        } else {
            d.copy_strided_from(d_off, d_stride, s, s_off, s_stride, count);
        }
        let Some(chk) = &self.checker else { return };
        let agent = ctx.agent();
        for ((buf, off, stride), write) in [(src, false), ((d, d_off, d_stride), true)] {
            if stride <= 1 {
                chk.record(agent, buf, off, off + count, write, kind);
            } else {
                for c in (0..count).map(|k| off + k * stride) {
                    chk.record(agent, buf, c, c + 1, write, kind);
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
        let dur = self
            .transport
            .shmem_put(self.pe, pe, (len * 8) as u64, ctx.now());
        let (dst, src) = ((dst, dst_off, 1), (src, src_off, 1));
        self.copy_blocking(ctx, "putmem", dur, dst, src, len, pe);
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
        let delivery = self
            .transport
            .shmem_put(self.pe, pe, (len * 8) as u64, ctx.now());
        let payload = Payload::Copy { src, src_off, len };
        self.issue_nbi(ctx, "putmem_nbi", delivery, dst, dst_off, payload, None, pe);
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
        let signal = (sig, sig_op, sig_val);
        self.putmem_signal_inner(ctx, dst, dst_off, (src, src_off, len), signal, pe, false);
    }

    /// Shared body of the put-with-signal calls. A thread put (`block`
    /// false) consults the fault schedule's drop windows and returns
    /// `false` when the delivery was dropped; a block put never does.
    #[allow(clippy::too_many_arguments)]
    fn putmem_signal_inner(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        dst: &SymArray,
        dst_off: usize,
        (src, src_off, len): (&Buf, usize, usize),
        signal: (&SymSignal, SignalOp, u64),
        pe: usize,
        block: bool,
    ) -> bool {
        self.check_pe(pe);
        Self::assert_symmetric(dst, dst_off, len);
        if !block && self.faults.is_active() && self.faults.should_drop(self.pe, pe) {
            // Lost doorbell: the sender pays the issue latency but neither
            // the payload nor the signal ever lands.
            let issue = ctx.cost().shmem_signal();
            let label = format!("putmem_signal_nbi->pe{pe} {len}el (dropped)");
            ctx.busy(Category::Comm, label, issue);
            return false;
        }
        let bytes = (len * 8) as u64;
        let delivery =
            self.transport
                .put_signal_delivery(&self.faults, self.pe, pe, bytes, ctx.now(), block);
        let kind = if block {
            "putmem_signal_block"
        } else {
            "putmem_signal_nbi"
        };
        let payload = Payload::Copy { src, src_off, len };
        self.issue_nbi(ctx, kind, delivery, dst, dst_off, payload, Some(signal), pe);
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
        let (copy, signal) = ((src, src_off, len), (sig, sig_op, sig_val));
        let mut attempts = 1u32;
        let mut backoff = ctx.cost().shmem_signal() * 4;
        while !self.putmem_signal_inner(ctx, dst, dst_off, copy, signal, pe, false) {
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
        let signal = (sig, sig_op, sig_val);
        self.putmem_signal_inner(ctx, dst, dst_off, (src, src_off, len), signal, pe, true);
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
        let (dst, src) = ((dst, dst_off, 1), (src, src_off, 1));
        self.copy_blocking(ctx, "p_mapped", dur, dst, src, len, pe);
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
        let _ = self.wait_signal(ctx, sig, cmp, value, None, None);
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
        self.wait_signal(ctx, sig, cmp, value, Some(deadline), None)
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
        let _ = self.wait_signal(ctx, sig, cmp, value, None, Some(from_pe));
    }

    /// The one signal wait: block until `cmp value` holds (or `deadline`
    /// passes), charge the polling granularity unless the wait timed out,
    /// and record the wait as a span, naming the declared sender if any.
    fn wait_signal(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        sig: &SymSignal,
        cmp: Cmp,
        value: u64,
        deadline: Option<SimTime>,
        from_pe: Option<usize>,
    ) -> Result<(), WaitTimedOut> {
        let flag = sig.flag(self.pe);
        let poll = ctx.cost().shmem_poll();
        let agent = ctx.agent_mut();
        let start = agent.now();
        let r = match (deadline, from_pe) {
            (Some(deadline), _) => agent.wait_flag_until(flag, cmp, value, deadline),
            (None, Some(from)) => {
                agent.wait_flag_from(flag, cmp, value, format!("pe{from}"));
                Ok(())
            }
            (None, None) => {
                agent.wait_flag(flag, cmp, value);
                Ok(())
            }
        };
        if r.is_ok() {
            agent.advance(poll);
        }
        let end = agent.now();
        let label = match from_pe {
            Some(from) => format!("signal_wait {cmp:?} {value} from pe{from}"),
            None => format!("signal_wait {cmp:?} {value}"),
        };
        agent.record(Category::Sync, label, start, end);
        r
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
        let (dst, src) = ((dst, dst_off, dst_stride), (src, src_off, src_stride));
        self.copy_blocking(ctx, "iput", dur, dst, src, count, pe);
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
        let delivery = self.transport.shmem_p(self.pe, pe, ctx.now());
        let payload = Payload::Store(value);
        self.issue_nbi(ctx, "p", delivery, dst, dst_idx, payload, None, pe);
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
    use sim_des::{us, HbEventKind};

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

    /// What one op leaves behind on a checked 2-PE machine, times in ns.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// The kernels' comm and sync spans: label, category, start, duration.
        spans: Vec<(String, Category, u64, u64)>,
        /// PE 1's probed cell: its value just before `landed` and at it.
        probe: (f64, f64),
        /// Delivery times of every signal.
        signals: Vec<u64>,
        /// HB event kinds in stream order, and the recorded access count.
        hb: Vec<&'static str>,
        accesses: usize,
    }

    /// Run `op` with PE 0 issuing towards PE 1 (or PE 1 waiting on PE 0),
    /// PE 0 closing with `quiet`, while PE 1 samples `arr[idx]` just before
    /// `landed` and at it (after same-time work).
    fn observe(op: &'static str, landed: Option<(u64, usize)>) -> Observed {
        let m = Machine::new(2, CostModel::a100_hgx(), ExecMode::Full).with_checker();
        // One dropped attempt 0 -> 1: the reliable put retries past it, and
        // the block put, which never consults the drop schedule, ignores it.
        if matches!(op, "putmem_signal_reliable" | "putmem_signal_block") {
            m.set_fault_plan(sim_des::FaultPlan::new().with_drop(sim_des::DropFault {
                from: 0,
                to: 1,
                first_attempt: 1,
                count: 1,
            }));
        }
        let w = ShmemWorld::init(&m);
        let (arr, sig) = (w.malloc("a", 16), w.signal(0));
        let flags = [sig.flag(0), sig.flag(1)];
        let probe = Arc::new(sim_des::lock::Mutex::new((0.0, 0.0)));
        let probe2 = Arc::clone(&probe);
        run_on_all_pes(&m, move |pe, k| {
            let mut sh = ShmemCtx::new(&w, k);
            let src = k.machine().alloc(DevId(pe), "src", 16);
            src.with_mut(|d| {
                d.iter_mut()
                    .enumerate()
                    .for_each(|(i, v)| *v = i as f64 + 1.0)
            });
            let (set, ge) = (SignalOp::Set, Cmp::Ge);
            if pe == 0 {
                match op {
                    "putmem" => sh.putmem(k, &arr, 0, &src, 0, 16, 1),
                    "putmem_nbi" => sh.putmem_nbi(k, &arr, 0, &src, 0, 16, 1),
                    "putmem_signal_nbi" => {
                        sh.putmem_signal_nbi(k, &arr, 0, &src, 0, 16, &sig, set, 1, 1)
                    }
                    "putmem_signal_block" => {
                        sh.putmem_signal_block(k, &arr, 0, &src, 0, 16, &sig, set, 1, 1)
                    }
                    "putmem_signal_reliable" => {
                        let n = sh.putmem_signal_reliable(k, &arr, 0, &src, 0, 16, &sig, set, 1, 1);
                        assert_eq!(n, 2);
                    }
                    "put_mapped" => sh.put_mapped(k, &arr, 0, &src, 0, 16, 4, 1),
                    "iput" => sh.iput(k, &arr, 1, 4, &src, 0, 2, 4, 1),
                    "p" => sh.p(k, &arr, 3, 9.5, 1),
                    _ => sh.signal_op(k, &sig, SignalOp::Add, 1, 1),
                }
                sh.quiet(k);
                return;
            }
            let t = k.now();
            match op {
                "signal_wait_until" => sh.signal_wait_until(k, &sig, ge, 1),
                "signal_wait_until_deadline" => {
                    let r = sh.signal_wait_until_deadline(k, &sig, ge, 1, t + us(5.0));
                    assert!(r.is_ok());
                }
                "signal_wait_until_deadline timeout" => {
                    let r = sh.signal_wait_until_deadline(k, &sig, ge, 1, t + SimDur(100));
                    assert!(r.is_err());
                }
                "signal_wait_from" => sh.signal_wait_from(k, &sig, ge, 1, 0),
                _ => {}
            }
            if let Some((at, idx)) = landed {
                let a = k.agent_mut();
                a.advance(SimTime(at - 1).since(t));
                let before = arr.local(1).get(idx);
                a.advance(SimDur(1));
                a.yield_now();
                *probe2.lock() = (before, arr.local(1).get(idx));
            }
        });
        m.run().unwrap();
        let trace = m.trace();
        let spans = trace
            .spans()
            .iter()
            .filter(|s| matches!(s.category, Category::Comm | Category::Sync))
            .filter(|s| !trace.resolve(s.agent_name).starts_with("rank"))
            .map(|s| {
                let label = trace.resolve(s.label).to_string();
                (label, s.category, s.start.0, s.dur().as_nanos())
            })
            .collect();
        // The op's own HB events: async issues and absorbs, and every
        // event on the `sig` cells (the launch machinery has its own flags).
        let chk = m.checker().unwrap();
        let mut signals = Vec::new();
        let mut hb = Vec::new();
        for e in chk.events() {
            let kind = match e.kind {
                HbEventKind::AsyncIssue { .. } => "issue",
                HbEventKind::Absorb { .. } => "absorb",
                HbEventKind::SignalSend { flag } if flags.contains(&flag) => "send",
                HbEventKind::SignalDeliver { flag } if flags.contains(&flag) => {
                    signals.push(e.time.0);
                    "deliver"
                }
                HbEventKind::WaitSatisfied { flag } if flags.contains(&flag) => "wait",
                _ => continue,
            };
            hb.push(kind);
        }
        let report = chk.report();
        assert!(
            report.diagnostics.is_empty(),
            "{op}: {:?}",
            report.diagnostics
        );
        let probe = *probe.lock();
        Observed {
            spans,
            probe,
            signals,
            hb,
            accesses: report.accesses,
        }
    }

    /// One op's pinned observables: its comm and sync spans, the probed
    /// landing (time, cell, value), signal deliveries, HB kinds, accesses.
    struct Pin {
        op: &'static str,
        spans: &'static [(&'static str, Category, u64, u64)],
        landed: Option<(u64, usize, f64)>,
        signals: &'static [u64],
        hb: &'static [&'static str],
        accesses: usize,
    }

    /// Every RMA op and wait, pinned to the exact span, landing, signal and
    /// HB record it produces, so a refactor of the issue paths cannot move
    /// a single nanosecond or event unnoticed.
    #[test]
    fn op_pins_exact_spans_landings_and_hb() {
        use Category::{Comm, Sync};
        const NBI: &[&str] = &["issue", "absorb"];
        const PUT_SIGNAL: &[&str] = &["issue", "deliver", "absorb"];
        const WAITED: &[&str] = &["send", "deliver", "wait"];
        let table = [
            Pin {
                op: "putmem",
                spans: &[
                    ("putmem->pe1 16el", Comm, 10500, 2201),
                    ("quiet", Sync, 12701, 800),
                ],
                landed: Some((12701, 15, 16.0)),
                signals: &[],
                hb: &[],
                accesses: 2,
            },
            Pin {
                op: "putmem_nbi",
                spans: &[
                    ("putmem_nbi->pe1 16el", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 1701),
                ],
                landed: Some((12701, 15, 16.0)),
                signals: &[],
                hb: NBI,
                accesses: 2,
            },
            Pin {
                op: "putmem_signal_nbi",
                spans: &[
                    ("putmem_signal_nbi->pe1 16el", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 3001),
                ],
                landed: Some((14001, 15, 16.0)),
                signals: &[14001],
                hb: PUT_SIGNAL,
                accesses: 2,
            },
            Pin {
                op: "putmem_signal_block",
                spans: &[
                    ("putmem_signal_block->pe1 16el", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 3001),
                ],
                landed: Some((14001, 15, 16.0)),
                signals: &[14001],
                hb: PUT_SIGNAL,
                accesses: 2,
            },
            Pin {
                op: "putmem_signal_reliable",
                spans: &[
                    ("putmem_signal_nbi->pe1 16el (dropped)", Comm, 10500, 1300),
                    ("put_retry_backoff->pe1 attempt 1", Comm, 11800, 5200),
                    ("putmem_signal_nbi->pe1 16el", Comm, 17000, 1300),
                    ("quiet", Sync, 18300, 3001),
                ],
                landed: Some((20501, 15, 16.0)),
                signals: &[20501],
                hb: PUT_SIGNAL,
                accesses: 2,
            },
            Pin {
                op: "put_mapped",
                spans: &[
                    ("p_mapped->pe1 16el", Comm, 10500, 4801),
                    ("quiet", Sync, 15301, 800),
                ],
                landed: Some((15301, 15, 16.0)),
                signals: &[],
                hb: &[],
                accesses: 2,
            },
            Pin {
                op: "iput",
                spans: &[
                    ("iput->pe1 4el", Comm, 10500, 2245),
                    ("quiet", Sync, 12745, 800),
                ],
                landed: Some((12745, 13, 7.0)),
                signals: &[],
                hb: &[],
                accesses: 8,
            },
            Pin {
                op: "p",
                spans: &[("p->pe1", Comm, 10500, 1300), ("quiet", Sync, 11800, 800)],
                landed: Some((11800, 3, 9.5)),
                signals: &[],
                hb: NBI,
                accesses: 1,
            },
            Pin {
                op: "signal_op",
                spans: &[
                    ("signal_op->pe1", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 800),
                ],
                landed: None,
                signals: &[11800],
                hb: &["send", "deliver"],
                accesses: 0,
            },
            Pin {
                op: "signal_wait_until",
                spans: &[
                    ("signal_op->pe1", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 800),
                    ("signal_wait Ge 1", Sync, 10500, 2500),
                ],
                landed: None,
                signals: &[11800],
                hb: WAITED,
                accesses: 0,
            },
            Pin {
                op: "signal_wait_until_deadline",
                spans: &[
                    ("signal_op->pe1", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 800),
                    ("signal_wait Ge 1", Sync, 10500, 2500),
                ],
                landed: None,
                signals: &[11800],
                hb: WAITED,
                accesses: 0,
            },
            Pin {
                // A timed-out wait resumes at the deadline: no poll charge.
                op: "signal_wait_until_deadline timeout",
                spans: &[
                    ("signal_wait Ge 1", Sync, 10500, 100),
                    ("signal_op->pe1", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 800),
                ],
                landed: None,
                signals: &[11800],
                hb: &["send", "deliver"],
                accesses: 0,
            },
            Pin {
                op: "signal_wait_from",
                spans: &[
                    ("signal_op->pe1", Comm, 10500, 1300),
                    ("quiet", Sync, 11800, 800),
                    ("signal_wait Ge 1 from pe0", Sync, 10500, 2500),
                ],
                landed: None,
                signals: &[11800],
                hb: WAITED,
                accesses: 0,
            },
        ];
        for pin in &table {
            let o = observe(pin.op, pin.landed.map(|(at, idx, _)| (at, idx)));
            let spans: Vec<_> = pin
                .spans
                .iter()
                .map(|&(l, c, s, d)| (l.to_string(), c, s, d))
                .collect();
            assert_eq!(o.spans, spans, "{}: spans", pin.op);
            if let Some((_, _, v)) = pin.landed {
                assert_eq!(o.probe, (0.0, v), "{}: payload landing", pin.op);
            }
            assert_eq!(o.signals, pin.signals, "{}: signal landings", pin.op);
            assert_eq!(o.hb, pin.hb, "{}: HB events", pin.op);
            assert_eq!(o.accesses, pin.accesses, "{}: accesses", pin.op);
        }
    }
}
