//! The static protocol verifier: compile-time CPU-Free conformance checks
//! over an [`Sdfg`], sharing diagnostic vocabulary with the dynamic
//! happens-before checker (`sim_des::DiagKind`).
//!
//! Where the dynamic checker (PR 3) reports only the races and lost signals
//! the *chosen* schedule happens to expose, [`verify_sdfg`] reasons over the
//! symbolic communication graph of [`crate::analysis::CommGraph`] and proves
//! conformance for **all** schedules:
//!
//! * **Signal ↔ wait balance** — every `signal_wait` must have a producer
//!   targeting its PE whose counter value reaches the waited threshold in
//!   the same or an earlier iteration phase ([`DiagKind::UnmatchedSignalWait`],
//!   with [`DiagKind::LostSignal`] when no schedule can satisfy the wait).
//! * **Nbi source reuse** — a write to the source cells of a non-blocking
//!   put is only safe after a `quiet` or an acknowledging signal round trip
//!   proves remote completion ([`DiagKind::NbiSourceReuse`]). Tracked by a
//!   token-propagation fixpoint mirroring the dynamic checker's vector
//!   clocks: each nbi put mints a token, waits absorb the intersection of
//!   their satisfying producers' stamps, and `quiet` absorbs the issuing
//!   PE's own outstanding tokens. A stamp is a fixed-width bitset with one
//!   bit per token of the instantiation. The fixpoint runs until no stamp
//!   changes: stamps only grow and are bounded by the token count, so it
//!   terminates.
//! * **Halo coverage** — incoming puts must cover the remote-fed cells each
//!   consumer tasklet reads; a put whose aligned run only partially covers
//!   a contiguous halo region is flagged ([`DiagKind::HaloCoverageGap`]).
//! * **Storage classes** — puts must target `GpuNvshmem` (symmetric-heap)
//!   arrays ([`DiagKind::StorageClassViolation`]).
//! * **Wait cycles** — a cross-PE cycle of sole-producer waits deadlocks on
//!   every schedule ([`DiagKind::WaitCycle`]).
//! * **Iteration throttling** — rank-adjacent partners must mutually bound
//!   each other's iteration counters ([`DiagKind::IterationDivergence`]).

use crate::analysis::{CommGraph, Ev, IntervalSet};
use crate::expr::Bindings;
use crate::ir::{LibNode, Op, Sdfg, Storage};
use sim_des::DiagKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One structured static diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticDiag {
    /// Shared vocabulary with the dynamic checker.
    pub kind: DiagKind,
    /// Primary PE (waiter / writer / consumer / issuer), when rank-specific.
    pub pe: Option<usize>,
    /// The other endpoint (producer / target), when known.
    pub peer: Option<usize>,
    /// The array or flag the diagnostic is about (e.g. `A` or `flag #3`).
    pub subject: String,
    /// Human-readable description naming both endpoints.
    pub message: String,
}

impl fmt::Display for StaticDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// The result of statically verifying one SDFG instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Name of the verified program.
    pub program: String,
    /// Number of rank instantiations checked.
    pub n_pes: usize,
    /// All diagnostics, in check order.
    pub diags: Vec<StaticDiag>,
}

impl VerifyReport {
    /// `true` when no diagnostic was produced.
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// The diagnostics of one kind.
    pub fn of_kind(&self, kind: DiagKind) -> Vec<&StaticDiag> {
        self.diags.iter().filter(|d| d.kind == kind).collect()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "static verification of `{}` over {} PEs: {}",
            self.program,
            self.n_pes,
            if self.clean() {
                "clean".to_string()
            } else {
                format!("{} diagnostic(s)", self.diags.len())
            }
        )?;
        for d in &self.diags {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// A failed verification, embeddable in error chains ([`std::error::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The full report that caused the failure.
    pub report: VerifyReport,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static protocol verification failed for `{}` ({} diagnostic(s)); first: {}",
            self.report.program,
            self.report.diags.len(),
            self.report
                .diags
                .first()
                .map(|d| d.to_string())
                .unwrap_or_default()
        )
    }
}

impl std::error::Error for VerifyError {}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Statically verify `sdfg` instantiated over `n_pes` ranks under the given
/// user symbol bindings. Runs every check family and returns the combined
/// report; [`VerifyReport::clean`] gates lowering.
pub fn verify_sdfg(sdfg: &Sdfg, n_pes: usize, user: &Bindings) -> VerifyReport {
    let graph = CommGraph::build(sdfg, n_pes, user);
    let mut v = Verifier::new(sdfg, &graph);
    v.check_storage_classes();
    v.check_signal_balance();
    v.check_mpi_pairing();
    v.check_wait_cycles();
    v.check_nbi_source_reuse();
    v.check_halo_coverage();
    v.check_iteration_throttle();
    VerifyReport {
        program: sdfg.name.clone(),
        n_pes,
        diags: v.diags,
    }
}

/// Rank-independent structural conformance, used as the post-transform gate
/// where no concrete PE count is available: every waited signal must have a
/// producing node, every produced signal a wait, and (when
/// `require_symmetric`) every put must target a `GpuNvshmem` array.
pub fn verify_structure(sdfg: &Sdfg, require_symmetric: bool) -> VerifyReport {
    let mut waited: BTreeSet<u32> = BTreeSet::new();
    let mut produced: BTreeSet<u32> = BTreeSet::new();
    let mut put_targets: Vec<(u32, String)> = Vec::new();
    sdfg.visit_states(&mut |s| {
        for gop in &s.ops {
            if let Op::Lib(lib) = &gop.op {
                match lib {
                    LibNode::PutmemSignal { dst, sig, .. }
                    | LibNode::PutmemSignalBlock { dst, sig, .. } => {
                        produced.insert(*sig);
                        put_targets.push((*sig, dst.array.clone()));
                    }
                    LibNode::SignalOp { sig, .. } => {
                        produced.insert(*sig);
                    }
                    LibNode::SignalWait { sig, .. } => {
                        waited.insert(*sig);
                    }
                    LibNode::Iput { dst, .. }
                    | LibNode::PutSingle { dst, .. }
                    | LibNode::PutMapped { dst, .. } => {
                        put_targets.push((u32::MAX, dst.array.clone()));
                    }
                    _ => {}
                }
            }
        }
    });
    let mut diags = Vec::new();
    for sig in waited.difference(&produced) {
        diags.push(StaticDiag {
            kind: DiagKind::UnmatchedSignalWait,
            pe: None,
            peer: None,
            subject: format!("flag #{sig}"),
            message: format!(
                "signal_wait on flag #{sig} has no producing put-with-signal or signal_op \
                 anywhere in `{}`",
                sdfg.name
            ),
        });
    }
    for sig in produced.difference(&waited) {
        diags.push(StaticDiag {
            kind: DiagKind::UnmatchedSignalWait,
            pe: None,
            peer: None,
            subject: format!("flag #{sig}"),
            message: format!(
                "flag #{sig} is set by a put or signal_op but no PE ever waits on it in `{}`",
                sdfg.name
            ),
        });
    }
    if require_symmetric {
        let mut seen = BTreeSet::new();
        for (_, array) in &put_targets {
            if sdfg.array(array).storage != Storage::GpuNvshmem && seen.insert(array.clone()) {
                diags.push(StaticDiag {
                    kind: DiagKind::StorageClassViolation,
                    pe: None,
                    peer: None,
                    subject: array.clone(),
                    message: format!(
                        "put targets `{array}` whose storage class is {:?}, not the GpuNvshmem \
                         symmetric heap",
                        sdfg.array(array).storage
                    ),
                });
            }
        }
    }
    VerifyReport {
        program: sdfg.name.clone(),
        n_pes: 0,
        diags,
    }
}

// ---------------------------------------------------------------------------
// Internal: flattened producer / wait views over the comm graph
// ---------------------------------------------------------------------------

/// A signal producer: a put-with-signal or a bare `signal_op`.
struct Prod {
    pe: usize,
    idx: usize,
    phase: usize,
    target: usize,
    sig: u32,
    val: i64,
    /// Token of the carrying nbi put, if this producer is a put.
    token: Option<usize>,
}

struct WaitInfo {
    pe: usize,
    idx: usize,
    phase: usize,
    sig: u32,
    val: i64,
}

/// What one trace event is to the signal analyses, by index.
#[derive(Clone, Copy, Default)]
struct EvIds {
    /// Index into `prods` of a put-with-signal or `signal_op`.
    prod: Option<usize>,
    /// Index into `waits` of a `signal_wait`.
    wait: Option<usize>,
    /// Token of an nbi put.
    token: Option<usize>,
}

/// An outstanding (un-quiesced) nbi put issued by the PE being walked.
struct Outstanding<'g> {
    token: usize,
    dst_pe: usize,
    src_array: &'g str,
    src_cells: &'g IntervalSet,
}

/// A write that may overwrite an un-acknowledged put source: writer PE,
/// put target PE, array, write label and the write's first interval.
type NbiReuse<'g> = (usize, usize, &'g str, &'g str, (usize, usize));

/// `n` token sets of one fixed width, one bit per nbi token, stored back to
/// back.
struct TokenSets {
    words: usize,
    bits: Vec<u64>,
}

impl TokenSets {
    fn new(n: usize, n_tokens: usize) -> TokenSets {
        let words = n_tokens.div_ceil(64);
        TokenSets {
            words,
            bits: vec![0; n * words],
        }
    }

    fn get(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn get_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }
}

fn insert_token(set: &mut [u64], t: usize) {
    set[t / 64] |= 1 << (t % 64);
}

fn has_token(set: &[u64], t: usize) -> bool {
    set[t / 64] & (1 << (t % 64)) != 0
}

struct Verifier<'a> {
    sdfg: &'a Sdfg,
    g: &'a CommGraph<'a>,
    prods: Vec<Prod>,
    waits: Vec<WaitInfo>,
    /// Per wait (index into `waits`): indices into `prods` that satisfy it,
    /// ascending.
    sat: Vec<Vec<usize>>,
    /// `(target pe, flag)` → indices into `prods` signalling that flag on
    /// that PE, ascending.
    by_flag: BTreeMap<(usize, u32), Vec<usize>>,
    /// Per PE, per trace event: its producer, wait and token ids.
    ids: Vec<Vec<EvIds>>,
    /// Number of nbi puts (tokens) over all traces.
    n_tokens: usize,
    diags: Vec<StaticDiag>,
    dedup: BTreeSet<String>,
}

impl<'a> Verifier<'a> {
    fn new(sdfg: &'a Sdfg, g: &'a CommGraph<'a>) -> Verifier<'a> {
        let mut prods = Vec::new();
        let mut waits = Vec::new();
        let mut ids = Vec::with_capacity(g.traces.len());
        let mut next_token = 0usize;
        for (pe, trace) in g.traces.iter().enumerate() {
            let mut pe_ids = vec![EvIds::default(); trace.evs.len()];
            for (idx, tev) in trace.evs.iter().enumerate() {
                let id = &mut pe_ids[idx];
                match &tev.ev {
                    Ev::Put {
                        dst_pe, sig, nbi, ..
                    } => {
                        if *nbi {
                            id.token = Some(next_token);
                            next_token += 1;
                        }
                        if let Some((s, v)) = sig {
                            id.prod = Some(prods.len());
                            prods.push(Prod {
                                pe,
                                idx,
                                phase: tev.phase,
                                target: *dst_pe,
                                sig: *s,
                                val: *v,
                                token: id.token,
                            });
                        }
                    }
                    Ev::Signal { dst_pe, sig, val } => {
                        id.prod = Some(prods.len());
                        prods.push(Prod {
                            pe,
                            idx,
                            phase: tev.phase,
                            target: *dst_pe,
                            sig: *sig,
                            val: *val,
                            token: None,
                        });
                    }
                    Ev::Wait { sig, val } => {
                        id.wait = Some(waits.len());
                        waits.push(WaitInfo {
                            pe,
                            idx,
                            phase: tev.phase,
                            sig: *sig,
                            val: *val,
                        });
                    }
                    _ => {}
                }
            }
            ids.push(pe_ids);
        }
        let mut by_flag: BTreeMap<(usize, u32), Vec<usize>> = BTreeMap::new();
        for (i, p) in prods.iter().enumerate() {
            by_flag.entry((p.target, p.sig)).or_default().push(i);
        }
        let sat = waits
            .iter()
            .map(|w| {
                by_flag
                    .get(&(w.pe, w.sig))
                    .map(|ps| {
                        ps.iter()
                            .copied()
                            .filter(|&p| prods[p].phase <= w.phase && prods[p].val >= w.val)
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        Verifier {
            sdfg,
            g,
            prods,
            waits,
            sat,
            by_flag,
            ids,
            n_tokens: next_token,
            diags: Vec::new(),
            dedup: BTreeSet::new(),
        }
    }

    fn diag(
        &mut self,
        key: String,
        kind: DiagKind,
        pe: Option<usize>,
        peer: Option<usize>,
        subject: String,
        message: String,
    ) {
        if self.dedup.insert(key) {
            self.diags.push(StaticDiag {
                kind,
                pe,
                peer,
                subject,
                message,
            });
        }
    }

    // -- check 1: storage classes ------------------------------------------

    fn check_storage_classes(&mut self) {
        let mut found = Vec::new();
        for (pe, trace) in self.g.traces.iter().enumerate() {
            for tev in &trace.evs {
                if let Ev::Put {
                    dst_pe,
                    array,
                    label,
                    ..
                } = &tev.ev
                {
                    let storage = self.sdfg.array(array).storage;
                    if storage != Storage::GpuNvshmem {
                        found.push((pe, *dst_pe, *array, *label, storage));
                    }
                }
            }
        }
        for (pe, dst_pe, array, label, storage) in found {
            self.diag(
                format!("storage:{pe}:{dst_pe}:{array}"),
                DiagKind::StorageClassViolation,
                Some(pe),
                Some(dst_pe),
                array.to_string(),
                format!(
                    "{label} from pe{pe} targets `{array}` on pe{dst_pe}, whose storage class \
                     is {storage:?} — the remote side has no symmetric allocation"
                ),
            );
        }
    }

    // -- check 2 + 3: signal ↔ wait balance --------------------------------

    fn check_signal_balance(&mut self) {
        // Waits without a satisfying producer.
        for wi in 0..self.waits.len() {
            if !self.sat[wi].is_empty() {
                continue;
            }
            let WaitInfo {
                pe,
                phase,
                sig,
                val,
                ..
            } = self.waits[wi];
            let all_to: Vec<&Prod> = self
                .by_flag
                .get(&(pe, sig))
                .map(|ps| ps.iter().map(|&p| &self.prods[p]).collect())
                .unwrap_or_default();
            if all_to.is_empty() {
                let subject = format!("flag #{sig}");
                self.diag(
                    format!("wait-none:{pe}:{sig}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(pe),
                    None,
                    subject.clone(),
                    format!(
                        "signal_wait on flag #{sig} (>= {val}) at pe{pe} has no producing \
                         put-with-signal or signal_op targeting pe{pe}"
                    ),
                );
                self.diag(
                    format!("wait-none-lost:{pe}:{sig}"),
                    DiagKind::LostSignal,
                    Some(pe),
                    None,
                    subject,
                    format!(
                        "unsatisfied signal_wait: pe{pe} blocks forever on flag #{sig} >= {val} \
                         — no peer ever sets that flag"
                    ),
                );
                continue;
            }
            let max_val = all_to.iter().map(|p| p.val).max().unwrap();
            let peer = all_to
                .iter()
                .max_by_key(|p| p.val)
                .map(|p| p.pe)
                .unwrap_or(pe);
            if max_val < val {
                let subject = format!("flag #{sig}");
                self.diag(
                    format!("wait-low:{pe}:{sig}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(pe),
                    Some(peer),
                    subject.clone(),
                    format!(
                        "signal_wait on flag #{sig} >= {val} at pe{pe} can never be satisfied: \
                         producers (e.g. from pe{peer}) only ever reach value {max_val}"
                    ),
                );
                self.diag(
                    format!("wait-low-lost:{pe}:{sig}"),
                    DiagKind::LostSignal,
                    Some(pe),
                    Some(peer),
                    subject,
                    format!(
                        "unsatisfied signal_wait: pe{pe} blocks forever on flag #{sig} >= {val} \
                         — expected matching put-with-signal from pe{peer} never reaches it"
                    ),
                );
            } else {
                self.diag(
                    format!("wait-skew:{pe}:{sig}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(pe),
                    Some(peer),
                    format!("flag #{sig}"),
                    format!(
                        "signal_wait on flag #{sig} >= {val} at pe{pe} in iteration phase \
                         {phase} is only satisfied by producers from pe{peer} in later \
                         iterations — signal counter skew between put and wait"
                    ),
                );
            }
        }
        // Producers whose target never waits on the flag.
        let waited: BTreeSet<(usize, u32)> = self.waits.iter().map(|w| (w.pe, w.sig)).collect();
        let orphans: Vec<(usize, usize, u32)> = self
            .prods
            .iter()
            .filter(|p| !waited.contains(&(p.target, p.sig)))
            .map(|p| (p.pe, p.target, p.sig))
            .collect();
        for (from, to, sig) in orphans {
            self.diag(
                format!("orphan:{from}:{to}:{sig}"),
                DiagKind::UnmatchedSignalWait,
                Some(to),
                Some(from),
                format!("flag #{sig}"),
                format!(
                    "put-with-signal from pe{from} sets flag #{sig} on pe{to}, but pe{to} \
                     never waits on that flag"
                ),
            );
        }
    }

    // -- check 4: MPI two-sided pairing ------------------------------------

    fn check_mpi_pairing(&mut self) {
        let mut sends: Vec<(usize, usize, u32, usize, usize)> = Vec::new(); // from,to,tag,count,phase
        let mut recvs: Vec<(usize, usize, u32, usize, usize)> = Vec::new(); // at,from,tag,count,phase
        for (pe, trace) in self.g.traces.iter().enumerate() {
            for tev in &trace.evs {
                match &tev.ev {
                    Ev::Send { dst_pe, tag, count } => {
                        sends.push((pe, *dst_pe, *tag, *count, tev.phase));
                    }
                    Ev::Recv { src_pe, tag, count } => {
                        recvs.push((pe, *src_pe, *tag, *count, tev.phase));
                    }
                    _ => {}
                }
            }
        }
        for &(at, from, tag, rcount, phase) in &recvs {
            let same_phase: Vec<_> = sends
                .iter()
                .filter(|&&(f, t, g, _, p)| f == from && t == at && g == tag && p == phase)
                .collect();
            if let Some(&&(_, _, _, scount, _)) = same_phase.first() {
                if scount != rcount {
                    self.diag(
                        format!("mpi-count:{from}:{at}:{tag}"),
                        DiagKind::HaloCoverageGap,
                        Some(at),
                        Some(from),
                        format!("tag {tag}"),
                        format!(
                            "message size mismatch on tag {tag}: Isend from pe{from} carries \
                             {scount} cells but the Irecv at pe{at} expects {rcount}"
                        ),
                    );
                }
            } else if sends
                .iter()
                .any(|&(f, t, g, _, _)| f == from && t == at && g == tag)
            {
                self.diag(
                    format!("mpi-skew:{from}:{at}:{tag}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(at),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "Irecv at pe{at} on tag {tag} only matches Isends from pe{from} in \
                         other iteration phases — message skew"
                    ),
                );
            } else {
                self.diag(
                    format!("mpi-none:{from}:{at}:{tag}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(at),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "Irecv at pe{at} expects a message from pe{from} on tag {tag}, but \
                         pe{from} never sends one"
                    ),
                );
                self.diag(
                    format!("mpi-none-lost:{from}:{at}:{tag}"),
                    DiagKind::LostSignal,
                    Some(at),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "unsatisfied receive: pe{at} blocks forever waiting for tag {tag} from \
                         pe{from}"
                    ),
                );
            }
        }
        for &(from, to, tag, _, _) in &sends {
            if !recvs
                .iter()
                .any(|&(at, f, g, _, _)| at == to && f == from && g == tag)
            {
                self.diag(
                    format!("mpi-orphan:{from}:{to}:{tag}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(to),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "Isend from pe{from} to pe{to} on tag {tag} has no matching Irecv at \
                         pe{to}"
                    ),
                );
            }
        }
    }

    // -- check 5: cross-PE wait cycles -------------------------------------

    fn check_wait_cycles(&mut self) {
        let n_phases = self.g.loop_value.len();
        for phase in 0..n_phases {
            // Nodes: waits in this phase whose satisfying producers are all
            // in this phase (cross-phase satisfaction breaks any cycle).
            let nodes: Vec<usize> = (0..self.waits.len())
                .filter(|&wi| {
                    let w = &self.waits[wi];
                    if w.phase != phase {
                        return false;
                    }
                    let s = &self.sat[wi];
                    !s.is_empty() && s.iter().all(|&p| self.prods[p].phase == phase)
                })
                .collect();
            if nodes.is_empty() {
                continue;
            }
            // Edges: W depends on every wait that sits *before* W's sole
            // producer in the producer PE's trace. `waits` is sorted by
            // (pe, phase, idx), so those waits are one contiguous run.
            let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &wi in &nodes {
                let s = &self.sat[wi];
                if s.len() != 1 {
                    continue;
                }
                let p = &self.prods[s[0]];
                let before = |idx: usize| {
                    self.waits
                        .partition_point(|o| (o.pe, o.phase, o.idx) < (p.pe, phase, idx))
                };
                edges.insert(wi, (before(0)..before(p.idx)).collect());
            }
            if let Some(cycle) = find_cycle(&edges) {
                let pes: BTreeSet<usize> = cycle.iter().map(|&wi| self.waits[wi].pe).collect();
                let pe_list = pes
                    .iter()
                    .map(|p| format!("pe{p}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let first = cycle[0];
                let (first_pe, first_sig) = (self.waits[first].pe, self.waits[first].sig);
                self.diag(
                    format!("cycle:{phase}:{pes:?}"),
                    DiagKind::WaitCycle,
                    Some(first_pe),
                    pes.iter().find(|&&p| p != first_pe).copied(),
                    format!("flag #{first_sig}"),
                    format!(
                        "cyclic signal_wait dependency across {pe_list} in iteration phase \
                         {phase}: every wait's sole producer sits behind the next wait — \
                         guaranteed deadlock on all schedules"
                    ),
                );
                for &wi in &cycle {
                    let (wpe, wsig, wval) = {
                        let w = &self.waits[wi];
                        (w.pe, w.sig, w.val)
                    };
                    self.diag(
                        format!("cycle-lost:{wpe}:{wsig}"),
                        DiagKind::LostSignal,
                        Some(wpe),
                        None,
                        format!("flag #{wsig}"),
                        format!(
                            "unsatisfied signal_wait: pe{wpe} blocks on flag #{wsig} >= {wval} \
                             inside a cross-PE wait cycle"
                        ),
                    );
                }
            }
        }
    }

    // -- check 6: nbi source reuse (token-propagation fixpoint) ------------

    fn check_nbi_source_reuse(&mut self) {
        let mut stamps = TokenSets::new(self.prods.len(), self.n_tokens);
        let mut absorbed = vec![0u64; stamps.words];
        let mut acc = vec![0u64; stamps.words];
        // Tokens of the walked PE's un-quiesced nbi puts.
        let mut outstanding: Vec<usize> = Vec::new();
        // Stamps only grow and are bounded by the token count, so the
        // fixpoint converges.
        loop {
            let mut changed = false;
            for (pe, trace) in self.g.traces.iter().enumerate() {
                absorbed.fill(0);
                outstanding.clear();
                for (tev, ids) in trace.evs.iter().zip(&self.ids[pe]) {
                    match &tev.ev {
                        Ev::Put { .. } | Ev::Signal { .. } => {
                            if let Some(pid) = ids.prod {
                                let stamp = stamps.get_mut(pid);
                                if stamp != absorbed {
                                    stamp.copy_from_slice(&absorbed);
                                    changed = true;
                                }
                            }
                            outstanding.extend(ids.token);
                        }
                        Ev::Quiet => {
                            for t in outstanding.drain(..) {
                                insert_token(&mut absorbed, t);
                            }
                        }
                        Ev::Wait { .. } => {
                            self.absorb_at_wait(ids, &stamps, &mut acc, &mut absorbed);
                        }
                        _ => {}
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Final pass: report writes overlapping un-acknowledged put sources.
        let g = self.g;
        let mut found = Vec::new();
        for (pe, trace) in g.traces.iter().enumerate() {
            absorbed.fill(0);
            let mut outstanding: Vec<Outstanding> = Vec::new();
            for (tev, ids) in trace.evs.iter().zip(&self.ids[pe]) {
                match &tev.ev {
                    Ev::Put {
                        dst_pe,
                        src_array,
                        src_cells,
                        nbi: true,
                        ..
                    } => {
                        outstanding.push(Outstanding {
                            token: ids.token.expect("every nbi put has a token"),
                            dst_pe: *dst_pe,
                            src_array,
                            src_cells,
                        });
                    }
                    Ev::Quiet => {
                        for o in outstanding.drain(..) {
                            insert_token(&mut absorbed, o.token);
                        }
                    }
                    Ev::Wait { .. } => {
                        self.absorb_at_wait(ids, &stamps, &mut acc, &mut absorbed);
                    }
                    Ev::Write {
                        array,
                        cells,
                        label,
                    } => {
                        for o in &outstanding {
                            if o.src_array == *array
                                && !has_token(&absorbed, o.token)
                                && cells.overlaps(o.src_cells)
                            {
                                found.push((
                                    pe,
                                    o.dst_pe,
                                    *array,
                                    &**label,
                                    cells.intervals().first().copied().unwrap_or((0, 0)),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        self.report_nbi_reuse(found);
    }

    fn report_nbi_reuse(&mut self, found: Vec<NbiReuse<'_>>) {
        for (pe, dst_pe, array, label, (lo, hi)) in found {
            self.diag(
                format!("nbi:{pe}:{dst_pe}:{array}"),
                DiagKind::NbiSourceReuse,
                Some(pe),
                Some(dst_pe),
                array.to_string(),
                format!(
                    "`{label}` at pe{pe} overwrites cells [{lo}..{hi}) of `{array}` while a \
                     non-blocking put to pe{dst_pe} may still be reading them — no quiet or \
                     acknowledging signal round trip orders the reuse"
                ),
            );
        }
    }

    /// Absorb the intersection of the satisfying producers' stamps (plus
    /// their carrying tokens) at a wait, mirroring the dynamic checker's
    /// clock-join on `signal_wait` completion. `acc` is scratch space of the
    /// stamps' width.
    fn absorb_at_wait(
        &self,
        ids: &EvIds,
        stamps: &TokenSets,
        acc: &mut [u64],
        absorbed: &mut [u64],
    ) {
        let sat = &self.sat[ids.wait.expect("every wait has a wait id")];
        let Some((&first, rest)) = sat.split_first() else {
            return;
        };
        acc.copy_from_slice(stamps.get(first));
        if let Some(t) = self.prods[first].token {
            insert_token(acc, t);
        }
        for &pid in rest {
            // acc ∩= stamp ∪ {token}
            let kept = self.prods[pid].token.filter(|&t| has_token(acc, t));
            for (a, s) in acc.iter_mut().zip(stamps.get(pid)) {
                *a &= s;
            }
            if let Some(t) = kept {
                insert_token(acc, t);
            }
        }
        for (a, s) in absorbed.iter_mut().zip(acc.iter()) {
            *a |= s;
        }
    }

    // -- check 7: halo coverage --------------------------------------------

    fn check_halo_coverage(&mut self) {
        let g = self.g;
        // Per (consumer pe, array): every read and every local write.
        let mut reads: BTreeMap<(usize, &str), Vec<(usize, usize)>> = BTreeMap::new();
        let mut writes: BTreeMap<(usize, &str), Vec<(usize, usize)>> = BTreeMap::new();
        // Incoming puts per (dst pe, array), deduped across phases.
        let mut puts: BTreeMap<(usize, &str), BTreeSet<PutWindow>> = BTreeMap::new();
        for (pe, trace) in g.traces.iter().enumerate() {
            for tev in &trace.evs {
                match &tev.ev {
                    Ev::Read { array, cells, .. } => reads
                        .entry((pe, array))
                        .or_default()
                        .extend_from_slice(cells.intervals()),
                    Ev::Write { array, cells, .. } => writes
                        .entry((pe, array))
                        .or_default()
                        .extend_from_slice(cells.intervals()),
                    Ev::Put {
                        dst_pe, array, dst, ..
                    } => {
                        puts.entry((*dst_pe, array)).or_default().insert(PutWindow {
                            src: pe,
                            offset: dst.offset,
                            count: dst.count,
                            stride: dst.stride.max(1),
                        });
                    }
                    _ => {}
                }
            }
        }
        let mut found = Vec::new();
        for (key, rd) in reads {
            let rd = IntervalSet::from_intervals(rd);
            let halo = match writes.remove(&key) {
                Some(w) => rd.minus(&IntervalSet::from_intervals(w)),
                None => rd,
            };
            if halo.is_empty() {
                continue;
            }
            let Some(incoming) = puts.get(&key) else {
                // No puts feed this array: all halo cells are domain
                // boundary (initial condition), nothing to check.
                continue;
            };
            for put in incoming {
                for (first_cell, n_miss) in put.gaps(&halo, incoming) {
                    found.push((key.0, put.src, key.1, first_cell, n_miss));
                }
            }
        }
        for (pe, src, array, first_cell, n_miss) in found {
            self.diag(
                format!("halo:{pe}:{src}:{array}"),
                DiagKind::HaloCoverageGap,
                Some(pe),
                Some(src),
                array.to_string(),
                format!(
                    "halo coverage gap on `{array}`: pe{pe} reads {n_miss} remote-fed cell(s) \
                     (first: index {first_cell}) that the put from pe{src} does not cover — \
                     they would hold stale data on every schedule"
                ),
            );
        }
    }

    // -- check 8: iteration throttling -------------------------------------

    fn check_iteration_throttle(&mut self) {
        // A loop with fewer than two iterations cannot diverge, and without
        // a loop there is no iteration counter at all.
        let distinct: BTreeSet<i64> = self.g.loop_value.iter().flatten().copied().collect();
        if distinct.len() < 2 {
            return;
        }
        let n = self.g.n_pes();
        for p in 0..n.saturating_sub(1) {
            let q = p + 1;
            let coupled = {
                let partners = self.g.partners(p);
                partners.contains(&q)
            };
            if !coupled {
                // The dynamic monitor skips non-communicating rank neighbors
                // for the same reason (see `CommGraph::iteration_eligible`).
                continue;
            }
            for (a, b) in [(p, q), (q, p)] {
                let mut leads: Vec<i64> = Vec::new();
                for (w, sat) in self.waits.iter().zip(&self.sat) {
                    if w.pe != a {
                        continue;
                    }
                    let Some(wv) = self.g.loop_value[w.phase] else {
                        continue;
                    };
                    if sat.is_empty() || !sat.iter().all(|&pi| self.prods[pi].pe == b) {
                        continue;
                    }
                    let earliest = sat
                        .iter()
                        .filter_map(|&pi| self.g.loop_value[self.prods[pi].phase])
                        .min();
                    if let Some(pv) = earliest {
                        leads.push(wv - pv);
                    }
                }
                // Two-sided MPI throttles both ways: a receive blocks until
                // the same-iteration send arrives (lead 0), and the
                // rendezvous ack stalls the sender one message behind the
                // receiver (lead 1).
                for tev in &self.g.traces[a].evs {
                    if self.g.loop_value[tev.phase].is_none() {
                        continue;
                    }
                    match &tev.ev {
                        Ev::Recv { src_pe, .. } if *src_pe == b => leads.push(0),
                        Ev::Send { dst_pe, .. } if *dst_pe == b => leads.push(1),
                        _ => {}
                    }
                }
                if leads.is_empty() {
                    self.diag(
                        format!("iter:{p}:{q}"),
                        DiagKind::IterationDivergence,
                        Some(a),
                        Some(b),
                        format!("pe{a}/pe{b}"),
                        format!(
                            "iteration counters can diverge without bound: pe{a} exchanges \
                             data with pe{b} but never waits on pe{b}'s per-iteration signal \
                             — nothing throttles pe{a}'s progress"
                        ),
                    );
                    break;
                }
                let min_lead = *leads.iter().min().unwrap();
                if min_lead >= 2 {
                    self.diag(
                        format!("iter:{p}:{q}"),
                        DiagKind::IterationDivergence,
                        Some(a),
                        Some(b),
                        format!("pe{a}/pe{b}"),
                        format!(
                            "iteration counters can diverge by {min_lead}: the tightest wait \
                             at pe{a} only requires pe{b} to be {min_lead} iterations behind"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// Where one incoming put lands: cells `offset + k·stride` for `k` in
/// `0..count`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PutWindow {
    src: usize,
    offset: usize,
    count: usize,
    stride: usize,
}

impl PutWindow {
    /// The cell at window position `k`, if it is a cell at all.
    fn cell(&self, k: i64) -> Option<usize> {
        usize::try_from(self.offset as i64 + k * self.stride as i64).ok()
    }

    fn covers(&self, c: usize) -> bool {
        let d = c as i64 - self.offset as i64;
        d % self.stride as i64 == 0 && (0..self.count as i64).contains(&(d / self.stride as i64))
    }

    /// The halo gaps this put leaves, as `(first missed cell, missed
    /// cells)`, in window order.
    ///
    /// The halo cells aligned with the window form runs of consecutive
    /// positions `k`. A run that straddles an edge of the window (holds both
    /// `-1` and `0`, or both `count - 1` and `count`) is a contiguous halo
    /// region the put only partly covers: its cells outside the window that
    /// no put of `incoming` covers are missed. Runs that do not meet the
    /// window are domain boundary, not gaps.
    fn gaps(&self, halo: &IntervalSet, incoming: &BTreeSet<PutWindow>) -> Vec<(usize, usize)> {
        let in_halo = |k: i64| self.cell(k).is_some_and(|c| halo.contains(c));
        let run_through = |k: i64| {
            let (mut lo, mut hi) = (k, k);
            while in_halo(lo - 1) {
                lo -= 1;
            }
            while in_halo(hi + 1) {
                hi += 1;
            }
            (lo, hi)
        };
        let count = self.count as i64;
        let mut runs = Vec::new();
        if in_halo(-1) && in_halo(0) {
            runs.push(run_through(0));
        }
        if count > 0
            && in_halo(count - 1)
            && in_halo(count)
            && runs.last().is_none_or(|&(_, hi)| hi < count)
        {
            runs.push(run_through(count));
        }
        runs.into_iter()
            .filter_map(|(lo, hi)| {
                let mut miss = (lo..=hi)
                    .filter(|k| !(0..count).contains(k))
                    .filter_map(|k| self.cell(k))
                    .filter(|&c| !incoming.iter().any(|q| q.covers(c)));
                let first = miss.next()?;
                Some((first, 1 + miss.count()))
            })
            .collect()
    }
}

/// Find one cycle in a dependency graph, returned as the list of nodes on
/// it, or `None` when the graph is acyclic.
fn find_cycle(edges: &BTreeMap<usize, Vec<usize>>) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<usize, Color> = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        u: usize,
        edges: &BTreeMap<usize, Vec<usize>>,
        color: &mut BTreeMap<usize, Color>,
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color.insert(u, Color::Grey);
        stack.push(u);
        for &v in edges.get(&u).map(|d| d.as_slice()).unwrap_or(&[]) {
            match color.get(&v).copied().unwrap_or(Color::White) {
                Color::Grey => {
                    let pos = stack.iter().position(|&x| x == v).unwrap();
                    return Some(stack[pos..].to_vec());
                }
                Color::White => {
                    if let Some(c) = dfs(v, edges, color, stack) {
                        return Some(c);
                    }
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(u, Color::Black);
        None
    }

    for &u in edges.keys() {
        if color.get(&u).copied().unwrap_or(Color::White) == Color::White {
            if let Some(c) = dfs(u, edges, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Cond, CondOp, Expr};
    use crate::ir::{ArrayDecl, Cf, DataRef, DimRange, GuardedOp, State};
    use crate::programs::{Jacobi1dSetup, Jacobi2dSetup};
    use crate::transform::{
        gpu_persistent_kernel, gpu_transform, mpi_to_nvshmem_with, nvshmem_array, to_cpu_free,
        PutGranularity,
    };

    #[test]
    fn shipped_jacobi1d_mpi_verifies_clean() {
        let setup = Jacobi1dSetup::new(8, 4, 4);
        let report = verify_sdfg(&setup.sdfg, 4, &setup.user_bindings());
        assert!(report.clean(), "unexpected diagnostics:\n{report}");
    }

    #[test]
    fn shipped_jacobi1d_cpu_free_verifies_clean() {
        for n_pes in [1, 2, 3, 4] {
            let setup = Jacobi1dSetup::new(8, 4, n_pes);
            let user = setup.user_bindings();
            let mut sdfg = setup.sdfg;
            to_cpu_free(&mut sdfg).unwrap();
            let report = verify_sdfg(&sdfg, n_pes, &user);
            assert!(
                report.clean(),
                "n_pes={n_pes}: unexpected diagnostics:\n{report}"
            );
        }
    }

    #[test]
    fn shipped_jacobi2d_cpu_free_verifies_clean() {
        for n_pes in [1, 2, 4, 8] {
            let setup = Jacobi2dSetup::new(8, 8, 3, n_pes);
            let user = setup.user_bindings();
            let mut sdfg = setup.sdfg;
            to_cpu_free(&mut sdfg).unwrap();
            let report = verify_sdfg(&sdfg, n_pes, &user);
            assert!(
                report.clean(),
                "n_pes={n_pes}: unexpected diagnostics:\n{report}"
            );
        }
    }

    #[test]
    fn structural_gate_accepts_transformed_jacobi() {
        let mut sdfg = Jacobi1dSetup::new(8, 3, 4).sdfg;
        to_cpu_free(&mut sdfg).unwrap();
        let report = verify_structure(&sdfg, true);
        assert!(report.clean(), "{report}");
    }

    // -- the set-based oracle ---------------------------------------------

    /// The verifier as it was before the nbi fixpoint moved to bitsets and
    /// the halo check to run edges: the fixpoint keeps `BTreeSet` stamps
    /// and finds each wait's satisfying producers by scanning every
    /// producer, and the halo check steps every halo cell of every put.
    fn verify_by_sets(sdfg: &Sdfg, n_pes: usize, user: &Bindings) -> VerifyReport {
        let graph = CommGraph::build(sdfg, n_pes, user);
        let mut v = Verifier::new(sdfg, &graph);
        v.check_storage_classes();
        v.check_signal_balance();
        v.check_mpi_pairing();
        v.check_wait_cycles();
        v.check_nbi_source_reuse_by_sets();
        v.check_halo_coverage_by_cells();
        v.check_iteration_throttle();
        VerifyReport {
            program: sdfg.name.clone(),
            n_pes,
            diags: v.diags,
        }
    }

    impl Verifier<'_> {
        fn check_nbi_source_reuse_by_sets(&mut self) {
            let g = self.g;
            let mut tokens = BTreeMap::new();
            let mut next_token = 0usize;
            for (pe, trace) in g.traces.iter().enumerate() {
                for (idx, tev) in trace.evs.iter().enumerate() {
                    if let Ev::Put { nbi: true, .. } = tev.ev {
                        tokens.insert((pe, idx), next_token);
                        next_token += 1;
                    }
                }
            }
            let prod_ids: BTreeMap<(usize, usize), usize> = (self.prods.iter().enumerate())
                .map(|(i, p)| ((p.pe, p.idx), i))
                .collect();
            let sat: BTreeMap<(usize, usize), Vec<usize>> = (self.waits.iter())
                .map(|w| {
                    let s = (self.prods.iter().enumerate())
                        .filter(|(_, p)| {
                            p.target == w.pe
                                && p.sig == w.sig
                                && p.phase <= w.phase
                                && p.val >= w.val
                        })
                        .map(|(i, _)| i)
                        .collect();
                    ((w.pe, w.idx), s)
                })
                .collect();
            let prod_token = |pid: usize| {
                let p = &self.prods[pid];
                tokens.get(&(p.pe, p.idx)).copied()
            };
            let absorb_at_wait = |pe: usize,
                                  idx: usize,
                                  stamps: &[BTreeSet<usize>],
                                  absorbed: &mut BTreeSet<usize>| {
                let mut acc: Option<BTreeSet<usize>> = None;
                for &pid in &sat[&(pe, idx)] {
                    let mut s = stamps[pid].clone();
                    s.extend(prod_token(pid));
                    acc = Some(match acc {
                        None => s,
                        Some(a) => a.intersection(&s).copied().collect(),
                    });
                }
                absorbed.extend(acc.unwrap_or_default());
            };
            let mut stamps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.prods.len()];
            loop {
                let mut changed = false;
                for (pe, trace) in g.traces.iter().enumerate() {
                    let mut absorbed: BTreeSet<usize> = BTreeSet::new();
                    let mut outstanding: Vec<usize> = Vec::new();
                    for (idx, tev) in trace.evs.iter().enumerate() {
                        match &tev.ev {
                            Ev::Put { .. } | Ev::Signal { .. } => {
                                if let Some(&pid) = prod_ids.get(&(pe, idx)) {
                                    if stamps[pid] != absorbed {
                                        stamps[pid] = absorbed.clone();
                                        changed = true;
                                    }
                                }
                                outstanding.extend(tokens.get(&(pe, idx)));
                            }
                            Ev::Quiet => absorbed.extend(outstanding.drain(..)),
                            Ev::Wait { .. } => absorb_at_wait(pe, idx, &stamps, &mut absorbed),
                            _ => {}
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut found = Vec::new();
            for (pe, trace) in g.traces.iter().enumerate() {
                let mut absorbed: BTreeSet<usize> = BTreeSet::new();
                let mut outstanding = Vec::new();
                for (idx, tev) in trace.evs.iter().enumerate() {
                    match &tev.ev {
                        Ev::Put {
                            dst_pe,
                            src_array,
                            src_cells,
                            nbi: true,
                            ..
                        } => outstanding.push((tokens[&(pe, idx)], *dst_pe, *src_array, src_cells)),
                        Ev::Quiet => absorbed.extend(outstanding.drain(..).map(|o| o.0)),
                        Ev::Wait { .. } => absorb_at_wait(pe, idx, &stamps, &mut absorbed),
                        Ev::Write {
                            array,
                            cells,
                            label,
                        } => {
                            for &(token, dst_pe, src_array, src_cells) in &outstanding {
                                if src_array == *array
                                    && !absorbed.contains(&token)
                                    && cells.overlaps(src_cells)
                                {
                                    found.push((
                                        pe,
                                        dst_pe,
                                        *array,
                                        &**label,
                                        cells.intervals().first().copied().unwrap_or((0, 0)),
                                    ));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            self.report_nbi_reuse(found);
        }

        fn check_halo_coverage_by_cells(&mut self) {
            // Per (consumer pe, array): union of reads and of local writes.
            let mut reads: BTreeMap<(usize, String), IntervalSet> = BTreeMap::new();
            let mut writes: BTreeMap<(usize, String), IntervalSet> = BTreeMap::new();
            // Incoming puts per (dst pe, array), deduped across phases.
            type PutKey = (usize, usize, usize, usize); // src, offset, count, stride
            let mut puts: BTreeMap<(usize, String), BTreeSet<PutKey>> = BTreeMap::new();
            for (pe, trace) in self.g.traces.iter().enumerate() {
                for tev in &trace.evs {
                    match &tev.ev {
                        Ev::Read { array, cells, .. } => reads
                            .entry((pe, array.to_string()))
                            .or_default()
                            .union_with(cells),
                        Ev::Write { array, cells, .. } => writes
                            .entry((pe, array.to_string()))
                            .or_default()
                            .union_with(cells),
                        Ev::Put {
                            dst_pe, array, dst, ..
                        } => {
                            puts.entry((*dst_pe, array.to_string()))
                                .or_default()
                                .insert((pe, dst.offset, dst.count, dst.stride.max(1)));
                        }
                        _ => {}
                    }
                }
            }
            let mut found = Vec::new();
            for ((pe, array), rd) in &reads {
                let halo = match writes.get(&(*pe, array.clone())) {
                    Some(w) => rd.minus(w),
                    None => rd.clone(),
                };
                if halo.is_empty() {
                    continue;
                }
                let Some(incoming) = puts.get(&(*pe, array.clone())) else {
                    // No puts feed this array: all halo cells are domain
                    // boundary (initial condition), nothing to check.
                    continue;
                };
                // First: which halo cells does some put fully cover?
                let mut covered = IntervalSet::new();
                for &(_, off, count, stride) in incoming {
                    let hit: Vec<(usize, usize)> = halo
                        .cells()
                        .filter_map(|c| {
                            let d = c as i64 - off as i64;
                            (d % stride as i64 == 0
                                && (0..count as i64).contains(&(d / stride as i64)))
                            .then_some((c, c + 1))
                        })
                        .collect();
                    covered.union_with(&IntervalSet::from_intervals(hit));
                }
                // Second: flag puts whose aligned run straddles the put window —
                // a contiguous halo region only partially covered. Runs that do
                // not meet any window are boundary cells, not gaps.
                for &(src, off, count, stride) in incoming {
                    let mut ks: Vec<(i64, usize)> = halo
                        .cells()
                        .filter_map(|c| {
                            let d = c as i64 - off as i64;
                            (d % stride as i64 == 0).then(|| (d / stride as i64, c))
                        })
                        .collect();
                    ks.sort_unstable();
                    let mut run: Vec<(i64, usize)> = Vec::new();
                    let flush = |run: &mut Vec<(i64, usize)>, found: &mut Vec<_>| {
                        if run.is_empty() {
                            return;
                        }
                        let (klo, khi) = (run[0].0, run[run.len() - 1].0);
                        let meets = klo < count as i64 && khi >= 0;
                        let inside = klo >= 0 && khi < count as i64;
                        if meets && !inside {
                            let miss: Vec<usize> = run
                                .iter()
                                .filter(|(k, c)| {
                                    !(0..count as i64).contains(k) && !covered.contains(*c)
                                })
                                .map(|&(_, c)| c)
                                .collect();
                            if !miss.is_empty() {
                                found.push((*pe, src, array.clone(), miss[0], miss.len()));
                            }
                        }
                        run.clear();
                    };
                    for (k, c) in ks {
                        if let Some(&(prev, _)) = run.last() {
                            if k != prev + 1 {
                                flush(&mut run, &mut found);
                            }
                        }
                        run.push((k, c));
                    }
                    flush(&mut run, &mut found);
                }
            }
            for (pe, src, array, first_cell, n_miss) in found {
                self.diag(
                    format!("halo:{pe}:{src}:{array}"),
                    DiagKind::HaloCoverageGap,
                    Some(pe),
                    Some(src),
                    array.clone(),
                    format!(
                        "halo coverage gap on `{array}`: pe{pe} reads {n_miss} remote-fed cell(s) \
                         (first: index {first_cell}) that the put from pe{src} does not cover — \
                         they would hold stale data on every schedule"
                    ),
                );
            }
        }
    }

    /// Shipped Jacobi 1D, and 2D where its process grid exists (a
    /// power-of-two PE count), under both persistent pipelines.
    fn shipped(n_pes: usize) -> Vec<(Sdfg, Bindings)> {
        let s = Jacobi1dSetup::new(16, 6, n_pes);
        let mut fronts = vec![(s.sdfg.clone(), s.user_bindings())];
        if n_pes.is_power_of_two() {
            let s = Jacobi2dSetup::new(6, 5, 6, n_pes);
            fronts.push((s.sdfg.clone(), s.user_bindings()));
        }
        let mut out = Vec::new();
        for (front, user) in fronts {
            let mut single = front.clone();
            to_cpu_free(&mut single).unwrap();
            out.push((single, user.clone()));
            let mut block = front;
            gpu_transform(&mut block);
            mpi_to_nvshmem_with(&mut block, PutGranularity::Block).unwrap();
            nvshmem_array(&mut block);
            gpu_persistent_kernel(&mut block).unwrap();
            out.push((block, user));
        }
        out
    }

    /// One copy of `sdfg` per op that `pick` selects, in visit order, each
    /// with that op changed by `edit` (`false` removes it).
    fn mutants(
        sdfg: &Sdfg,
        pick: impl Fn(&Op) -> bool,
        edit: impl Fn(&mut Op) -> bool,
    ) -> Vec<Sdfg> {
        let mut n = 0;
        sdfg.visit_states(&mut |s| n += s.ops.iter().filter(|g| pick(&g.op)).count());
        (0..n)
            .map(|target| {
                let mut m = sdfg.clone();
                let mut seen = 0;
                m.visit_states_mut(&mut |s| {
                    let mut i = 0;
                    while i < s.ops.len() {
                        if pick(&s.ops[i].op) {
                            seen += 1;
                            if seen == target + 1 && !edit(&mut s.ops[i].op) {
                                s.ops.remove(i);
                                continue;
                            }
                        }
                        i += 1;
                    }
                });
                m
            })
            .collect()
    }

    fn assert_matches_oracle(sdfg: &Sdfg, n_pes: usize, user: &Bindings) -> VerifyReport {
        let report = verify_sdfg(sdfg, n_pes, user);
        assert_eq!(report, verify_by_sets(sdfg, n_pes, user), "n_pes={n_pes}");
        report
    }

    #[test]
    fn bitset_fixpoint_equals_set_oracle_on_shipped_programs() {
        for n_pes in 1..=16 {
            for (sdfg, user) in shipped(n_pes) {
                assert!(assert_matches_oracle(&sdfg, n_pes, &user).clean());
            }
        }
    }

    #[test]
    fn bitset_fixpoint_equals_set_oracle_on_protocol_mutants() {
        let protocol = |op: &Op| {
            matches!(
                op,
                Op::Lib(LibNode::Quiet | LibNode::SignalWait { .. } | LibNode::SignalOp { .. })
            )
        };
        // A wait on threshold 1 is satisfied by every earlier producer of its
        // flag, so the fixpoint intersects several stamps there.
        let is_wait = |op: &Op| matches!(op, Op::Lib(LibNode::SignalWait { .. }));
        let lower_threshold = |op: &mut Op| {
            if let Op::Lib(LibNode::SignalWait { val, .. }) = op {
                *val = Expr::c(1);
            }
            true
        };
        let mut kinds = BTreeSet::new();
        for n_pes in [1, 2, 3, 4, 8] {
            for (sdfg, user) in shipped(n_pes) {
                let removed = mutants(&sdfg, protocol, |_| false);
                for m in removed
                    .iter()
                    .chain(&mutants(&sdfg, is_wait, lower_threshold))
                {
                    let report = assert_matches_oracle(m, n_pes, &user);
                    kinds.extend(report.diags.iter().map(|d| d.kind.to_string()));
                }
            }
        }
        assert!(
            kinds.contains(&DiagKind::NbiSourceReuse.to_string()),
            "no mutant took the dirty nbi path: {kinds:?}"
        );
    }

    fn array(name: &str, storage: Storage) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            shape: vec![Expr::c(4)],
            storage,
        }
    }

    /// pe0 puts `A[0]` to the last PE, which hands the acknowledgement back
    /// down a relay of `signal_op`s, one PE at a time, to pe0, which then
    /// rewrites `A[0]`. Every hop runs against the PE order of a fixpoint
    /// pass, so the reuse is proven ordered only after `n_pes - 1` passes.
    fn backward_relay() -> Sdfg {
        let a0 = || DataRef::new("A", vec![DimRange::idx(Expr::c(0))]);
        let on = |cmp, op| GuardedOp::when(Cond::new(Expr::s("rank"), cmp, Expr::c(0)), op);
        let t = || Expr::s("t");
        let ops = vec![
            on(
                CondOp::Eq,
                Op::Lib(LibNode::PutmemSignal {
                    dst: a0(),
                    src: a0(),
                    sig: 1,
                    val: t(),
                    pe: Expr::s("size").sub(Expr::c(1)),
                }),
            ),
            on(
                CondOp::Gt,
                Op::Lib(LibNode::SignalWait { sig: 1, val: t() }),
            ),
            on(
                CondOp::Gt,
                Op::Lib(LibNode::SignalOp {
                    sig: 1,
                    val: t(),
                    pe: Expr::s("rank").sub(Expr::c(1)),
                }),
            ),
            on(
                CondOp::Eq,
                Op::Lib(LibNode::SignalWait { sig: 1, val: t() }),
            ),
            on(
                CondOp::Eq,
                Op::Copy {
                    dst: a0(),
                    src: DataRef::new("C", vec![DimRange::idx(Expr::c(0))]),
                },
            ),
        ];
        Sdfg {
            name: "backward_relay".into(),
            symbols: vec![],
            derived: vec![],
            arrays: vec![array("A", Storage::GpuNvshmem), array("C", Storage::Gpu)],
            body: vec![Cf::Loop {
                var: "t".into(),
                start: Expr::c(1),
                end: Expr::c(3),
                body: vec![Cf::State(State {
                    name: "relay".into(),
                    ops,
                })],
                persistent: true,
            }],
        }
    }

    /// pe1 puts `A[0]` to pe2 with flag 1 = 2. pe2 first waits for
    /// `flag 1 >= 1`, which pe0's `signal_op` (flag 1 = 1) also satisfies,
    /// then acks pe1, then waits for `flag 1 >= 2` and wakes pe0. pe0 signals only
    /// after pe2's second wait, so pe0's stamp already holds pe1's token:
    /// the first wait absorbs that token from both of its producers, and
    /// pe1's rewrite of `A[0]` after the ack is ordered.
    fn ack_behind_a_shared_flag() -> Sdfg {
        let a0 = || DataRef::new("A", vec![DimRange::idx(Expr::c(0))]);
        one_state(vec![
            on(0, wait(6, 1)),
            on(0, signal(1, 2)),
            on(
                1,
                Op::Lib(LibNode::PutmemSignal {
                    dst: a0(),
                    src: a0(),
                    sig: 1,
                    val: Expr::c(2),
                    pe: Expr::c(2),
                }),
            ),
            on(1, wait(5, 1)),
            on(
                1,
                Op::Copy {
                    dst: a0(),
                    src: DataRef::new("C", vec![DimRange::idx(Expr::c(0))]),
                },
            ),
            on(2, wait(1, 1)),
            on(2, signal(5, 1)),
            on(2, wait(1, 2)),
            on(2, signal(6, 0)),
        ])
    }

    /// An SDFG of one state over arrays `A` (symmetric) and `C`.
    fn one_state(ops: Vec<GuardedOp>) -> Sdfg {
        Sdfg {
            name: "one_state".into(),
            symbols: vec![],
            derived: vec![],
            arrays: vec![array("A", Storage::GpuNvshmem), array("C", Storage::Gpu)],
            body: vec![Cf::State(State {
                name: "s".into(),
                ops,
            })],
        }
    }

    fn on(rank: i64, op: Op) -> GuardedOp {
        GuardedOp::when(Cond::new(Expr::s("rank"), CondOp::Eq, Expr::c(rank)), op)
    }

    fn wait(sig: u32, val: i64) -> Op {
        Op::Lib(LibNode::SignalWait {
            sig,
            val: Expr::c(val),
        })
    }

    /// `signal_op` setting flag `sig` to 1 on `pe`.
    fn signal(sig: u32, pe: i64) -> Op {
        Op::Lib(LibNode::SignalOp {
            sig,
            val: Expr::c(1),
            pe: Expr::c(pe),
        })
    }

    #[test]
    fn crossed_waits_are_a_wait_cycle() {
        let sdfg = one_state(vec![
            on(0, wait(1, 1)),
            on(0, signal(2, 1)),
            on(1, wait(2, 1)),
            on(1, signal(1, 0)),
        ]);
        let report = verify_sdfg(&sdfg, 2, &Bindings::default());
        let cycles = report.of_kind(DiagKind::WaitCycle);
        assert_eq!(cycles.len(), 1, "{report}");
        assert_eq!((cycles[0].pe, cycles[0].peer), (Some(0), Some(1)));
        assert_eq!(report.of_kind(DiagKind::LostSignal).len(), 2, "{report}");
    }

    #[test]
    fn a_signal_nobody_waits_for_is_an_orphan() {
        let sdfg = one_state(vec![on(0, signal(3, 1))]);
        let report = verify_sdfg(&sdfg, 2, &Bindings::default());
        assert_eq!(report.diags.len(), 1, "{report}");
        let d = &report.diags[0];
        assert_eq!(d.kind, DiagKind::UnmatchedSignalWait);
        assert_eq!((d.pe, d.peer), (Some(1), Some(0)));
        assert!(d.message.contains("never waits"), "{d}");
    }

    #[test]
    fn bitset_fixpoint_keeps_a_token_every_producer_carries() {
        let report = assert_matches_oracle(&ack_behind_a_shared_flag(), 3, &Bindings::default());
        assert!(
            report.of_kind(DiagKind::NbiSourceReuse).is_empty(),
            "the ack orders the reuse:\n{report}"
        );
    }

    /// The fixpoint runs to convergence, past any fixed pass budget: a
    /// 14-PE relay needs 13 passes.
    #[test]
    fn bitset_fixpoint_converges_along_a_backward_relay() {
        let sdfg = backward_relay();
        for n_pes in [2, 3, 5, 14] {
            let report = assert_matches_oracle(&sdfg, n_pes, &Bindings::default());
            assert!(
                report.of_kind(DiagKind::NbiSourceReuse).is_empty(),
                "n_pes={n_pes}: the relay orders the reuse:\n{report}"
            );
        }
    }

    /// Shrink each multi-cell put window by one cell, at its end and at its
    /// start, so the halo check meets runs that straddle a window edge.
    #[test]
    fn halo_runs_equal_per_cell_oracle_on_put_window_mutants() {
        let is_put = |op: &Op| {
            matches!(
                op,
                Op::Lib(
                    LibNode::PutmemSignal { .. }
                        | LibNode::PutmemSignalBlock { .. }
                        | LibNode::Iput { .. }
                        | LibNode::PutSingle { .. }
                        | LibNode::PutMapped { .. }
                )
            )
        };
        let shrink = |shift: bool| {
            move |op: &mut Op| {
                let Op::Lib(
                    LibNode::PutmemSignal { dst, .. }
                    | LibNode::PutmemSignalBlock { dst, .. }
                    | LibNode::Iput { dst, .. }
                    | LibNode::PutSingle { dst, .. }
                    | LibNode::PutMapped { dst, .. },
                ) = op
                else {
                    unreachable!()
                };
                for d in &mut dst.subset {
                    if d.count != Expr::c(1) {
                        d.count = d.count.clone().sub(Expr::c(1));
                        if shift {
                            d.start = d.start.clone().add(Expr::c(1));
                        }
                    }
                }
                true
            }
        };
        let mut gaps = 0;
        for n_pes in [2, 3, 4, 8] {
            for (sdfg, user) in shipped(n_pes) {
                for shift in [false, true] {
                    for m in mutants(&sdfg, is_put, shrink(shift)) {
                        let report = assert_matches_oracle(&m, n_pes, &user);
                        gaps += report.of_kind(DiagKind::HaloCoverageGap).len();
                    }
                }
            }
        }
        assert!(gaps > 0, "no mutant left a halo gap");
    }
}
