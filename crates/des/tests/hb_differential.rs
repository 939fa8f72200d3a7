//! Differential test of the happens-before tracker's pruned shadow state.
//!
//! Seeded random traces of spawns, signals, deliveries, waits, barriers,
//! async effects (begin, accesses, delivery, absorb) and overlapping reads
//! and writes drive both the real [`HbTracker`] and a brute-force oracle
//! that lives only here: map-based vector clocks that are never collected,
//! and every access kept with its full clock and raced against every
//! earlier one in both directions. For every access both must agree on
//! whether it races with anything and on the set of [`DiagKind`]s, and each
//! race the tracker reports must be one the oracle found.

use sim_des::{mix64, AgentId, AsyncClock, DiagKind, Engine, HbTracker, SimTime, SymPool};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const AGENTS: usize = 5;
const FLAGS: usize = 3;
const LOCS: usize = 3;
const STEPS: usize = 160;
const SEEDS: u64 = 400;

#[derive(Clone, Default)]
struct Clock(BTreeMap<u32, u64>);

impl Clock {
    fn get(&self, c: u32) -> u64 {
        self.0.get(&c).copied().unwrap_or(0)
    }

    fn tick(&mut self, c: u32) -> u64 {
        let v = self.0.entry(c).or_insert(0);
        *v += 1;
        *v
    }

    fn join(&mut self, o: &Clock) {
        for (&c, &v) in &o.0 {
            let e = self.0.entry(c).or_insert(0);
            *e = (*e).max(v);
        }
    }
}

struct OAccess {
    owner: u32,
    stamp: u64,
    clock: Clock,
    write: bool,
    nbi_src: bool,
    range: (usize, usize),
    label: String,
}

impl OAccess {
    fn hb(&self, other: &OAccess) -> bool {
        other.clock.get(self.owner) >= self.stamp
    }
}

/// An oracle stamp: a clock and the component it was issued on.
#[derive(Clone)]
struct OStamp {
    clock: Clock,
    comp: u32,
}

/// The unpruned algorithm: components never collected, every access kept
/// and raced against every earlier one.
#[derive(Default)]
struct Oracle {
    next: u32,
    comp: BTreeMap<usize, u32>,
    clocks: BTreeMap<usize, Clock>,
    flags: BTreeMap<usize, Clock>,
    accesses: BTreeMap<usize, Vec<OAccess>>,
}

impl Oracle {
    fn comp_of(&mut self, a: usize) -> u32 {
        if let Some(&c) = self.comp.get(&a) {
            return c;
        }
        let c = self.next;
        self.next += 1;
        self.comp.insert(a, c);
        self.clocks.entry(a).or_default().tick(c);
        c
    }

    fn tick(&mut self, a: usize) -> OStamp {
        let comp = self.comp_of(a);
        let clock = self.clocks.get_mut(&a).expect("allocated above");
        clock.tick(comp);
        OStamp {
            clock: clock.clone(),
            comp,
        }
    }

    fn spawn(&mut self, parent: usize, child: usize) {
        let cc = self.comp_of(child);
        let mut clock = self.tick(parent).clock;
        clock.tick(cc);
        self.clocks.insert(child, clock);
    }

    fn deliver(&mut self, flag: usize, s: &OStamp) {
        self.flags.entry(flag).or_default().join(&s.clock);
    }

    fn wait(&mut self, a: usize, flag: usize) {
        let c = self.comp_of(a);
        let fc = self.flags.get(&flag).cloned().unwrap_or_default();
        let clock = self.clocks.get_mut(&a).expect("allocated above");
        clock.join(&fc);
        clock.tick(c);
    }

    fn barrier(&mut self, agents: &[usize]) {
        let mut joined = Clock::default();
        for &a in agents {
            self.comp_of(a);
            joined.join(&self.clocks[&a]);
        }
        for &a in agents {
            let mut clock = joined.clone();
            clock.tick(self.comp[&a]);
            self.clocks.insert(a, clock);
        }
    }

    fn async_begin(&mut self, a: usize) -> OStamp {
        self.comp_of(a);
        let comp = self.next;
        self.next += 1;
        let mut clock = self.tick(a).clock;
        clock.tick(comp);
        OStamp { clock, comp }
    }

    fn absorb(&mut self, a: usize, effects: &[&OStamp]) {
        let c = self.comp_of(a);
        let clock = self.clocks.get_mut(&a).expect("allocated above");
        for e in effects {
            clock.join(&e.clock);
        }
        clock.tick(c);
    }

    /// Races of `x` with every earlier access: (kind, earlier label).
    fn insert(&mut self, loc: usize, x: OAccess) -> Vec<(DiagKind, String)> {
        let prior = self.accesses.entry(loc).or_default();
        let mut found = Vec::new();
        for a in prior.iter() {
            let overlap = a.range.0 < x.range.1 && x.range.0 < a.range.1;
            if !overlap || !(a.write || x.write) || a.hb(&x) || x.hb(a) {
                continue;
            }
            let kind = if (a.nbi_src && x.write) || (x.nbi_src && a.write) {
                DiagKind::NbiSourceReuse
            } else {
                DiagKind::DataRace
            };
            found.push((kind, a.label.clone()));
        }
        prior.push(x);
        found
    }
}

/// An async effect on both sides. `open` until its stamp is delivered or
/// absorbed: only then may it record more accesses.
struct Effect {
    issuer: usize,
    real: AsyncClock,
    oracle: OStamp,
    open: bool,
    absorbed: bool,
}

/// Who performs an access.
#[derive(Clone, Copy)]
enum By<'a> {
    Agent(usize),
    Effect(&'a Effect),
}

struct Run {
    seed: u64,
    draws: u64,
    real: HbTracker,
    oracle: Oracle,
    accesses: usize,
    races: usize,
}

impl Run {
    fn below(&mut self, n: usize) -> usize {
        self.draws += 1;
        (mix64(self.seed ^ self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % n as u64) as usize
    }

    fn coin(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    /// Record one access on both sides and compare what each reports.
    fn access(&mut self, by: By, write: bool, nbi_src: bool) {
        let loc = self.below(LOCS);
        let lo = self.below(8);
        let hi = lo + 1 + self.below(8 - lo);
        let label = format!("x{}", self.accesses);
        self.accesses += 1;
        let (t, key) = (SimTime::ZERO, loc as u64);
        let before = self.real.diagnostics().len();
        let owner = match by {
            By::Agent(a) => {
                let real = &self.real;
                real.record_access(AgentId(a), t, key, "loc", lo, hi, write, &label);
                self.oracle.tick(a)
            }
            By::Effect(e) => {
                let real = &self.real;
                real.record_access_async(&e.real, t, key, "loc", lo, hi, write, nbi_src, &label);
                e.oracle.clone()
            }
        };
        let stamp = owner.clock.get(owner.comp);
        let expected = self.oracle.insert(
            loc,
            OAccess {
                owner: owner.comp,
                stamp,
                clock: owner.clock,
                write,
                nbi_src,
                range: (lo, hi),
                label: label.clone(),
            },
        );
        let got = &self.real.diagnostics()[before..];
        let kinds =
            |k: &mut dyn Iterator<Item = DiagKind>| k.map(|k| k as u8).collect::<BTreeSet<_>>();
        assert_eq!(
            kinds(&mut got.iter().map(|d| d.kind)),
            kinds(&mut expected.iter().map(|e| e.0)),
            "seed {}, access {label}: tracker {got:?} vs oracle {expected:?}",
            self.seed
        );
        for d in got {
            assert!(
                expected
                    .iter()
                    .any(|(k, l)| *k == d.kind && d.message.contains(&format!("({l})"))),
                "seed {}, access {label}: {d} is not an oracle race {expected:?}",
                self.seed
            );
        }
        self.races += expected.len();
    }
}

/// Drive one seeded trace through both sides; returns the run for its
/// totals.
fn trace(seed: u64) -> Run {
    let engine = Engine::new();
    let flags: Vec<_> = (0..FLAGS).map(|_| engine.flag(0)).collect();
    let pool = Arc::new(SymPool::new());
    let mut run = Run {
        seed,
        draws: 0,
        real: HbTracker::with_pool(Arc::clone(&pool)),
        oracle: Oracle::default(),
        accesses: 0,
        races: 0,
    };
    let t = SimTime::ZERO;
    run.real.on_spawn(None, AgentId(0), pool.intern("a0"), t);
    run.oracle.comp_of(0);
    let mut agents = 1;
    // Signals in flight: flag, both stamps, and the effect they complete.
    let mut pending: Vec<(usize, AsyncClock, OStamp, Option<usize>)> = Vec::new();
    let mut effects: Vec<Effect> = Vec::new();
    for _ in 0..STEPS {
        // Stay clear of the tracker's cap on retained diagnostics.
        if run.real.diagnostics().len() > 200 {
            break;
        }
        let a = run.below(agents);
        let op = run.below(100);
        match op {
            0..=5 if agents < AGENTS => {
                let name = pool.intern(&format!("a{agents}"));
                run.real
                    .on_spawn(Some(AgentId(a)), AgentId(agents), name, t);
                run.oracle.spawn(a, agents);
                agents += 1;
            }
            0..=37 => {
                let write = run.coin(50);
                run.access(By::Agent(a), write, false);
            }
            38..=47 => {
                let f = run.below(FLAGS);
                let real = run.real.on_schedule_signal(AgentId(a), flags[f], t);
                let oracle = run.oracle.tick(a);
                pending.push((f, real, oracle, None));
            }
            48..=57 if !pending.is_empty() => {
                let i = run.below(pending.len());
                let (f, real, oracle, effect) = pending.remove(i);
                run.real.on_signal_deliver(flags[f], &real, t);
                run.oracle.deliver(f, &oracle);
                if let Some(e) = effect {
                    effects[e].open = false;
                }
            }
            48..=62 => {
                let f = run.below(FLAGS);
                run.real.on_wait_satisfied(AgentId(a), flags[f], t);
                run.oracle.wait(a, f);
            }
            63..=67 if agents > 1 => {
                let mut group: Vec<usize> = (0..agents).filter(|_| run.coin(60)).collect();
                if group.len() < 2 {
                    group = vec![0, agents - 1];
                }
                let ids: Vec<_> = group.iter().map(|&i| AgentId(i)).collect();
                let barrier = engine.barrier(ids.len());
                run.real.on_barrier_release(&ids, barrier, t);
                run.oracle.barrier(&group);
            }
            63..=77 => {
                // An nbi put: in-flight source read, delivered write, and
                // (usually) a completion signal.
                let e = Effect {
                    issuer: a,
                    real: run.real.async_begin(AgentId(a), t),
                    oracle: run.oracle.async_begin(a),
                    open: true,
                    absorbed: false,
                };
                run.access(By::Effect(&e), false, true);
                run.access(By::Effect(&e), true, false);
                if run.coin(70) {
                    let f = run.below(FLAGS);
                    pending.push((f, e.real.clone(), e.oracle.clone(), Some(effects.len())));
                }
                effects.push(e);
            }
            78..=85 if effects.iter().any(|e| e.open) => {
                // A still-open effect records a later access.
                let open: Vec<usize> = (0..effects.len()).filter(|&i| effects[i].open).collect();
                let e = &effects[open[run.below(open.len())]];
                let write = run.coin(50);
                let nbi = !write && run.coin(50);
                run.access(By::Effect(e), write, nbi);
            }
            _ => {
                let mine: Vec<usize> = (0..effects.len())
                    .filter(|&i| effects[i].issuer == a && !effects[i].absorbed)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                let real: Vec<AsyncClock> = mine.iter().map(|&i| effects[i].real.clone()).collect();
                let oracle: Vec<&OStamp> = mine.iter().map(|&i| &effects[i].oracle).collect();
                run.real.absorb(AgentId(a), &real, t);
                run.oracle.absorb(a, &oracle);
                for &i in &mine {
                    effects[i].open = false;
                    effects[i].absorbed = true;
                }
            }
        }
    }
    run
}

#[test]
fn pruned_tracker_matches_all_pairs_oracle() {
    let (mut accesses, mut retained, mut races) = (0, 0, 0);
    for seed in 0..SEEDS {
        let run = trace(seed);
        accesses += run.accesses;
        retained += run.real.retained_accesses();
        races += run.races;
    }
    // The traces exercise both halves: races are found, and a good share
    // of the accesses is pruned from the shadow state.
    println!("{races} races; {retained} of {accesses} accesses retained");
    assert!(races > 1000, "{races} races");
    assert!(
        retained * 3 < accesses * 2,
        "{retained} of {accesses} retained"
    );
}
