//! Potential-deadlock prediction: the cross-rank lock-order graph.
//!
//! A deterministic trace that ran to completion obviously did not
//! deadlock — but the *order* in which ranks nest VLock acquisitions
//! is a schedule-independent fact, and inconsistent nesting is a
//! deadlock waiting for the right interleaving. This module builds the
//! classic lock-order graph (Goodlock-style) from the trace and reports
//! every cycle that survives the gate-lock filter:
//!
//! * **hold edges** — rank r acquires lock `B` while holding `A`:
//!   edge `A → B`, witnessed by the two acquisition events and the full
//!   set of locks r held at the request;
//! * **barrier wait edges** — a barrier episode cannot complete until
//!   every participant arrives, so it behaves like a resource every
//!   participant holds until its own `BarrierWait`. A rank waiting at
//!   barrier `e` while holding `L` contributes `L → Barrier(e)`
//!   (holders block arrivals needing `L`); a rank acquiring `L` before
//!   its own arrival at `e` contributes `Barrier(e) → L` (its arrival
//!   is blocked by the acquire). The 2-cycle `L → Barrier(e) → L` is
//!   exactly the hold-a-lock-across-a-barrier deadlock;
//! * **TD up-wave edges** — the termination-detection up wave joins
//!   votes bottom-up like a barrier; the same two edge forms apply to
//!   each `(wave, occurrence)` episode.
//!
//! A cycle is reported only when one witness per edge can be chosen
//! with pairwise-distinct ranks (one rank cannot deadlock with itself;
//! its operations are totally ordered) and pairwise-disjoint holdsets
//! (a common *gate* lock held around both nestings serializes them —
//! the classic Goodlock false-positive filter). Every reported cycle
//! names the participating ranks, each edge's witness events, and the
//! lock sets held.
//!
//! Enumeration is bounded (cycle length ≤ `MAX_CYCLE_LEN`, at most
//! `MAX_CYCLES` cycles, `MAX_DFS_STEPS` DFS steps); hitting a bound
//! sets `truncated` on the report — never silently.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use scioto_analyze::sync::{refuse_dropped, LockKey};
use scioto_sim::{Trace, TraceEvent, WaveDir};

use crate::fold::scan_held;

/// Longest cycle reported. Real lock hierarchies run shallow; a longer
/// cycle always contains the short inconsistencies this bounds.
const MAX_CYCLE_LEN: usize = 6;
/// Most cycles reported before truncating.
const MAX_CYCLES: usize = 64;
/// DFS step budget across the whole enumeration.
const MAX_DFS_STEPS: usize = 1_000_000;
/// Witnesses kept per distinct edge (first-come, favoring distinct
/// ranks so the validity search has material to work with).
const MAX_WITNESSES: usize = 8;

/// One node of the lock-order graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// A VLock `(target, set, idx)`.
    Lock(LockKey),
    /// A barrier episode (global epoch).
    Barrier(u64),
    /// A TD up-wave episode `(wave, per-rank occurrence)`.
    TdUp(u32, u64),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Lock((t, s, i)) => write!(f, "lock(target {t}, set {s}, idx {i})"),
            Resource::Barrier(e) => write!(f, "barrier(epoch {e})"),
            Resource::TdUp(w, o) => write!(f, "td-up(wave {w}, occurrence {o})"),
        }
    }
}

/// One observation of an edge `from → to`: rank `rank` held `from`
/// (established at `held_ev`) while requesting `to` (at `req_ev`), with
/// `holdset` the locks held at the request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeWitness {
    pub rank: u32,
    /// Event index (in `rank`'s stream) establishing the hold — the
    /// acquire of `from`, or the pending barrier/td arrival for wait
    /// edges.
    pub held_ev: u32,
    pub held_t_ns: u64,
    /// Event index of the blocked request.
    pub req_ev: u32,
    pub req_t_ns: u64,
    /// Locks held at the request (gate-lock filtering input).
    pub holdset: Vec<LockKey>,
}

/// One potential deadlock: a cycle in the lock-order graph with a
/// valid witness assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cycle {
    /// The resources on the cycle, in edge order (`nodes[i] →
    /// nodes[(i+1) % len]`).
    pub nodes: Vec<Resource>,
    /// The chosen witness for each edge, aligned with `nodes`.
    pub witnesses: Vec<EdgeWitness>,
    /// Participating ranks (one per edge, pairwise distinct), sorted.
    pub ranks: Vec<u32>,
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "potential deadlock cycle ({} node(s), ranks {:?}):",
            self.nodes.len(),
            self.ranks
        )?;
        for (i, w) in self.witnesses.iter().enumerate() {
            let from = &self.nodes[i];
            let to = &self.nodes[(i + 1) % self.nodes.len()];
            writeln!(
                f,
                "  {from} -> {to}: rank {} holds since event #{} (t={}ns), requests at \
                 event #{} (t={}ns), holding {:?}",
                w.rank, w.held_ev, w.held_t_ns, w.req_ev, w.req_t_ns, w.holdset
            )?;
        }
        Ok(())
    }
}

/// Outcome of a deadlock scan.
#[derive(Debug)]
pub struct DeadlockReport {
    /// Valid cycles found, deterministic order.
    pub cycles: Vec<Cycle>,
    /// Nodes in the lock-order graph.
    pub nodes: usize,
    /// Distinct directed edges.
    pub edges: usize,
    /// True when an enumeration bound was hit — findings may be
    /// incomplete (raise the bounds to be sure).
    pub truncated: bool,
}

impl DeadlockReport {
    /// True when no potential deadlock was found (and the scan was
    /// complete).
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty() && !self.truncated
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock scan: {} node(s), {} edge(s), {} cycle(s){}",
            self.nodes,
            self.edges,
            self.cycles.len(),
            if self.truncated { " [TRUNCATED — bounds hit, findings incomplete]" } else { "" }
        )?;
        for c in &self.cycles {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Scan a trace for potential deadlocks. Needs no clocks — lock
/// nesting is a per-rank program-order fact — so it works even on
/// traces the HB replay rejects, except for dropped events (a truncated
/// stream can hide the edge that completes a cycle).
pub fn check_deadlocks(trace: &Trace) -> Result<DeadlockReport, String> {
    refuse_dropped(trace, "a complete lock-order graph").map_err(|e| e.to_string())?;

    // Edge map: (from, to) → witnesses (capped, distinct-rank first).
    let mut edges: BTreeMap<(Resource, Resource), Vec<EdgeWitness>> = BTreeMap::new();
    let mut add_edge = |from: Resource, to: Resource, w: EdgeWitness| {
        let ws = edges.entry((from, to)).or_default();
        if ws.len() < MAX_WITNESSES && (ws.iter().all(|x| x.rank != w.rank) || ws.len() < 2) {
            ws.push(w);
        }
    };

    for (rank, events) in trace.events.iter().enumerate() {
        // Forward pass: occurrence index per (Up, wave) emission.
        let mut up_occ: BTreeMap<u32, u64> = BTreeMap::new();
        let mut occ_at: Vec<u64> = vec![0; events.len()];
        for (i, ev) in events.iter().enumerate() {
            if let TraceEvent::TdWave { wave, dir: WaveDir::Up, .. } = &ev.event {
                let o = up_occ.entry(*wave).or_default();
                *o += 1;
                occ_at[i] = *o;
            }
        }
        // Backward pass: the next barrier / up-wave arrival each event
        // precedes, as (resource, its event, its stamp).
        let mut next_barrier: Vec<Option<(Resource, u32, u64)>> = vec![None; events.len()];
        let mut next_up = next_barrier.clone();
        let (mut nb, mut nu) = (None, None);
        for (i, ev) in events.iter().enumerate().rev() {
            next_barrier[i] = nb;
            next_up[i] = nu;
            match ev.event {
                TraceEvent::BarrierWait { epoch, .. } => {
                    nb = Some((Resource::Barrier(epoch), i as u32, ev.t_ns));
                }
                TraceEvent::TdWave { wave, dir: WaveDir::Up, .. } => {
                    nu = Some((Resource::TdUp(wave, occ_at[i]), i as u32, ev.t_ns));
                }
                _ => {}
            }
        }
        // Main pass: every lock held at a request (an acquire, a barrier
        // or up-wave arrival) orders before the requested resource.
        scan_held(events, |i, ev, held| {
            let to = match ev.event {
                TraceEvent::LockAcq { target, set, idx, .. } => Resource::Lock((target, set, idx)),
                TraceEvent::BarrierWait { epoch, .. } => Resource::Barrier(epoch),
                TraceEvent::TdWave { wave, dir: WaveDir::Up, .. } => Resource::TdUp(wave, occ_at[i]),
                _ => return,
            };
            let holdset: Vec<LockKey> = held.iter().map(|h| h.key).collect();
            let witness = |held_ev, held_t_ns| EdgeWitness {
                rank: rank as u32,
                held_ev,
                held_t_ns,
                req_ev: i as u32,
                req_t_ns: ev.t_ns,
                holdset: holdset.clone(),
            };
            for h in held {
                add_edge(Resource::Lock(h.key), to, witness(h.ev, h.t_ns));
            }
            // The rank's pending barrier/up-wave arrival is an obligation:
            // the episode is "held" until it arrives, and an acquire
            // blocks the arrival.
            if let Resource::Lock(_) = to {
                for (pending, at, t_ns) in [next_barrier[i], next_up[i]].into_iter().flatten() {
                    add_edge(pending, to, witness(at, t_ns));
                }
            }
        });
    }

    // Restrict to nodes with both in- and out-edges; nothing else can
    // sit on a cycle. On clean traces (no lock held across a wait, no
    // nesting inversion) this usually empties the graph immediately.
    let mut has_in: BTreeSet<Resource> = BTreeSet::new();
    let mut has_out: BTreeSet<Resource> = BTreeSet::new();
    for (from, to) in edges.keys() {
        has_out.insert(*from);
        has_in.insert(*to);
    }
    let live: BTreeSet<Resource> = has_in.intersection(&has_out).copied().collect();
    let adj: BTreeMap<Resource, Vec<Resource>> = {
        let mut adj: BTreeMap<Resource, Vec<Resource>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            if live.contains(from) && live.contains(to) {
                adj.entry(*from).or_default().push(*to);
            }
        }
        adj
    };

    let node_count: BTreeSet<Resource> = edges
        .keys()
        .flat_map(|(a, b)| [*a, *b])
        .collect();
    let edge_count = edges.len();

    // Cycle enumeration: DFS from each live node in sorted order,
    // reporting only cycles whose minimum node is the start (dedups
    // rotations). Bounded by length, count, and total steps.
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut truncated = false;
    let mut steps = 0usize;
    let nodes_sorted: Vec<Resource> = live.iter().copied().collect();
    for &start in &nodes_sorted {
        let mut path = vec![start];
        dfs(
            start,
            start,
            &adj,
            &edges,
            &mut path,
            &mut cycles,
            &mut steps,
            &mut truncated,
        );
        if truncated || cycles.len() >= MAX_CYCLES {
            truncated |= cycles.len() >= MAX_CYCLES;
            break;
        }
    }

    Ok(DeadlockReport {
        cycles,
        nodes: node_count.len(),
        edges: edge_count,
        truncated,
    })
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    start: Resource,
    at: Resource,
    adj: &BTreeMap<Resource, Vec<Resource>>,
    edges: &BTreeMap<(Resource, Resource), Vec<EdgeWitness>>,
    path: &mut Vec<Resource>,
    cycles: &mut Vec<Cycle>,
    steps: &mut usize,
    truncated: &mut bool,
) {
    *steps += 1;
    if *steps > MAX_DFS_STEPS {
        *truncated = true;
        return;
    }
    let Some(nexts) = adj.get(&at) else { return };
    for &next in nexts {
        if *truncated || cycles.len() >= MAX_CYCLES {
            return;
        }
        if next == start {
            if let Some(cycle) = validate(path, edges) {
                cycles.push(cycle);
            }
            continue;
        }
        // Rotation dedup: only cycles whose minimum node is `start`.
        if next < start || path.contains(&next) || path.len() >= MAX_CYCLE_LEN {
            continue;
        }
        path.push(next);
        dfs(start, next, adj, edges, path, cycles, steps, truncated);
        path.pop();
    }
}

/// Choose one witness per edge of the candidate cycle such that ranks
/// are pairwise distinct and holdsets pairwise disjoint (gate-lock
/// filter). Returns the assembled cycle, or `None` if no assignment
/// exists (the cycle cannot actually deadlock).
fn validate(
    path: &[Resource],
    edges: &BTreeMap<(Resource, Resource), Vec<EdgeWitness>>,
) -> Option<Cycle> {
    let n = path.len();
    let mut chosen: Vec<EdgeWitness> = Vec::with_capacity(n);
    fn pick(
        i: usize,
        n: usize,
        path: &[Resource],
        edges: &BTreeMap<(Resource, Resource), Vec<EdgeWitness>>,
        chosen: &mut Vec<EdgeWitness>,
    ) -> bool {
        if i == n {
            return true;
        }
        let key = (path[i], path[(i + 1) % n]);
        let Some(ws) = edges.get(&key) else { return false };
        for w in ws {
            let ok = chosen.iter().all(|c| {
                c.rank != w.rank && c.holdset.iter().all(|h| !w.holdset.contains(h))
            });
            if !ok {
                continue;
            }
            chosen.push(w.clone());
            if pick(i + 1, n, path, edges, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
    if !pick(0, n, path, edges, &mut chosen) {
        return None;
    }
    let mut ranks: Vec<u32> = chosen.iter().map(|w| w.rank).collect();
    ranks.sort_unstable();
    Some(Cycle { nodes: path.to_vec(), witnesses: chosen, ranks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{acq_on as acq, rel_on as rel, trace_of};

    #[test]
    fn two_rank_lock_order_cycle() {
        // Rank 0 nests A then B; rank 1 nests B then A.
        let t = trace_of(vec![
            vec![(1, acq(0, 1)), (2, acq(1, 1)), (3, rel(1, 1)), (4, rel(0, 1))],
            vec![(5, acq(1, 2)), (6, acq(0, 2)), (7, rel(0, 2)), (8, rel(1, 2))],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.cycles.len(), 1, "{r}");
        let c = &r.cycles[0];
        assert_eq!(c.nodes.len(), 2);
        assert_eq!(c.ranks, vec![0, 1]);
        assert_eq!(
            c.nodes,
            vec![Resource::Lock((0, 0, 0)), Resource::Lock((0, 0, 1))]
        );
        // Edge witnesses carry the exact trace events.
        assert_eq!(c.witnesses[0].rank, 0);
        assert_eq!((c.witnesses[0].held_ev, c.witnesses[0].req_ev), (0, 1));
        assert_eq!(c.witnesses[1].rank, 1);
        assert_eq!((c.witnesses[1].held_ev, c.witnesses[1].req_ev), (0, 1));
        assert_eq!(c.witnesses[0].holdset, vec![(0, 0, 0)]);
    }

    #[test]
    fn consistent_nesting_is_clean() {
        // Both ranks nest A then B — a total order, no cycle.
        let t = trace_of(vec![
            vec![(1, acq(0, 1)), (2, acq(1, 1)), (3, rel(1, 1)), (4, rel(0, 1))],
            vec![(5, acq(0, 2)), (6, acq(1, 2)), (7, rel(1, 2)), (8, rel(0, 2))],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn three_rank_lock_order_cycle() {
        // A→B on rank 0, B→C on rank 1, C→A on rank 2.
        let t = trace_of(vec![
            vec![(1, acq(0, 1)), (2, acq(1, 1)), (3, rel(1, 1)), (4, rel(0, 1))],
            vec![(5, acq(1, 2)), (6, acq(2, 1)), (7, rel(2, 1)), (8, rel(1, 2))],
            vec![(9, acq(2, 2)), (10, acq(0, 2)), (11, rel(0, 2)), (12, rel(2, 2))],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert_eq!(r.cycles.len(), 1, "{r}");
        let c = &r.cycles[0];
        assert_eq!(c.nodes.len(), 3);
        assert_eq!(c.ranks, vec![0, 1, 2]);
        assert_eq!(
            c.nodes,
            vec![
                Resource::Lock((0, 0, 0)),
                Resource::Lock((0, 0, 1)),
                Resource::Lock((0, 0, 2)),
            ]
        );
    }

    #[test]
    fn gate_lock_suppresses_cycle() {
        // Both inversions happen under a common gate lock G (idx 9):
        // the schedules serialize, no deadlock is possible.
        let t = trace_of(vec![
            vec![
                (1, acq(9, 1)),
                (2, acq(0, 1)),
                (3, acq(1, 1)),
                (4, rel(1, 1)),
                (5, rel(0, 1)),
                (6, rel(9, 1)),
            ],
            vec![
                (7, acq(9, 2)),
                (8, acq(1, 2)),
                (9, acq(0, 2)),
                (10, rel(0, 2)),
                (11, rel(1, 2)),
                (12, rel(9, 2)),
            ],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert!(r.cycles.is_empty(), "{r}");
    }

    #[test]
    fn single_rank_inversion_is_not_a_deadlock() {
        // One rank nests A→B and later B→A: its operations are totally
        // ordered, so no schedule deadlocks.
        let t = trace_of(vec![vec![
            (1, acq(0, 1)),
            (2, acq(1, 1)),
            (3, rel(1, 1)),
            (4, rel(0, 1)),
            (5, acq(1, 2)),
            (6, acq(0, 2)),
            (7, rel(0, 2)),
            (8, rel(1, 2)),
        ]]);
        let r = check_deadlocks(&t).unwrap();
        assert!(r.cycles.is_empty(), "{r}");
    }

    #[test]
    fn lock_held_across_barrier_cycles_with_waiting_acquirer() {
        // Rank 0 waits at barrier 0 while holding L; rank 1 acquires L
        // on its way to the same barrier: Lock(L) → Barrier(0) → Lock(L).
        let t = trace_of(vec![
            vec![
                (1, acq(0, 1)),
                (2, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
                (3, rel(0, 1)),
            ],
            vec![
                (4, acq(0, 2)),
                (5, rel(0, 2)),
                (6, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
            ],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert_eq!(r.cycles.len(), 1, "{r}");
        let c = &r.cycles[0];
        assert_eq!(c.nodes.len(), 2);
        assert!(c.nodes.contains(&Resource::Barrier(0)));
        assert!(c.nodes.contains(&Resource::Lock((0, 0, 0))));
        assert_eq!(c.ranks, vec![0, 1]);
    }

    #[test]
    fn barrier_without_held_lock_is_clean() {
        let t = trace_of(vec![
            vec![
                (1, acq(0, 1)),
                (2, rel(0, 1)),
                (3, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
            ],
            vec![
                (4, acq(0, 2)),
                (5, rel(0, 2)),
                (6, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
            ],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn lock_held_across_td_up_wave_cycles() {
        let up = |wave| TraceEvent::TdWave { wave, dir: WaveDir::Up, black: false };
        let t = trace_of(vec![
            vec![(1, acq(0, 1)), (2, up(1)), (3, rel(0, 1))],
            vec![(4, acq(0, 2)), (5, rel(0, 2)), (6, up(1))],
        ]);
        let r = check_deadlocks(&t).unwrap();
        assert_eq!(r.cycles.len(), 1, "{r}");
        assert!(r.cycles[0].nodes.contains(&Resource::TdUp(1, 1)));
    }

    #[test]
    fn dropped_events_are_an_error() {
        let mut t = trace_of(vec![vec![(1, acq(0, 1))]]);
        t.dropped[0] = 1;
        assert!(check_deadlocks(&t).unwrap_err().contains("dropped"));
    }
}
