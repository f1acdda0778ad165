//! Canonical machine-readable race/deadlock report: `scioto-race-v1`.
//!
//! One JSON object per analyzed trace, hand-rolled (no serde — the repo
//! is dependency-free) with deterministic member order so reports for
//! identical traces are byte-identical. The schema:
//!
//! ```text
//! {
//!   "schema": "scioto-race-v1",
//!   "trace": "<label>",
//!   "ranks": <n>,
//!   "clean": <bool>,                      // no findings anywhere below
//!   "hb": { "events", "sync_edges", "words", "races": [Race...] },
//!   "predict": { "events", "lock_edges", "dropped_edges",
//!                "protocol_words", "predicted": [PredictedRace...],
//!                "atomicity": [AtomicityViolation...] },
//!   "deadlock": { "nodes", "edges", "truncated", "cycles": [Cycle...] }
//! }
//! ```
//!
//! Every report carries all three analyses; a clean one has empty arrays.

use std::fmt::Write as _;

use scioto_analyze::report::escape;

use crate::deadlock::{DeadlockReport, EdgeWitness, Resource};
use crate::hb::{AccessInfo, Race, RaceReport};
use crate::predict::PredictReport;

/// Schema identifier stamped on every report.
const SCHEMA: &str = "scioto-race-v1";

/// Render one trace's combined analysis as a `scioto-race-v1` JSON
/// object (single line, no trailing newline).
pub fn render(
    trace_label: &str,
    ranks: usize,
    hb: &RaceReport,
    p: &PredictReport,
    d: &DeadlockReport,
) -> String {
    let clean = hb.is_clean() && p.is_clean() && d.is_clean();
    let mut o = String::with_capacity(512);
    o.push('{');
    let _ = write!(o, "\"schema\":\"{SCHEMA}\",");
    let _ = write!(o, "\"trace\":\"{}\",", escape(trace_label));
    let _ = write!(o, "\"ranks\":{ranks},");
    let _ = write!(o, "\"clean\":{clean},");

    // Happens-before section.
    let _ = write!(
        o,
        "\"hb\":{{\"events\":{},\"sync_edges\":{},\"words\":{},\"races\":[",
        hb.events, hb.sync_edges, hb.words
    );
    list(&mut o, &hb.races, |o, r| race(o, r, ""));
    o.push_str("]},");

    // Predictive section.
    let _ = write!(
        o,
        "\"predict\":{{\"events\":{},\"lock_edges\":{},\"dropped_edges\":{},\
         \"protocol_words\":{},\"predicted\":[",
        p.events, p.lock_edges, p.dropped_edges, p.protocol_words
    );
    list(&mut o, &p.predicted, |o, r| {
        let (lt, ls, li) = r.lock;
        let masked = format!(
            "\"lock\":{{\"target\":{lt},\"set\":{ls},\"idx\":{li}}},\"gen\":{},\"witness\":\"{}\",",
            r.gen,
            escape(&r.witness)
        );
        race(o, &r.race, &masked);
    });
    o.push_str("],\"atomicity\":[");
    list(&mut o, &p.atomicity, |o, v| {
        let _ = write!(
            o,
            "{{\"owner\":{},\"seg\":{},\"word\":{},\"writers\":{:?},\"detail\":\"{}\"}}",
            v.owner,
            v.seg,
            v.word,
            v.writers,
            escape(&v.detail)
        );
    });
    o.push_str("]},");

    // Deadlock section.
    let _ = write!(
        o,
        "\"deadlock\":{{\"nodes\":{},\"edges\":{},\"truncated\":{},\"cycles\":[",
        d.nodes, d.edges, d.truncated
    );
    list(&mut o, &d.cycles, |o, c| {
        let _ = write!(o, "{{\"ranks\":{:?},\"nodes\":[", c.ranks);
        list(o, &c.nodes, resource);
        o.push_str("],\"edges\":[");
        list(o, &c.witnesses, witness);
        o.push_str("]}");
    });
    o.push_str("]}");
    o.push('}');
    o
}

/// `items` one after another, comma-separated, each written by `item`.
fn list<T>(o: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        item(o, x);
    }
}

/// One race object: its words, then the `extra` members (each followed by
/// a comma), then the access pair.
fn race(o: &mut String, r: &Race, extra: &str) {
    let _ = write!(
        o,
        "{{\"owner\":{},\"seg\":{},\"word\":{},\"word_hi\":{},\"word_count\":{},{extra}",
        r.owner, r.seg, r.word, r.word_hi, r.word_count
    );
    o.push_str("\"first\":");
    access(o, &r.first);
    o.push_str(",\"second\":");
    access(o, &r.second);
    o.push('}');
}

fn access(o: &mut String, a: &AccessInfo) {
    let _ = write!(
        o,
        "{{\"rank\":{},\"t_ns\":{},\"clock\":{},\"op\":\"{}\",\"write\":{},\"atomic\":{},",
        a.rank,
        a.t_ns,
        a.clock,
        escape(&a.op),
        a.write,
        a.atomic
    );
    match &a.nearest_sync {
        Some((t, s)) => {
            let _ = write!(o, "\"sync\":{{\"t_ns\":{t},\"desc\":\"{}\"}}}}", escape(s));
        }
        None => o.push_str("\"sync\":null}"),
    }
}

fn resource(o: &mut String, r: &Resource) {
    match r {
        Resource::Lock((t, s, i)) => {
            let _ = write!(o, "{{\"kind\":\"lock\",\"target\":{t},\"set\":{s},\"idx\":{i}}}");
        }
        Resource::Barrier(e) => {
            let _ = write!(o, "{{\"kind\":\"barrier\",\"epoch\":{e}}}");
        }
        Resource::TdUp(w, occ) => {
            let _ = write!(o, "{{\"kind\":\"td_up\",\"wave\":{w},\"occurrence\":{occ}}}");
        }
    }
}

fn witness(o: &mut String, w: &EdgeWitness) {
    let _ = write!(
        o,
        "{{\"rank\":{},\"held_ev\":{},\"held_t_ns\":{},\"req_ev\":{},\"req_t_ns\":{},\
         \"holdset\":[",
        w.rank, w.held_ev, w.held_t_ns, w.req_ev, w.req_t_ns
    );
    list(o, &w.holdset, |o, (t, s, idx)| {
        let _ = write!(o, "{{\"target\":{t},\"set\":{s},\"idx\":{idx}}}");
    });
    o.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::check_trace;
    use crate::{check_deadlocks, predict};
    use crate::fixtures::trace_of;
    use scioto_sim::TraceEvent;

    #[test]
    fn clean_trace_renders_clean_report() {
        let t = trace_of(vec![vec![(
            1,
            TraceEvent::LocalAccess { seg: 0, offset: 0, bytes: 8, write: true, atomic: false },
        )]]);
        let hb = check_trace(&t).unwrap();
        let p = predict(&t).unwrap();
        let d = check_deadlocks(&t).unwrap();
        let json = render("unit", 1, &hb, &p, &d);
        assert!(json.starts_with("{\"schema\":\"scioto-race-v1\","));
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"races\":[]"), "{json}");
        assert!(json.contains("\"predicted\":[]"), "{json}");
        assert!(json.contains("\"cycles\":[]"), "{json}");
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn findings_flip_clean_and_carry_structure() {
        // Unordered write/write on word 0 → one hb race.
        let t = trace_of(vec![
            vec![(
                1,
                TraceEvent::LocalAccess {
                    seg: 0,
                    offset: 0,
                    bytes: 8,
                    write: true,
                    atomic: false,
                },
            )],
            vec![(
                2,
                TraceEvent::RemoteOp {
                    kind: scioto_sim::RemoteOpKind::Put,
                    target: 0,
                    seg: 0,
                    offset: 0,
                    bytes: 8,
                    atomic: false,
                },
            )],
        ]);
        let hb = check_trace(&t).unwrap();
        assert_eq!(hb.races.len(), 1);
        let (p, d) = (predict(&t).unwrap(), check_deadlocks(&t).unwrap());
        let json = render("unit", 2, &hb, &p, &d);
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"word_count\":1"), "{json}");
        assert!(json.contains("\"op\":\"local write\""), "{json}");
        assert!(json.contains("\"op\":\"put\""), "{json}");
    }

    #[test]
    fn labels_are_escaped() {
        let t = trace_of(vec![vec![]]);
        let hb = check_trace(&t).unwrap();
        let (p, d) = (predict(&t).unwrap(), check_deadlocks(&t).unwrap());
        let json = render("we\"ird\npath", 1, &hb, &p, &d);
        assert!(json.contains("we\\\"ird\\npath"), "{json}");
    }
}
