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
//!   "predict": null | { "events", "lock_edges", "dropped_edges",
//!                       "protocol_words", "predicted": [PredictedRace...],
//!                       "atomicity": [AtomicityViolation...] },
//!   "deadlock": null | { "nodes", "edges", "truncated",
//!                        "cycles": [Cycle...] }
//! }
//! ```
//!
//! `predict`/`deadlock` are `null` when that analysis was not requested,
//! distinguishing "not run" from "ran clean" (empty arrays).

use std::fmt::Write as _;

use crate::deadlock::{DeadlockReport, EdgeWitness, Resource};
use crate::hb::{AccessInfo, RaceReport};
use crate::predict::PredictReport;

/// Schema identifier stamped on every report.
pub const SCHEMA: &str = "scioto-race-v1";

/// Render one trace's combined analysis as a `scioto-race-v1` JSON
/// object (single line, no trailing newline).
pub fn render(
    trace_label: &str,
    ranks: usize,
    hb: &RaceReport,
    predict: Option<&PredictReport>,
    deadlock: Option<&DeadlockReport>,
) -> String {
    let clean = hb.is_clean()
        && predict.is_none_or(|p| p.is_clean())
        && deadlock.is_none_or(|d| d.is_clean());
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
    for (i, r) in hb.races.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"owner\":{},\"seg\":{},\"word\":{},\"word_hi\":{},\"word_count\":{},",
            r.owner, r.seg, r.word, r.word_hi, r.word_count
        );
        o.push_str("\"first\":");
        access(&mut o, &r.first);
        o.push_str(",\"second\":");
        access(&mut o, &r.second);
        o.push('}');
    }
    o.push_str("]},");

    // Predictive section.
    match predict {
        None => o.push_str("\"predict\":null,"),
        Some(p) => {
            let _ = write!(
                o,
                "\"predict\":{{\"events\":{},\"lock_edges\":{},\"dropped_edges\":{},\
                 \"protocol_words\":{},\"predicted\":[",
                p.events, p.lock_edges, p.dropped_edges, p.protocol_words
            );
            for (i, r) in p.predicted.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let (lt, ls, li) = r.lock;
                let _ = write!(
                    o,
                    "{{\"owner\":{},\"seg\":{},\"word\":{},\"word_hi\":{},\"word_count\":{},\
                     \"lock\":{{\"target\":{lt},\"set\":{ls},\"idx\":{li}}},\"gen\":{},\
                     \"witness\":\"{}\",",
                    r.owner,
                    r.seg,
                    r.word,
                    r.word_hi,
                    r.word_count,
                    r.gen,
                    escape(&r.witness)
                );
                o.push_str("\"first\":");
                access(&mut o, &r.first);
                o.push_str(",\"second\":");
                access(&mut o, &r.second);
                o.push('}');
            }
            o.push_str("],\"atomicity\":[");
            for (i, v) in p.atomicity.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(
                    o,
                    "{{\"owner\":{},\"seg\":{},\"word\":{},\"writers\":{:?},\"detail\":\"{}\"}}",
                    v.owner,
                    v.seg,
                    v.word,
                    v.writers,
                    escape(&v.detail)
                );
            }
            o.push_str("]},");
        }
    }

    // Deadlock section.
    match deadlock {
        None => o.push_str("\"deadlock\":null"),
        Some(d) => {
            let _ = write!(
                o,
                "\"deadlock\":{{\"nodes\":{},\"edges\":{},\"truncated\":{},\"cycles\":[",
                d.nodes, d.edges, d.truncated
            );
            for (i, c) in d.cycles.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"ranks\":{:?},\"nodes\":[", c.ranks);
                for (j, n) in c.nodes.iter().enumerate() {
                    if j > 0 {
                        o.push(',');
                    }
                    resource(&mut o, n);
                }
                o.push_str("],\"edges\":[");
                for (j, w) in c.witnesses.iter().enumerate() {
                    if j > 0 {
                        o.push(',');
                    }
                    witness(&mut o, w);
                }
                o.push_str("]}");
            }
            o.push_str("]}");
        }
    }
    o.push('}');
    o
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
    for (i, (t, s, idx)) in w.holdset.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{{\"target\":{t},\"set\":{s},\"idx\":{idx}}}");
    }
    o.push_str("]}");
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
        let json = render("unit", 1, &hb, Some(&p), Some(&d));
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
    fn skipped_analyses_render_null_not_empty() {
        let t = trace_of(vec![vec![]]);
        let hb = check_trace(&t).unwrap();
        let json = render("unit", 1, &hb, None, None);
        assert!(json.contains("\"predict\":null"), "{json}");
        assert!(json.contains("\"deadlock\":null"), "{json}");
        assert!(json.contains("\"clean\":true"), "{json}");
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
        let json = render("unit", 2, &hb, None, None);
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"word_count\":1"), "{json}");
        assert!(json.contains("\"op\":\"local write\""), "{json}");
        assert!(json.contains("\"op\":\"put\""), "{json}");
    }

    #[test]
    fn labels_are_escaped() {
        let t = trace_of(vec![vec![]]);
        let hb = check_trace(&t).unwrap();
        let json = render("we\"ird\npath", 1, &hb, None, None);
        assert!(json.contains("we\\\"ird\\npath"), "{json}");
    }
}
