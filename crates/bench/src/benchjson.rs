//! Machine-readable benchmark output: the `scioto-bench-v1` JSON schema,
//! its writer, validator, and parser.
//!
//! Every figure subcommand accepts `--json-out <path>` and writes one document:
//!
//! ```json
//! {
//! "schema":"scioto-bench-v1",
//! "name":"table1",
//! "generated_wall_ns":1754500000000000000,"vm_hwm_kb":14336,
//! "params":{"chunk":"10","ranks":"2"},
//! "metrics":{"cluster_local_insert_ns":495.000000}
//! }
//! ```
//!
//! Layout rules that downstream tools rely on:
//!
//! * `params` keys and `metrics` keys are emitted in sorted order;
//! * metric values use fixed six-decimal formatting;
//! * the host-dependent members — `generated_wall_ns` and, in documents
//!   `scioto` writes on Linux, the process's peak resident set
//!   `vm_hwm_kb` (which `verify.sh` budgets at the 1024/2048-rank pins) —
//!   share one line of their own, so same-seed determinism checks
//!   compare documents with that single line dropped (see
//!   [`strip_wall_clock`]).
//!
//! `bench_diff` compares two documents with [`parse`] and flags metric
//! drift beyond configurable tolerances.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::front::{write_file, Outcome};
use crate::Args;

/// Schema tag written into every bench JSON document.
pub const BENCH_SCHEMA: &str = "scioto-bench-v1";

/// One benchmark result: a name, the parameters that shaped the run, and
/// the measured metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchOut {
    /// Benchmark name (`table1`, `fig7_uts_cluster`, ...).
    pub name: String,
    /// Run parameters as strings (rank caps, tree presets, ...).
    pub params: BTreeMap<String, String>,
    /// Measured values. Virtual-time metrics are deterministic for a
    /// given seed; the diff tool's tolerances exist for intentional
    /// code changes, not run-to-run noise.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchOut {
    /// Start a result document for the benchmark `name`.
    pub fn new(name: &str) -> BenchOut {
        BenchOut {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Record a run parameter.
    pub fn param(&mut self, key: &str, value: impl std::fmt::Display) {
        self.params.insert(key.to_string(), value.to_string());
    }

    /// Record a metric.
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Render the versioned JSON document. `wall_ns` is the wall-clock
    /// stamp (the single nondeterministic field).
    pub fn to_json(&self, wall_ns: u64) -> String {
        self.render(wall_ns, None)
    }

    fn render(&self, wall_ns: u64, vm_hwm_kb: Option<u64>) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n\"schema\":\"{BENCH_SCHEMA}\",\n\"name\":\"{}\",\n\"generated_wall_ns\":{wall_ns},",
            self.name
        );
        if let Some(kb) = vm_hwm_kb {
            let _ = write!(out, "\"vm_hwm_kb\":{kb},");
        }
        out.push_str("\n\"params\":{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":\"{v}\"", if i == 0 { "" } else { "," });
        }
        out.push_str("},\n\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v:.6}", if i == 0 { "" } else { "," });
        }
        out.push_str("}\n}\n");
        out
    }

    /// Write the document to the `--json-out` path when the flag is
    /// present; no-op otherwise. An unwritable path is exit 2 naming it,
    /// like every other artifact flag.
    #[allow(clippy::disallowed_types)] // the generation stamp is wall time
    pub fn write_if_requested(&self, args: &Args) -> Outcome {
        let Some(path) = args.get_opt("json-out") else {
            return Ok(());
        };
        let wall_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let body = self.render(wall_ns, vm_hwm_kb());
        validate(&body).expect("generated bench JSON must satisfy its own schema");
        write_file(&path, &body, &format!("bench json: {} metric(s)", self.metrics.len()))
    }
}

/// Peak resident set of this process so far, in kB (`VmHWM` of
/// `/proc/self/status`; `None` where there is no such file). Read as the
/// document is written, i.e. as the process exits.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Drop the `generated_wall_ns` line — the document's only
/// host-dependent content — for byte-identical same-seed comparison.
pub fn strip_wall_clock(body: &str) -> String {
    body.lines()
        .filter(|l| !l.starts_with("\"generated_wall_ns\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Validate that `body` is well-formed JSON carrying the
/// `scioto-bench-v1` shape (schema tag, name, params, metrics).
pub fn validate(body: &str) -> Result<(), String> {
    scioto_sim::validate_json(body).map_err(|e| format!("not valid JSON: {e}"))?;
    for needle in [
        &format!("\"schema\":\"{BENCH_SCHEMA}\"") as &str,
        "\"name\":",
        "\"generated_wall_ns\":",
        "\"params\":{",
        "\"metrics\":{",
    ] {
        if !body.contains(needle) {
            return Err(format!("missing required member {needle}"));
        }
    }
    Ok(())
}

/// Parse a `scioto-bench-v1` document back into a [`BenchOut`].
/// Accepts exactly the canonical layout [`BenchOut::to_json`] emits.
pub fn parse(body: &str) -> Result<BenchOut, String> {
    validate(body)?;
    let mut out = BenchOut {
        name: extract_string(body, "\"name\":\"").ok_or("cannot read name")?,
        ..Default::default()
    };
    let params = extract_object(body, "\"params\":{").ok_or("cannot read params")?;
    for (k, v) in split_members(&params) {
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("param {k} is not a string"))?;
        out.params.insert(k, v.to_string());
    }
    let metrics = extract_object(body, "\"metrics\":{").ok_or("cannot read metrics")?;
    for (k, v) in split_members(&metrics) {
        let v: f64 = v.parse().map_err(|_| format!("metric {k} is not a number: {v}"))?;
        out.metrics.insert(k, v);
    }
    Ok(out)
}

fn extract_string(body: &str, prefix: &str) -> Option<String> {
    let rest = &body[body.find(prefix)? + prefix.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_object(body: &str, prefix: &str) -> Option<String> {
    let rest = &body[body.find(prefix)? + prefix.len()..];
    Some(rest[..rest.find('}')?].to_string())
}

/// Split a canonical flat object body (`"k":v,"k2":v2`) into pairs.
/// Values never contain commas or colons in this schema.
fn split_members(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for member in body.split(',') {
        if member.is_empty() {
            continue;
        }
        if let Some((k, v)) = member.split_once(':') {
            let k = k.trim_matches('"');
            out.push((k.to_string(), v.to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchOut {
        let mut b = BenchOut::new("table1");
        b.param("ranks", 2);
        b.param("chunk", 10);
        b.metric("cluster_local_insert_ns", 495.25);
        b.metric("xt4_remote_steal_ns", 32384.0);
        b
    }

    #[test]
    fn json_is_valid_and_round_trips() {
        let b = sample();
        let json = b.to_json(12345);
        validate(&json).unwrap();
        assert!(json.contains("\"generated_wall_ns\":12345,"));
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn keys_are_sorted_and_floats_canonical() {
        let json = sample().to_json(0);
        let ci = json.find("cluster_local_insert_ns").unwrap();
        let xr = json.find("xt4_remote_steal_ns").unwrap();
        assert!(ci < xr);
        let chunk = json.find("\"chunk\"").unwrap();
        let ranks = json.find("\"ranks\"").unwrap();
        assert!(chunk < ranks);
        assert!(json.contains("\"cluster_local_insert_ns\":495.250000"));
    }

    #[test]
    fn wall_clock_strips_to_identical_documents() {
        let a = sample().to_json(1);
        let b = sample().to_json(999_999_999);
        assert_ne!(a, b);
        assert_eq!(strip_wall_clock(&a), strip_wall_clock(&b));
        assert!(!strip_wall_clock(&a).contains("generated_wall_ns"));
        // The peak-RSS stamp `scioto` adds rides on the same line.
        let c = sample().render(5, Some(14_336));
        assert!(c.contains("\n\"generated_wall_ns\":5,\"vm_hwm_kb\":14336,\n"));
        assert_eq!(parse(&c).unwrap(), sample());
        assert_eq!(strip_wall_clock(&a), strip_wall_clock(&c));
    }

    #[test]
    fn validate_rejects_wrong_shape() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        let mut json = sample().to_json(0);
        json = json.replace(BENCH_SCHEMA, "scioto-bench-v0");
        assert!(validate(&json).is_err());
    }
}
