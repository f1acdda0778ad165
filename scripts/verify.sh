#!/usr/bin/env sh
# Tier-1 verification, fully offline — proves the hermetic-build claim:
# a clean checkout builds and tests with no registry access, and the
# dependency graph contains nothing but workspace crates.
#
# Usage: verify.sh [--bless]
#   --bless  regenerate every pinned output (results/baselines/ and
#            results/trace_summary.txt) from this tree's runs instead of
#            comparing against it (commit the refreshed files).
set -eu

cd "$(dirname "$0")/.."

BLESS=0
for arg in "$@"; do
    case "$arg" in
        --bless) BLESS=1 ;;
        *) echo "usage: verify.sh [--bless]" >&2; exit 2 ;;
    esac
done

# Fresh bench results land in one directory and are compared against
# their same-named committed baselines by ONE `bench_diff --all` at
# rel-tol 0: virtual-time results are deterministic, so a baseline only
# moves when the code does — and then `--bless` says so in the diff.
work=$(mktemp -d "${TMPDIR:-/tmp}/scioto-verify.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bench"

# stage <title>: print the stage header and time the stage; the per-stage
# wall-time table is printed at the end (milliseconds where `date` has
# %N, whole seconds elsewhere).
now_ms() {
    t=$(date +%s%N)
    case "$t" in
        *N) echo "$(date +%s)000" ;;
        *) echo "${t%??????}" ;;
    esac
}
stage_name=""
stage_t0=0
stage() {
    t=$(now_ms)
    if [ -n "$stage_name" ]; then
        printf '%s %s\n' "$((t - stage_t0))" "$stage_name" >> "$work/stages.txt"
    fi
    stage_name=$1
    stage_t0=$t
    if [ -n "$1" ]; then
        echo "== $1 =="
    fi
}
# scioto <subcommand> [flags...]: the one tool executable, as the build
# stage below links it.
scioto() { target/release/scioto "$@"; }

# budget <seconds> <stage>: hold the wall time since $t0 (set with
# `t0=$(now_ms)` where the budgeted work starts) to its budget; prints one
# line, `ok|FAIL: <stage> <reading> s (budget <seconds> s)`, and fails
# the run over budget.
budget() {
    spent=$(($(now_ms) - t0))
    line="$2 $(awk -v ms="$spent" 'BEGIN { printf "%.1f", ms / 1000 }') s (budget $1 s)"
    if [ "$spent" -ge $(($1 * 1000)) ]; then
        echo "FAIL: $line" >&2
        exit 1
    fi
    echo "ok: $line"
}

# pin <fresh> <committed>: a reproduced output must equal its committed
# copy byte for byte; a mismatch prints the diff and fails naming the
# committed file. Under --bless the fresh file replaces the committed one.
pin() {
    if [ "$BLESS" = 1 ]; then
        cp "$1" "$2"
        echo "blessed $2"
    elif cmp -s "$2" "$1"; then
        echo "ok: $2 matches"
    else
        echo "FAIL: $2 differs from this tree's output:" >&2
        diff "$2" "$1" >&2 || true
        exit 1
    fi
}

# bounded <seconds> <what> <command...>: run the command under `timeout`
# so a hang fails the run instead of stalling it. The expiry message goes
# to fd 3 (this script's stderr), whatever the caller redirected; any
# other exit status is returned to the caller.
exec 3>&2
bounded() {
    limit=$1
    what=$2
    shift 2
    rc=0
    timeout -k 10 "$limit" "$@" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "FAIL: $what still running after $limit s (hang?)" >&3
        exit 1
    fi
    return "$rc"
}

stage "cargo tree: auditing for external dependencies"
# Every node in the default-feature dependency graph must be a local
# workspace crate. `cargo tree` prints local path deps with a trailing
# "(/abs/path)"; anything without one came from a registry.
tree_out=$(cargo tree --workspace --edges normal,build,dev --offline)
external=$(printf '%s\n' "$tree_out" \
    | grep -Eo '[a-zA-Z0-9_-]+ v[0-9][^ ]*( \(.*\))?$' \
    | grep -v '(/' || true)
if [ -n "$external" ]; then
    echo "FAIL: non-workspace dependencies found:" >&2
    printf '%s\n' "$external" | sort -u >&2
    exit 1
fi
echo "ok: dependency graph is workspace-only"

stage "cargo build --release --offline"
# The root manifest's default-members cover every crate, so this links
# the one executable, `scioto`.
cargo build --release --offline

stage "cargo clippy --workspace --all-targets --offline -- -D warnings"
# Every clippy lint fails the run, its warn-level style lints included,
# in unit tests, integration tests and benches as well as the libraries:
# the workspace is clippy-clean and stays so.
t0=$(now_ms)
cargo clippy --workspace --all-targets --offline -- -D warnings 2> "$work/clippy.txt" \
    || { cat "$work/clippy.txt" >&2; echo "FAIL: cargo clippy reported warnings or errors" >&2; exit 1; }
echo "ok: clippy reported nothing in" \
    "$(awk -v ms="$(($(now_ms) - t0))" 'BEGIN { printf "%.1f", ms / 1000 }')s"

stage "cargo doc --workspace --no-deps --lib --offline (RUSTDOCFLAGS=-D warnings)"
# Every rustdoc warning fails the run: a broken, private or ambiguous
# intra-doc link names an item the reader cannot reach. `--lib` keeps
# the `scioto` executable's docs from colliding with the `scioto`
# library's in target/doc.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline 2> "$work/doc.txt" \
    || { cat "$work/doc.txt" >&2; echo "FAIL: cargo doc reported warnings or errors" >&2; exit 1; }
echo "ok: rustdoc reported nothing"

stage "cargo test -q --offline (tier-1)"
# The whole workspace, by the same default-members. The test executables
# are built first so the budget times the run alone: 16 s measured on a
# 2-core x86_64 host, budget 50 s.
cargo test -q --offline --no-run
t0=$(now_ms)
bounded 50 "tier-1 cargo test" cargo test -q --offline
budget 50 "tier-1 cargo test"

stage "real-thread stress: queue owner/thieves + word store + TD storm, 64 seeds; run frontier and run map oracles (release)"
# The `#[ignore]`d `stress_*` tests: the split queue's never-lose /
# never-duplicate property with seven real thieves, the three store
# properties the lock-free owner path rests on (ragged byte puts merge,
# accumulate vs fetch-and-add, dirty marks vs the owner's swap), and no
# premature termination under an eight-thread steal storm, each on 64
# seeds; the race checkers' run frontier against the per-word one,
# hit for hit, on twenty times the tier-1 corpora (one thread per core);
# and the word-run map (`scioto_det::runs`) against a per-word map on
# fifteen times its tier-1 seeds (0.5 s).
# Built and listed first, then each test runs as its own invocation of its
# test executable so the per-test seconds are printed and the budget times
# the runs alone: 19-20 s measured before the oracle, of which the queue
# test (its locked kind most of it) is 18 s, the storm 0.2 s and the three
# store tests 0.4-0.6 s each; the oracle adds 1.5-1.7 s on 2 cores (24 s
# in all with the queue test at 20 s). Budget 30 s for the
# runs; the slowest test is named either way. Each invocation also runs
# under a 50 s hang budget, about 3x the slowest test (17 s measured on a
# 2-core x86_64 host).
cargo test --offline --release -p scioto -p scioto-armci -p scioto-race -p scioto-det --tests --no-run 2> "$work/stress_build.txt" \
    || { cat "$work/stress_build.txt" >&2; exit 1; }
for exe in $(sed -n 's/^ *Executable .*(\(.*\))$/\1/p' "$work/stress_build.txt"); do
    "$exe" --ignored --list 2>/dev/null | sed -n "s|^\\(.*stress_[A-Za-z0-9_]*\\): test\$|$exe \\1|p"
done > "$work/stress_tests.txt"
if [ ! -s "$work/stress_tests.txt" ]; then
    echo "FAIL: no stress_ test found in the scioto / scioto-armci / scioto-race / scioto-det test executables" >&2
    exit 1
fi
slowest_ms=-1
t0=$(now_ms)
while read -r exe t; do
    t_start=$(now_ms)
    bounded 50 "real-thread stress test $t" \
        "$exe" --ignored --exact -q "$t" > "$work/stress_test.txt" 2>&1 < /dev/null \
        || { cat "$work/stress_test.txt" >&2; echo "FAIL: real-thread stress test $t" >&2; exit 1; }
    ms=$(($(now_ms) - t_start))
    awk -v ms="$ms" -v t="$t" 'BEGIN { printf "%8.1f s  %s\n", ms / 1000, t }'
    if [ "$ms" -gt "$slowest_ms" ]; then
        slowest=$t
        slowest_ms=$ms
    fi
done < "$work/stress_tests.txt"
echo "slowest: $slowest $(awk -v ms="$slowest_ms" 'BEGIN { printf "%.1f", ms / 1000 }') s"
budget 30 "real-thread stress"

stage "perf harness: the out-of-workspace benchmark's own tests"
# `perf/` is a package of its own (the acceptance driver's benchmark), so
# the workspace build and tests above never compile it: a root-crate API
# change that breaks it would otherwise surface only at the driver. Its
# suite includes the `--quick` smoke of all five workloads.
cargo test -q --offline --manifest-path perf/Cargo.toml

stage "clippy rules: a seeded package must trip every ban (hard gate)"
# The source rules clippy enforces live in `clippy.toml` (banned types, by
# path) and the root manifest's `[workspace.lints.clippy]`. A mistyped
# path disables its ban without a word, so a throwaway package holding one
# violation per rule is linted against the repo's `clippy.toml` at the
# workspace's clippy levels, and each violation must be reported.
seeded="$work/seeded"
mkdir -p "$seeded/src"
{
    printf '[package]\nname = "seeded-violations"\nversion = "0.0.0"\nedition = "2021"\n\n'
    printf '[workspace]\n\n[lints.clippy]\n'
    awk '/^\[/ { on = ($0 == "[workspace.lints.clippy]"); next } on && NF' Cargo.toml
} > "$seeded/Cargo.toml"
cat > "$seeded/src/lib.rs" <<'RUST'
use std::sync::RwLock as Lock;

pub fn banned() {
    let _ = None::<std::sync::Mutex<u8>>;
    let _ = None::<Lock<u8>>;
    let _ = None::<std::sync::Condvar>;
    let _ = None::<std::time::Instant>;
    let _ = None::<std::time::SystemTime>;
    let _ = None::<std::time::Duration>;
}

pub struct Shared(std::cell::UnsafeCell<u8>);

unsafe impl Sync for Shared {}

pub fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
RUST
CLIPPY_CONF_DIR="$PWD" cargo clippy --offline --quiet --manifest-path "$seeded/Cargo.toml" \
    --target-dir "$work/seeded-target" > "$work/seeded.txt" 2>&1 || true
missing=""
for want in "std::sync::Mutex" "std::sync::RwLock" "std::sync::Condvar" \
    "std::time::Instant" "std::time::SystemTime" "std::time::Duration"; do
    grep -qF "use of a disallowed type \`$want\`" "$work/seeded.txt" || missing="$missing $want"
done
for what in block impl; do
    grep -qF "unsafe $what missing a safety comment" "$work/seeded.txt" || missing="$missing unsafe-$what"
done
if [ -n "$missing" ]; then
    cat "$work/seeded.txt" >&2
    echo "FAIL: clippy did not report the seeded violation(s):$missing" >&2
    exit 1
fi
echo "ok: clippy reported all 8 seeded violations"

stage "analyze: traced table1 -> blame/critical-path report"
# One traced run emits the JSONL dump, the in-memory analysis, the check
# verdict (race, predictive and deadlock analyses plus the in-process
# replay self-check), and the machine-readable benchmark result.
scioto table1 \
    --trace-out "$work/table1.jsonl" \
    --analysis-out "$work/table1_analysis.json" \
    --check \
    --json-out "$work/bench/BENCH_table1.json" > /dev/null
# The offline analyzer re-parses the JSONL dump; its report must match
# the in-memory analysis byte for byte.
scioto analyze \
    --file "$work/table1.jsonl" \
    --json-out "$work/table1_analysis_offline.json" > /dev/null
cmp "$work/table1_analysis.json" "$work/table1_analysis_offline.json"
echo "ok: offline analyzer matches in-memory analysis"

stage "bench runs: fig7 / fig4 / ablation / fig8 / fig5-6"
# Every figure runs with `--check`: the traced run goes through the
# happens-before, predictive and deadlock analyses AND the replay engine
# in-process, so each is race- and replay-gated under the default policy
# (locality victims + tree barrier). Each also writes its
# BENCH json for the final `bench_diff`: fig5-6 sweeps SCF and TCE, both
# schemes, to 8 ranks (~0.7 s since the ranks of a run share their dense
# algebra and one ERI block store; ~2 s before) —
# the application figures' virtual-time pin, and the end-to-end check that
# an integral-kernel change kept every screening decision. Its traced run
# is gated on what it *saw*: the dump must hold the tasks' GA accumulates.
scioto fig7_uts_cluster \
    --max-ranks 8 --tree small --trace-out "$work/fig7.jsonl" \
    --analysis-out "$work/fig7_analysis.json" --check \
    --json-out "$work/bench/BENCH_fig7.json" > /dev/null
scioto fig4_termination --check \
    --json-out "$work/bench/BENCH_fig4.json" > /dev/null
scioto ablation --check \
    --json-out "$work/bench/BENCH_ablation.json" > /dev/null
scioto fig8_uts_xt4 \
    --max-ranks 8 --tree small --check \
    --json-out "$work/bench/BENCH_fig8.json" > /dev/null
scioto fig5_fig6_apps \
    --max-ranks 8 --check \
    --trace-out "$work/fig56.jsonl" \
    --json-out "$work/bench/BENCH_fig5_fig6.json" > /dev/null
grep -q '"kind":"acc"' "$work/fig56.jsonl" \
    || { echo "FAIL: the traced SCF run recorded no GA accumulate: its race gate is vacuous" >&2; exit 1; }

# The offline analyzer re-parses the fig7@8 dump; its report must match
# the in-memory analysis byte for byte. The census that opens its text
# (event counts, duration digests, gauges; it ends at the text's first
# blank line) is pinned as results/trace_summary.txt.
scioto analyze --file "$work/fig7.jsonl" \
    --json-out "$work/fig7_analysis_offline.json" > "$work/fig7_analysis.txt"
cmp "$work/fig7_analysis.json" "$work/fig7_analysis_offline.json"
echo "ok: fig7@8 offline analyzer matches in-memory analysis"
sed -n '/^$/q;p' "$work/fig7_analysis.txt" > "$work/trace_summary.txt"
pin "$work/trace_summary.txt" results/trace_summary.txt

stage "trace bytes: both exports vs results/baselines/TRACE_bytes.txt"
# The exporters' output at real scale, pinned as `cksum` lines (checksum,
# byte count, name): table1 through both writers, fig7@8 and fig7's traced
# run at 32 ranks through JSONL. A writer change that moves a byte fails
# here with both lines printed; the Chrome line is the Chrome export's
# whole gate (its JSON, tracks and wall marker are unit-tested in
# scioto-sim). The JSONL codec works in parts of at least
# 1 MiB (`scioto_det::par`; the writer sizes a part at 96 bytes an event):
# table1.jsonl and fig7_p32.jsonl each take two on a host with two or more
# cores, so the pins gate the split writer and, through the offline
# analysis that must equal the live one, the split reader. A dump that
# shrinks below two parts fails here rather than leaving them ungated.
scioto table1 --trace-out "$work/table1_chrome.json" > /dev/null
scioto fig7_uts_cluster \
    --max-ranks 8 --only-ranks 0 --tree small --trace-ranks 32 \
    --trace-out "$work/fig7_p32.jsonl" --analysis-out "$work/fig7_p32_analysis.json" > /dev/null
scioto analyze --file "$work/fig7_p32.jsonl" --json-out "$work/fig7_p32_offline.json" > /dev/null
cmp "$work/fig7_p32_analysis.json" "$work/fig7_p32_offline.json"
for dump in table1.jsonl fig7_p32.jsonl; do
    lines=$(wc -l < "$work/$dump")
    bytes=$(wc -c < "$work/$dump")
    if [ $((lines * 96)) -lt $((2 << 20)) ] || [ $((bytes)) -lt $((2 << 20)) ]; then
        echo "FAIL: $dump ($lines lines, $bytes bytes) no longer takes two codec parts" >&2
        exit 1
    fi
done
(cd "$work" && cksum table1.jsonl table1_chrome.json fig7.jsonl fig7_p32.jsonl) \
    > "$work/TRACE_bytes.txt"
pin "$work/TRACE_bytes.txt" results/baselines/TRACE_bytes.txt

stage "analysis bytes: blame + critical path vs results/baselines/ANALYSIS_bytes.txt"
# The analyzer's output pinned the same way: the table1 and fig7@8
# analyses above (default policy pair) and fig7@8's traced run under the
# paper's pair (uniform victims, flat barrier; `--only-ranks 0` skips the
# throughput sweep). A change to how blame or the critical path is
# composed fails here with both lines printed.
scioto fig7_uts_cluster \
    --max-ranks 8 --only-ranks 0 --tree small --victim uniform --barrier flat \
    --analysis-out "$work/fig7_paper_analysis.json" > /dev/null
(cd "$work" && cksum table1_analysis.json fig7_analysis.json fig7_paper_analysis.json) \
    > "$work/ANALYSIS_bytes.txt"
pin "$work/ANALYSIS_bytes.txt" results/baselines/ANALYSIS_bytes.txt

stage "large-scale: 1024/2048-rank points, near/far tiers"
# Virtual-time ranks are fibers on one OS thread, which is what lets
# 1024+ ranks stand up on one host; the sweep points use the
# topology-aware near/far latency preset and are pinned as their own
# baselines.
#
# Host-memory gate on the two big UTS points: every bench document
# carries the process's peak resident set (VmHWM, read as the process
# exits) on its wall-clock line. Ranks get 1 MiB of stack and a 5 MiB
# task queue each, committed only where touched: fig7@1024 measures
# 24 MB and fig8@2048 52 MB (295 / 303 MB when queues and stacks were
# zeroed up front). Budget 128 MB: per-rank memory that scales with what
# is allocated rather than with what is used cannot get under it.
hwm_budget_kb=131072
hwm_gate() {
    # hwm_gate <bench json>
    kb=$(sed -n 's/^"generated_wall_ns":[0-9]*,"vm_hwm_kb":\([0-9]*\),$/\1/p' "$1")
    if [ -z "$kb" ]; then
        echo "note: $(basename "$1"): no VmHWM on this platform, memory gate skipped"
    elif [ "$kb" -gt "$hwm_budget_kb" ]; then
        echo "FAIL: $(basename "$1"): VmHWM ${kb} kB (budget: ${hwm_budget_kb} kB)" >&2
        exit 1
    else
        echo "ok: $(basename "$1"): VmHWM ${kb} kB (budget: ${hwm_budget_kb} kB)"
    fi
}
scioto fig4_termination \
    --max-ranks 1024 --only-ranks 1024 --latency nearfar \
    --json-out "$work/bench/BENCH_fig4_1024_nearfar.json" > /dev/null
scioto fig7_uts_cluster \
    --max-ranks 1024 --only-ranks 1024 --latency nearfar \
    --tree small --json-out "$work/bench/BENCH_fig7_1024_nearfar.json" > /dev/null
hwm_gate "$work/bench/BENCH_fig7_1024_nearfar.json"
scioto fig8_uts_xt4 \
    --max-ranks 2048 --only-ranks 2048 --latency nearfar \
    --tree small --json-out "$work/bench/BENCH_fig8_2048_nearfar.json" > /dev/null
hwm_gate "$work/bench/BENCH_fig8_2048_nearfar.json"
# Steal-locality pin: the fig7@1024 near/far traced run's ring-distance
# histogram, mean distance, and near-steal share from the analyzer's
# provenance pass, recorded as first-class bench metrics. `--only-ranks 0`
# skips every throughput sweep point so only the traced run executes.
scioto fig7_uts_cluster \
    --max-ranks 1024 --only-ranks 0 --latency nearfar \
    --tree small --trace-ranks 1024 --trace-tree small --steal-dist \
    --json-out "$work/bench/BENCH_fig7_1024_nearfar_stealdist.json" > /dev/null
echo "ok: 1024/2048-rank sweep points + steal-distance pin ran"

stage "autotune: full 8-rank smoke + fig7@64 live sweep (hard gate)"
# Smoke: the defaults and all nine candidates at 8 ranks on the tiny
# tree, each scored by its own live seeded run.
t0=$(now_ms)
scioto tune \
    --ranks 8 --tree tiny \
    --out "$work/tune_smoke_config.json" > /dev/null
echo "ok: full 8-rank tiny sweep in" \
    "$(awk -v ms="$(($(now_ms) - t0))" 'BEGIN { printf "%.3f", ms / 1000 }')s"
t0=$(now_ms)
# Full sweep at the acceptance point: fig7@64 under near/far tiers, the
# defaults and all nine candidates run live. The tuner must beat the
# defaults (--require-improvement exits 1 otherwise); its BENCH output is
# pinned like every other result.
scioto tune \
    --ranks 64 --tree small --latency nearfar \
    --out "$work/tuned_config.json" --report "$work/tune_report.txt" \
    --json-out "$work/bench/BENCH_fig7_tuned.json" \
    --require-improvement > /dev/null
echo "ok: autotuner improved fig7@64 over the defaults in" \
    "$(awk -v ms="$(($(now_ms) - t0))" 'BEGIN { printf "%.2f", ms / 1000 }')s"

stage "check: HB + predictive + deadlock + replay on table1 + fig7 traces (hard gate)"
# The standalone checker re-parses the exported JSONL dumps and must come
# back clean on all three analyses, and the replay engine must
# reconstruct each run from the trace alone — no workload closure — byte
# for byte (so its blame decomposition and critical path too).
# --max-episodes is the barrier-episode census gate: barrier-free
# collectives keep the traced table1 run at 4 barrier episodes (create +
# process prologue + termination + teardown) and fig7@8 at 2; budget 6
# so a collective regressing to extra barrier rounds fails loudly while
# leaving headroom for a deliberate new collective. The canonical
# scioto-race-v1 report is emitted and, with its "trace" label (a temp
# path) stripped, pinned byte for byte like every bench result: a walk
# that loses a sync edge stays "clean" but moves sync_edges / lock_edges
# / the graph counts. Timed: budget 45 s.
t0=$(now_ms)
scioto check --max-episodes 6 --json-out "$work/race_report.jsonl" \
    --file "$work/table1.jsonl" --file "$work/fig7.jsonl"
grep -q '"schema":"scioto-race-v1"' "$work/race_report.jsonl"
if grep -q '"clean":false' "$work/race_report.jsonl"; then
    echo "FAIL: check JSON report flags an unclean trace" >&2
    exit 1
fi
sed 's/"trace":"[^"]*",//' "$work/race_report.jsonl" > "$work/RACE_table1_fig7.jsonl"
pin "$work/RACE_table1_fig7.jsonl" results/baselines/RACE_table1_fig7.jsonl
budget 45 "check"

stage "concurrent backend: wall-clock observability lane (hard gate)"
# Real free-running threads, two workloads: the seeded UTS small tree
# (steal-heavy, gmem-access dominated) and the fig5-style SCF task pool
# (compute-heavy). Each run measures the tracing overhead and asserts
# what tracing controls: the wall time it added per event offered to the
# recorder, (traced_min - untraced_min) / events, where events counts
# those kept, dropped, and merged into LocalAccess window summaries (the
# `trace_merged` gauge) — the same denominator as before the recorder
# coalesced, so the budget means what it meant. The traced/untraced ratio is
# printed but not gated — it rises whenever the untraced run gets
# faster (PR 12 halved the untraced UTS run and took the ratio 1.4x ->
# 2.1x with the per-event cost unchanged; PR 15 took a third off it
# again, 1.5-1.9x -> 1.8-2.6x). Budgets: UTS measured 20-37 ns/event
# over ~808k events (~820k before the idle loop stopped re-recording its
# index reads on nap ticks; free-running threads nap little), budget 75;
# with coalescing it keeps ~146k of ~808k offered events and measures
# 15-16 ns per offered event on a quiet 2-vCPU host, budget 50; with each
# owner queue op offered in one recorder step, 10-13 ns (the parent
# 14-21 in the same spell), budget 42 (the same 3.2x headroom);
# SCF is a ~3 ms run recording ~12k events (4.2-4.5 ms before the four
# threads shared one ERI block store), so +-0.5 ms of wall noise is
# +-40 ns/event: five runs measured 29-45 ns/event (14-116 before),
# budget 150. Each run
# also checks its own trace (`--check`); the UTS run
# additionally exports and cross-checks the whole observability surface —
# the wall-stamped JSONL trace and blame decomposition exact per thread
# span. The ring holds the whole run (~146k events) on
# ONE rank: how the tree spreads over free-running threads is up to the
# host's scheduler, and since the owner path got fast one thread can run
# most of it before a thief lands a steal (rings grow on demand). Budget
# 60 s for the lane.
t0=$(now_ms)
scioto concurrent_obs \
    --ranks 4 --reps 5 --max-event-ns 42 --seed 42 --tree small \
    --trace-ring 1048576 \
    --trace-out "$work/conc.jsonl" \
    --analysis-out "$work/conc_analysis.json" \
    --check
scioto concurrent_obs \
    --ranks 4 --reps 3 --max-event-ns 150 --seed 42 --app scf \
    --check
# The offline analyzer re-derives the identical wall-clock blame report
# from the JSONL dump alone, and its text's census marks the clock.
scioto analyze --file "$work/conc.jsonl" \
    --json-out "$work/conc_analysis_offline.json" > "$work/conc_analysis_offline.txt"
cmp "$work/conc_analysis.json" "$work/conc_analysis_offline.json"
grep -q 'clock: wall' "$work/conc_analysis_offline.txt"
# The standalone checker accepts the wall-clock dump too — all three
# analyses pair by generations/epochs, never timestamps — and classifies
# it as valid but not replayable by design (exit 0, not an error cascade).
scioto check --file "$work/conc.jsonl"
budget 60 "concurrent lane"

if [ "$BLESS" = 1 ]; then
    stage "bless: refreshing results/baselines/"
    for f in "$work"/bench/BENCH_*.json; do
        pin "$f" "results/baselines/$(basename "$f")"
    done
else
    stage "bench_diff: every result vs its committed baseline, rel-tol 0"
    scioto bench_diff --all "$work/bench" --rel-tol 0
fi

stage ""
echo "== stage wall times =="
awk '{ ms = $1; $1 = ""; printf "%8.1f s %s\n", ms / 1000, $0; total += ms }
     END { printf "%8.1f s  total\n", total / 1000 }' "$work/stages.txt"
echo "verify.sh: all checks passed"
