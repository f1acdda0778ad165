#!/usr/bin/env sh
# Tier-1 verification, fully offline — proves the hermetic-build claim:
# a clean checkout builds and tests with no registry access, and the
# dependency graph contains nothing but workspace crates.
#
# Usage: verify.sh [--bless]
#   --bless  regenerate results/baselines/ from this tree's runs instead
#            of diffing against them (commit the refreshed files).
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

stage "cargo build --release --offline --workspace"
# --workspace: the root manifest is a package too, and building it alone
# links neither executable (`scioto`, `scioto-lint`).
cargo build --release --offline --workspace

stage "cargo test -q --offline --workspace (tier-1)"
# The root manifest is a package AND the workspace root; without
# --workspace only the root cross-crate suite runs.
cargo test -q --offline --workspace

stage "perf harness: the out-of-workspace benchmark's own tests"
# `perf/` is a package of its own (the acceptance driver's benchmark), so
# the workspace build and tests above never compile it: a root-crate API
# change that breaks it would otherwise surface only at the driver. Its
# suite includes the `--quick` smoke of all five workloads.
cargo test -q --offline --manifest-path perf/Cargo.toml

stage "scioto-lint: source invariant scan (hard gate)"
target/release/scioto-lint

stage "scioto-lint: waiver ratchet (counts may only shrink)"
target/release/scioto-lint --stats > "$work/lint_waivers.txt"
if [ "$BLESS" = 1 ]; then
    cp "$work/lint_waivers.txt" results/lint_waivers.txt
    echo "blessed results/lint_waivers.txt"
else
    while read -r rule count; do
        old=$(awk -v r="$rule" '$1 == r { print $2 }' results/lint_waivers.txt)
        [ -z "$old" ] && old=0
        if [ "$count" -gt "$old" ]; then
            echo "FAIL: lint waivers for '$rule' grew $old -> $count" >&2
            echo "  (remove the new waiver, or bless with verify.sh --bless)" >&2
            exit 1
        fi
    done < "$work/lint_waivers.txt"
    if ! cmp -s "$work/lint_waivers.txt" results/lint_waivers.txt; then
        echo "note: waiver counts shrank — refresh the ratchet with verify.sh --bless"
        diff results/lint_waivers.txt "$work/lint_waivers.txt" || true
    fi
    echo "ok: waiver ratchet holds"
fi

stage "trace smoke: table1 --trace-out round-trips through trace_check"
scioto table1 --trace-out "$work/table1_chrome.json" > /dev/null
scioto trace_check --file "$work/table1_chrome.json" --ranks 2

stage "analyze: traced table1 -> blame/critical-path report"
# One traced run emits the JSONL dump, the in-memory analysis, the race
# verdict, the in-process replay self-check, and the machine-readable
# benchmark result.
scioto table1 \
    --trace-out "$work/table1.jsonl" \
    --analysis-out "$work/table1_analysis.json" \
    --race-check --predict --deadlock --replay-check \
    --json-out "$work/bench/BENCH_table1.json" > /dev/null
# The offline analyzer re-parses the JSONL dump; its report must match
# the in-memory analysis byte for byte.
scioto analyze \
    --file "$work/table1.jsonl" \
    --json-out "$work/table1_analysis_offline.json" > /dev/null
cmp "$work/table1_analysis.json" "$work/table1_analysis_offline.json"
echo "ok: offline analyzer matches in-memory analysis"

stage "replay: recorded traces re-execute byte-identically (hard gate)"
# The replay engine reconstructs the run from the trace alone — no
# workload closure — and must reproduce the live analysis (blame
# decomposition + critical path) byte for byte: table1 and fig7@8.
# --max-episodes is the barrier-episode census gate: barrier-free
# collectives keep the traced table1 run at 4 barrier episodes (create +
# process prologue + termination + teardown); budget 6 so a collective
# regressing to extra barrier rounds fails loudly while leaving headroom
# for a deliberate new collective.
scioto trace_check --file "$work/table1.jsonl" --replayable --max-episodes 6
scioto replay \
    --file "$work/table1.jsonl" --check \
    --analysis-out "$work/table1_analysis_replay.json" > /dev/null
cmp "$work/table1_analysis.json" "$work/table1_analysis_replay.json"
echo "ok: table1 replay matches the live blame report byte-identically"

stage "bench runs: fig7 / fig4 / ablation / fig8 / fig5-6"
# Every figure runs with `--race-check` and `--replay-check`: the traced
# run replays through the happens-before checker AND the replay engine
# in-process, so each is race- and replay-gated under the default policy
# (locality victims + tree barrier + batched TD). Each also writes its
# BENCH json for the final `bench_diff`: fig5-6 sweeps SCF and TCE, both
# schemes, to 8 ranks (~0.7 s since the ranks of a run share their dense
# algebra and one ERI block store; ~2 s before) —
# the application figures' virtual-time pin, and the end-to-end check that
# an integral-kernel change kept every screening decision. Its traced run
# is gated on what it *saw*: the dump must hold the tasks' GA accumulates.
scioto fig7_uts_cluster \
    --max-ranks 8 --tree small --trace-out "$work/fig7.jsonl" \
    --analysis-out "$work/fig7_analysis.json" \
    --race-check --predict --deadlock --replay-check \
    --json-out "$work/bench/BENCH_fig7.json" > /dev/null
scioto fig4_termination \
    --race-check --predict --deadlock --replay-check \
    --json-out "$work/bench/BENCH_fig4.json" > /dev/null
scioto ablation \
    --race-check --predict --deadlock --replay-check \
    --json-out "$work/bench/BENCH_ablation.json" > /dev/null
scioto fig8_uts_xt4 \
    --max-ranks 8 --tree small --race-check --predict --deadlock --replay-check \
    --json-out "$work/bench/BENCH_fig8.json" > /dev/null
scioto fig5_fig6_apps \
    --max-ranks 8 --race-check --predict --deadlock --replay-check \
    --trace-out "$work/fig56.jsonl" \
    --json-out "$work/bench/BENCH_fig5_fig6.json" > /dev/null
grep -q '"kind":"acc"' "$work/fig56.jsonl" \
    || { echo "FAIL: the traced SCF run recorded no GA accumulate: its race gate is vacuous" >&2; exit 1; }

stage "replay: fig7@8 recorded trace reproduces blame + critical path"
scioto trace_check --file "$work/fig7.jsonl" --replayable
scioto replay \
    --file "$work/fig7.jsonl" --check \
    --analysis-out "$work/fig7_analysis_replay.json" > /dev/null
cmp "$work/fig7_analysis.json" "$work/fig7_analysis_replay.json"
echo "ok: fig7@8 replay matches the live blame report byte-identically"

stage "trace bytes: both exports vs results/baselines/TRACE_bytes.txt"
# The exporters' output at real scale, pinned as `cksum` lines (checksum,
# byte count, name): table1 through both writers, fig7@8 through JSONL.
# A writer change that moves a byte fails here with both lines printed.
(cd "$work" && cksum table1.jsonl table1_chrome.json fig7.jsonl) > "$work/bench/TRACE_bytes.txt"
if [ "$BLESS" = 0 ] \
    && ! cmp -s results/baselines/TRACE_bytes.txt "$work/bench/TRACE_bytes.txt"; then
    echo "FAIL: trace exports differ from results/baselines/TRACE_bytes.txt" >&2
    diff results/baselines/TRACE_bytes.txt "$work/bench/TRACE_bytes.txt" >&2 || true
    exit 1
fi
echo "ok: table1.jsonl, table1_chrome.json and fig7.jsonl are byte-for-byte the pinned exports"

stage "large-scale: 1024/2048-rank points, near/far tiers"
# Only fibers can stand up 1024+ ranks on this host; the sweep points use
# the topology-aware near/far latency preset and are pinned as their own
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

stage "autotune: 2-candidate smoke + fig7@64 closed loop (hard gate)"
# Smoke: record -> lower -> self-check -> replay-score 2 candidates at
# 8 ranks; exercises the whole loop in well under a second.
scioto tune \
    --ranks 8 --tree tiny --max-candidates 2 --top 1 \
    --out "$work/tune_smoke_config.json" > /dev/null
# Full loop at the acceptance point: fig7@64 under near/far tiers. The
# tuner must beat the PR-5 defaults on a fresh seeded run
# (--require-improvement exits 1 otherwise); its BENCH output is pinned
# like every other result.
scioto tune \
    --ranks 64 --tree small --latency nearfar \
    --out "$work/tuned_config.json" --report "$work/tune_report.txt" \
    --json-out "$work/bench/BENCH_fig7_tuned.json" \
    --require-improvement > /dev/null
echo "ok: autotuner improved fig7@64 over the defaults"

stage "race check: HB + predictive + deadlock on table1 + fig7 traces (hard gate)"
# The standalone checker re-parses the exported JSONL dumps and must come
# back clean on all three analyses; the canonical scioto-race-v1 report is
# emitted and, with its "trace" label (a temp path) stripped, pinned
# byte for byte like every bench result: a walk that loses a sync edge
# stays "clean" but moves sync_edges / lock_edges / the graph counts.
# Timed: the predictive pass may add at most 45s on top of the old 30s
# HB budget.
race_t0=$(date +%s)
scioto race_check --predict --deadlock --json-out "$work/race_report.jsonl" \
    --file "$work/table1.jsonl" --file "$work/fig7.jsonl"
grep -q '"schema":"scioto-race-v1"' "$work/race_report.jsonl"
if grep -q '"clean":false' "$work/race_report.jsonl"; then
    echo "FAIL: race_check JSON report flags an unclean trace" >&2
    exit 1
fi
sed 's/"trace":"[^"]*",//' "$work/race_report.jsonl" > "$work/bench/RACE_table1_fig7.jsonl"
if [ "$BLESS" = 0 ] \
    && ! cmp -s results/baselines/RACE_table1_fig7.jsonl "$work/bench/RACE_table1_fig7.jsonl"; then
    echo "FAIL: race report differs from results/baselines/RACE_table1_fig7.jsonl" >&2
    diff results/baselines/RACE_table1_fig7.jsonl "$work/bench/RACE_table1_fig7.jsonl" >&2 || true
    exit 1
fi
race_t1=$(date +%s)
race_secs=$((race_t1 - race_t0))
echo "ok: race + predict + deadlock check finished in ${race_secs}s"
if [ "$race_secs" -ge 45 ]; then
    echo "FAIL: race check took ${race_secs}s (budget: <45s)" >&2
    exit 1
fi

stage "concurrent backend: wall-clock observability lane (hard gate)"
# Real free-running threads, two workloads: the seeded UTS small tree
# (steal-heavy, gmem-access dominated) and the fig5-style SCF task pool
# (compute-heavy). Each run measures the tracing overhead and asserts
# what tracing controls: the wall time it added per event recorded,
# (traced_min - untraced_min) / events. The traced/untraced ratio is
# printed but not gated — it rises whenever the untraced run gets
# faster (PR 12 halved the untraced UTS run and took the ratio 1.4x ->
# 2.1x with the per-event cost unchanged; PR 15 took a third off it
# again, 1.5-1.9x -> 1.8-2.6x). Budgets: UTS measures 20-37 ns/event
# over ~808k events (~820k before the idle loop stopped re-recording its
# index reads on nap ticks; free-running threads nap little), budget 75;
# SCF is a ~3 ms run recording ~12k events (4.2-4.5 ms before the four
# threads shared one ERI block store), so +-0.5 ms of wall noise is
# +-40 ns/event: five runs measured 29-45 ns/event (14-116 before),
# budget 150. Each run
# also race/predict/deadlock-checks its own trace; the UTS run
# additionally exports and cross-checks the whole observability surface —
# wall-stamped JSONL + Chrome traces and blame decomposition exact per
# thread span. The ring holds the whole run (~808k events) on
# ONE rank: how the tree spreads over free-running threads is up to the
# host's scheduler, and since the owner path got fast one thread can run
# most of it before a thief lands a steal (rings grow on demand).
conc_t0=$(date +%s)
scioto concurrent_obs \
    --ranks 4 --reps 5 --max-event-ns 75 --seed 42 --tree small \
    --trace-ring 1048576 \
    --trace-out "$work/conc.jsonl" \
    --chrome-out "$work/conc_chrome.json" \
    --analysis-out "$work/conc_analysis.json" \
    --trace-summary "$work/conc_summary.txt" \
    --race-check --predict --deadlock
scioto concurrent_obs \
    --ranks 4 --reps 3 --max-event-ns 150 --seed 42 --app scf \
    --race-check --predict --deadlock
# Both exports validate; the JSONL classifies as wall-clock (valid,
# analyzable, not replayable by design — exit 0, not an error cascade).
scioto trace_check --file "$work/conc_chrome.json" --ranks 4
scioto trace_check --file "$work/conc.jsonl" --replayable
grep -q 'clock: wall' "$work/conc_summary.txt"
# The offline analyzer re-derives the identical wall-clock blame report
# from the JSONL dump alone.
scioto analyze --file "$work/conc.jsonl" \
    --json-out "$work/conc_analysis_offline.json" > /dev/null
cmp "$work/conc_analysis.json" "$work/conc_analysis_offline.json"
# The standalone race checker accepts the wall-clock dump too — all
# three analyses pair by generations/epochs, never timestamps.
scioto race_check --predict --deadlock --file "$work/conc.jsonl"
conc_t1=$(date +%s)
conc_secs=$((conc_t1 - conc_t0))
echo "ok: concurrent observability lane finished in ${conc_secs}s"
if [ "$conc_secs" -ge 60 ]; then
    echo "FAIL: concurrent lane took ${conc_secs}s (budget: <60s)" >&2
    exit 1
fi

if [ "$BLESS" = 1 ]; then
    stage "bless: refreshing results/baselines/"
    mkdir -p results/baselines
    for f in "$work"/bench/BENCH_*.json "$work"/bench/RACE_*.jsonl "$work"/bench/TRACE_bytes.txt; do
        cp "$f" "results/baselines/$(basename "$f")"
        echo "blessed results/baselines/$(basename "$f")"
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
