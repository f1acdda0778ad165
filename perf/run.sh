#!/usr/bin/env bash
# The benchmark's one command. Builds the standalone `perf` package in
# release mode (offline; it depends on nothing but the repo's own crates)
# and hands every argument to it. See `perf/README.md`, or run with
# `--help`-style bad input for the usage text.
#
#   perf/run.sh                         every workload, timed run
#   perf/run.sh --trace                 ... plus each workload's traced run
#   perf/run.sh --repeat-check          two sets, compared against the bounds
#   perf/run.sh --quick --trace         smoke test on toy inputs
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
set -eu
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
