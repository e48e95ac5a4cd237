#!/bin/sh
# Two sets of N repeats (default 3) of the whole suite at one seed, each
# workload in a fresh child process. Prints min / median / max and spread
# over bound per metric and set, then exits non-zero if an end-to-end median
# of the second set is worse than the first by more than the metric's bound,
# if a seed-determined metric did not repeat exactly, or if any operation
# failed. Run from the root of the repository:
#
#   benchmark/check_repeat.sh [repeats] [seed]
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --repeat "${1:-3}" --sets 2 --seed "${2:-11}"
