#!/usr/bin/env bash
# One command for the PANIC simulator benchmark: builds benchmark/ (a
# cargo workspace of its own) from source, then hands its arguments to
# the benchmark binary. See benchmark/README.md, or `run.sh --help`.
#
#   run.sh [--seed N] [--traced] [--smoke] [--workload W]   the suite
#   run.sh --workload W --seed N --seconds S --trace 0|1    one run
#   run.sh --compare A.json B.json                          A/A, A/B
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# CARGO_TARGET_DIR, when set, is relative to the caller's directory, so
# build from there (no cd) and look for the binaries in the same place.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin_dir="${CARGO_TARGET_DIR:-$here/target}/release"

# A `--trace 1` run uses the binary with the counting allocator; every
# other invocation (the suite picks per child) the plain one.
binary="$bin_dir/panic-benchmark"
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        binary="$bin_dir/panic-benchmark-traced"
    fi
    prev="$arg"
done

# Pin glibc malloc's thresholds. Left dynamic, whether free() trims the
# heap top (and the next allocation page-faults it back) depends on
# where ASLR put the heap: ctl_churn, which allocates ~7000 times per
# frame, then runs up to 2x slower in one process than in the next,
# with up to 20% of its time in the kernel. Pinned, kernel time is ~0
# in every process (README.md, "Noise method"). One arena keeps the
# threaded ring's resident set from depending on which worker thread
# happened to allocate first (peak_rss_mb spread 9% -> under 1%).
export MALLOC_ARENA_MAX=1
export MALLOC_TRIM_THRESHOLD_=268435456
export MALLOC_TOP_PAD_=16777216
export MALLOC_MMAP_THRESHOLD_=33554432

exec "$binary" --out-dir "$here/out" "$@"
