#!/bin/bash
# Regenerate every paper table/figure at the recorded scale, from the
# release binaries (cargo build --release --workspace).
#
#   --resume-dir DIR   Periodically checkpoint every simulation into DIR and
#                      resume any cell that already has a matching snapshot,
#                      so an interrupted sweep continues from its last saved
#                      boundary instead of restarting. Results are
#                      byte-identical to an uninterrupted sweep (DESIGN.md §13).
#
# Runs in the checkout that holds this script, from whatever directory it
# is called.
cd "$(dirname "$0")" || exit 1
while [ $# -gt 0 ]; do
    case "$1" in
        --resume-dir)
            [ -n "$2" ] || { echo "usage: $0 [--resume-dir DIR]" >&2; exit 2; }
            RESUME_DIR=$2
            shift 2
            ;;
        *)
            echo "unknown argument: $1" >&2
            echo "usage: $0 [--resume-dir DIR]" >&2
            exit 2
            ;;
    esac
done
if [ -n "$RESUME_DIR" ]; then
    mkdir -p "$RESUME_DIR"
    export NDP_CHECKPOINT_EVERY=${NDP_CHECKPOINT_EVERY:-1000000}
    export NDP_CHECKPOINT_PATH="$RESUME_DIR"
    export NDP_RESUME="$RESUME_DIR"
fi
# NDP_EPOCH=2000 is the recorded scale's epoch; the plan gives it to every
# cell, and ndp_benchmark's sweep-fig9 uses the same value.
export NDP_WARPS=1024 NDP_ITERS=8 NDP_EPOCH=2000
# Every table and figure, each distinct cell simulated once:
# results/<name>.txt and results/REPORT.md. Exits 2 if a cell timed out.
./target/release/figures --out results || exit $?
# Simulator self-profile: per-stage host-time/idle attribution for the
# recorded scale (obs_report always profiles). Host-dependent, so not
# committed.
./target/release/obs_report > results/perf_report.txt 2>&1
echo ALL_DONE
