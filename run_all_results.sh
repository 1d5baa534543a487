#!/bin/bash
# Regenerate every paper table/figure at the recorded scale.
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
export NDP_WARPS=1024 NDP_ITERS=8 NDP_EPOCH=2000
R=results
# One entry per harness binary: make_report globs results/*.txt, so adding
# a binary here is the only step needed to get it into REPORT.md.
BINS="table1 table2 fig5 overhead fig9 fig7 fig8 fig10 fig11 \
      inval_traffic nsu_freq bigger_gpu nsu_cache ablate bicg_fine"
for b in $BINS; do
    ./target/release/$b > $R/$b.txt 2>&1
done
# Simulator self-profile: per-stage host-time/idle attribution for the
# recorded scale (obs_report always profiles).
./target/release/obs_report > $R/perf_report.txt 2>&1
# Core throughput baseline for regression gating (BENCH_core.json).
./target/release/bench_baseline --out $R/BENCH_core.json > $R/bench_baseline.txt 2>&1
./target/release/make_report
echo ALL_DONE
