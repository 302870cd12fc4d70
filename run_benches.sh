#!/bin/bash
# Regenerate every paper table/figure; output tees to bench_output.txt.
#
# Each harness submits its whole run grid as one campaign: pass
# --jobs=N to bound worker threads and --no-cache to force
# re-simulation. Repeat invocations reuse .dmdc_cache/ and are
# near-instant. Per-bench machine-readable results are written to
# bench_json/BENCH_<name>.json. The simulator's own speed is measured
# by perfbench/ (python3 perfbench/run.py), not here.
#
# Every harness runs even when an earlier one fails; the script then
# names the failed ones (with their exit status: 2 bad command line,
# 4 degraded runs, see the journal) and exits 1.
set -u
cd "$(dirname "$0")"
: > bench_output.txt
mkdir -p bench_json
start=$(date +%s)
failed=()
# run NAME CMD...: run CMD, tee its stdout, record a non-zero exit.
run() {
    local name=$1
    shift
    echo "=== running $name ===" | tee -a bench_output.txt
    "$@" 2>/dev/null | tee -a bench_output.txt
    local rc=${PIPESTATUS[0]}
    if [ "$rc" -ne 0 ]; then
        failed+=("$name (exit $rc)")
    fi
}
for b in fig2_yla_filtering fig3_bloom_filter fig4_dmdc_main \
         fig5_local_vs_global table2_checking_window \
         table3_false_replays table4_local_window table5_local_replays \
         table6_invalidations sec3_sq_filtering sec61_yla_energy \
         sec623_checking_queue ablation_table_size related_agetable; do
    run "$b" ./build/bench/$b --json=bench_json/BENCH_$b.json "$@"
done
elapsed=$(( $(date +%s) - start ))
if [ ${#failed[@]} -ne 0 ]; then
    echo "FAILED (${#failed[@]}): ${failed[*]}" | tee -a bench_output.txt
    echo "BENCHES DONE WITH FAILURES in ${elapsed}s" \
        | tee -a bench_output.txt
    exit 1
fi
echo "ALL BENCHES DONE in ${elapsed}s" | tee -a bench_output.txt
