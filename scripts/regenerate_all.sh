#!/usr/bin/env bash
# Regenerate every figure/table of the paper plus the extension studies.
# CSVs and PGMs land under results/ (override with PVR_RESULTS_DIR).
#
# Every regenerator self-checks its claims: `pvr_bench::check` prints
# "# check: <name>: PASS|FAIL (...)" and `pvr_bench::gate` prints
# "PASS|FAIL <name>: ...". The script counts both kinds, prints
# "N PASS, M FAIL" and exits 1 when any check failed.
set -euo pipefail
cd "$(dirname "$0")/.."
BINS=(table1 fig1_render fig3_scaling fig4_bandwidth fig5_overall table2_large
      fig6_distribution fig7_io_modes fig8_layout fig9_access fig10_density
      ablation_compositing ablation_placement ablation_io_hints future_insitu calibrate
      profile_smoke render_bench bench_sim)
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
for b in "${BINS[@]}"; do
  echo "==================== $b ===================="
  cargo run --release -q -p pvr-bench --bin "$b" | tee -a "$log"
  echo
done
count() { # PASS | FAIL
  grep -cE "^# check: .*: $1 \(|^$1 " "$log" || true
}
pass="$(count PASS)"
fail="$(count FAIL)"
echo "self-checks: $pass PASS, $fail FAIL"
if [ "$fail" -gt 0 ]; then
  grep -E "^# check: .*: FAIL \(|^FAIL " "$log" >&2
  exit 1
fi
