#!/usr/bin/env bash
# Parent-vs-change pairs of one frame-ledger workload, the protocol every
# speed claim in this repository is made under (ROADMAP "Open items",
# choosing-metrics section 8): both sides built from source with the same
# settings, runs strictly alternating with the order flipped each pair,
# one malloc arena, tracing off.
#
#   scripts/ledger_pairs.sh <parent-ref> <workload> [pairs=10] [seconds=12] [first-seed=4001]
#
# The parent is `git archive <parent-ref>`, the change is the working
# tree. Sources and build directories live under target/ledger_pairs/
# (ignored; the parent keyed by commit), so a second workload or a
# second invocation rebuilds only what changed. Prints every pair, then
# per metric both medians, both quartile pairs and the pairs the change
# won. Needs python3 for the summary.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ref="${1:?usage: ledger_pairs.sh <parent-ref> <workload> [pairs=10] [seconds=12] [first-seed=4001]}"
workload="${2:?workload: one of the names in BENCHMARK.json}"
pairs="${3:-10}"
seconds="${4:-12}"
seed0="${5:-4001}"

sha="$(git -C "$repo" rev-parse --verify "$ref^{commit}")"
work="$repo/target/ledger_pairs"
parent="$work/parent-$sha"
if [ ! -d "$parent/src" ]; then
  mkdir -p "$parent/src"
  git -C "$repo" archive "$sha" | tar -x -C "$parent/src"
fi
build() { # side, source root
  CARGO_TARGET_DIR="$work/$1-target" cargo build --release --offline --quiet \
    --manifest-path "$2/benchmark/Cargo.toml" >&2
}
build "parent-$sha" "$parent/src"
build change "$repo"

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT
run() { # side, binary dir, pair, seed
  MALLOC_ARENA_MAX=1 "$work/$2-target/release/frame-ledger" --out "$work/$1-out" \
    --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 2>/dev/null |
    tail -n 1 | sed "s/^/$3 $1 /" >>"$runs"
}
for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then
    run parent "parent-$sha" "$i" "$seed"
    run change change "$i" "$seed"
  else
    run change change "$i" "$seed"
    run parent "parent-$sha" "$i" "$seed"
  fi
  echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

python3 - "$runs" "$workload" "$sha" <<'EOF'
import json, statistics, sys

runs, workload, sha = sys.argv[1:]
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(runs):
    pair, side, result = line.split(" ", 2)
    result = json.loads(result)
    failed[side] += result["failed"] + (not result["correct"])
    sides[side][int(pair)] = {k: v["value"] for k, v in result["metrics"].items()}
higher_is_better = {"frames_per_s"}
print(f"{workload}: parent {sha[:12]} vs working tree, {len(sides['parent'])} pairs; "
      f"failed or incorrect runs: parent {failed['parent']}, change {failed['change']}")
for metric in ["frame_s", "frame_rel", "frames_per_s", "cpu_s_per_frame", "peak_rss_mb", "setup_s"]:
    p = [sides["parent"][i][metric] for i in sorted(sides["parent"])]
    c = [sides["change"][i][metric] for i in sorted(sides["change"])]
    sign = -1 if metric in higher_is_better else 1
    wins = sum(sign * b < sign * a for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    def quartiles(v):
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        return f"median {q[1]:.5g} (q1 {q[0]:.5g}, q3 {q[2]:.5g})"
    change = statistics.median(c) / statistics.median(p) - 1
    print(f"\n{metric}: change wins {wins}/{len(p)} (ties {ties}), median {change:+.1%}")
    print(f"  parent {quartiles(p)}")
    print(f"  change {quartiles(c)}")
    print("  pairs  " + "  ".join(f"{a:.5g}>{b:.5g}" for a, b in zip(p, c)))
EOF
