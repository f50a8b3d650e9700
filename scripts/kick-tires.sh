#!/usr/bin/env bash
# Kick-tires artifact pass (CI + reviewers): exercises the cached
# experiment plane end to end in well under five minutes.
#
#   1. cold `td exp run --quick` over every registered experiment — the
#      paper claims plus the perf telemetry, serve daemon, and compare
#      planes;
#   2. warm rerun: every configuration must come from the cache
#      ("misses: 0");
#   3. double render: plots, the regenerated benchmark document, and
#      EXPERIMENTS.md with every table spliced in must be byte-identical
#      across renders of the same cache (an experiment without a marker
#      block in EXPERIMENTS.md fails the splice);
#   4. schema pins on the manifest, cached results, and benchmark file.
#
# Everything lands under kick-tires/ (gitignored). The full artifact
# refresh is scripts/full.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH="kick-tires"
RESULTS="$SCRATCH/results"
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

cargo build --release --bin td
TD=target/release/td

echo "== cold quick run (every experiment) =="
"$TD" exp run --quick --results "$RESULTS"

echo "== warm rerun must execute zero configurations =="
"$TD" exp run --quick --results "$RESULTS" | tee "$SCRATCH/warm.txt"
grep -q 'misses: 0' "$SCRATCH/warm.txt"

echo "== render twice; artifacts must be byte-identical =="
cp EXPERIMENTS.md "$SCRATCH/EXPERIMENTS.md"
cp EXPERIMENTS.md "$SCRATCH/EXPERIMENTS2.md"
"$TD" exp render --quick --results "$RESULTS" \
  --plots "$SCRATCH/plots" --bench "$SCRATCH/bench.json" \
  --experiments-md "$SCRATCH/EXPERIMENTS.md"
"$TD" exp render --quick --results "$RESULTS" \
  --plots "$SCRATCH/plots2" --bench "$SCRATCH/bench2.json" \
  --experiments-md "$SCRATCH/EXPERIMENTS2.md"
cmp "$SCRATCH/bench.json" "$SCRATCH/bench2.json"
cmp "$SCRATCH/EXPERIMENTS.md" "$SCRATCH/EXPERIMENTS2.md"
for f in "$SCRATCH"/plots/*.svg; do
  cmp "$f" "$SCRATCH/plots2/$(basename "$f")"
done

echo "== schema pins =="
grep -q '"schema":"td-exp/v1"' "$RESULTS/manifest.json"
grep -rq '"schema":"td-exp/v1"' "$RESULTS/e17"
grep -q '"schema":"td-perf/v1"' "$SCRATCH/bench.json"

echo "kick-tires: OK"
