#!/usr/bin/env bash
# Regenerate a BENCH_*.json engine-throughput reference (default
# BENCH_10.json): the paper cells and the scale family, run with a release
# build, merged into one document.
#
#   scripts/bench_baseline.sh [OUT_JSON]
#
# Runs:
#   repro bench            paper cells
#   repro scale  --smoke   CI scale cell
#   repro scale            full scale family
# and writes them as `paper_cells.after` / `scale_cells.after`, the keys
# scripts/check.sh reads its scale-smoke events/s floor from and `repro diff`
# joins on. The optimizations-off "before" half is recorded once, in
# BENCH_6.json; host-time comparisons between two builds are same-host
# perfbench/ runs. Run on an otherwise-idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_10.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release -q -p memres-bench

REPRO=target/release/repro
"$REPRO" bench --json "$TMP" >/dev/null
"$REPRO" scale --smoke --json "$TMP/smoke" >/dev/null
"$REPRO" scale --json "$TMP" >/dev/null

python3 - "$TMP" "$OUT" <<'EOF'
import json, sys, os

tmp, out = sys.argv[1], sys.argv[2]

def runs(path):
    with open(os.path.join(tmp, path)) as f:
        return json.load(f)["runs"]

doc = {
    "note": "engine throughput of the paper cells and the scale family; "
            "the optimizations-off 'before' runs are in BENCH_6.json.",
    "paper_cells": {"after": runs("bench.json")},
    "scale_cells": {"after": runs("smoke/scale.json") + runs("scale.json")},
}

with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF
