#!/usr/bin/env bash
# Runs every workload once per seed and prints, per (workload, metric), the
# median and quartiles over the runs and their spread (interquartile range
# over median) against the metric's bound - what the driver checks before
# it accepts the benchmark.
#   bash benchmark/spread.sh <out.jsonl> [first-seed] [runs] [seconds]
# Give two files to -compare afterwards to set two such sets side by side.
set -euo pipefail

out="${1:?usage: spread.sh <out.jsonl> [first-seed] [runs] [seconds]}"
first="${2:-1}"
runs="${3:-10}"
seconds="${4:-8}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for workload in capture_telephony capture_tpch compress_sweep whatif_telephony whatif_retail store_outofcore serve_mixed; do
	for ((seed = first; seed < first + runs; seed++)); do
		bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 -out "$out" >/dev/null
	done
done
bash "$here/run.sh" -compare "$out"
