#!/usr/bin/env bash
# Runs every workload twice — untraced for the end-to-end metrics, traced
# for the per-layer metrics and trace.overhead_frac — and prints each
# run's table. Usage: bash bench/all.sh [seed] [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-10}"
for w in ingest_replay serve_read_open serve_mixed_closed serve_refresh_bg; do
  for t in 0 1; do
    # The last line of each run is the driver's JSON object; leave it out.
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" | sed '$d'
    echo
  done
done
