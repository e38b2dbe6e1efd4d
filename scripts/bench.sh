#!/usr/bin/env bash
# Measure sim-rate across topology sizes (Run vs RunParallel, with and
# without metrics) and write BENCH_fame.json at the repo root. Extra
# arguments pass straight through to `firesim bench`, e.g.:
#
#   scripts/bench.sh -nodes 2,4,8,16 -rounds 4096
#
# Overhead numbers alternate base and instrumented regions on one warm
# cluster (median of flank-normalised ratios, full-region warmup); on a
# busy host the small topologies still jitter by a few percent, so prefer
# the raw signed medians trended in BENCH_history.jsonl (and the
# controlled Go benchmark below) when quoting the metrics cost:
#
#   go test -run - -bench DeployedRun ./internal/manager/
#
# Every invocation also appends a timestamped digest line to
# BENCH_history.jsonl, so the perf trajectory is tracked across PRs.
#
# The default invocation includes the multi-core worker sweep (workers
# 1/2/4/8 at 8-64 nodes, speedup vs the 1-worker baseline per cell) and
# the sim-rate-vs-scale pass (the paper's Fig. 9 curve at 8/64/256 nodes,
# recorded as scale_curve in BENCH_fame.json and scale_hz in the history).
# The distributed token-plane pass (8 nodes over 3 loopback-TCP shard
# processes, idle and dense variants, recorded as dist_results /
# dist_hz / dist_wire_bytes_per_window) also runs by default.
#
# Flags are last-wins, so pass -worker-sweep "" or -scale-nodes "" to skip
# a pass, -dist-nodes 0 to skip the distributed pass, or override
# parameters — the paper's full 1024-node datacenter is opt-in because it
# multiplies the bench wall time:
#
#   scripts/bench.sh -worker-sweep 1,2 -sweep-nodes 8,16
#   scripts/bench.sh -scale-nodes 8,64,256,1024
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/firesim bench -out BENCH_fame.json -history BENCH_history.jsonl \
    -worker-sweep 1,2,4,8 -sweep-nodes 8,16,32,64 \
    -scale-nodes 8,64,256 -scale-rounds 1024 \
    -dist-nodes 8 "$@"
