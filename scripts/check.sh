#!/usr/bin/env bash
# Full local gate: static checks, build, and the test suite under the race
# detector. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== bench smoke =="
# One tiny topology, one rep: proves `firesim bench` still runs end to end
# and emits parseable JSON. Real numbers come from scripts/bench.sh. The
# node bench is skipped here; it gets its own gated pass below.
go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 -out "$(mktemp)" >/dev/null

echo "== fast-path equivalence gate =="
# The predecode cache, fetch memo and quiescent skip must be bit-identical
# to the per-cycle path: self-modifying-code and toggle fuzz at the ISA
# level, the NIC idle-skip arithmetic against its tick loop, and the WFI /
# interrupt-storm / 8-node-faulted-cluster equivalences (sequential and
# parallel schedulers, mid-run checkpoint restored across settings).
go test -count=1 -run 'TestSelfModifyingCode|TestDecodeCacheRandomToggle' ./internal/riscv >/dev/null
go test -count=1 -run 'TestSkipIdleMatchesTickLoop' ./internal/nic >/dev/null
go test -count=1 -run 'TestWFIReceiverSkipEquivalence|TestInterruptStormEquivalence|TestClusterFaultedFastPathEquivalence' ./internal/soc >/dev/null

echo "== switch fast-path gate =="
# The zero-allocation switch datapath must stay bit-identical to the
# straightforward container/heap + copy-per-port reference (token-stream
# fuzz over random port counts, latencies, buffer limits, stall hooks and
# broadcast mixes), must tick dense and idle steady-state rounds without
# a single heap allocation, and must not let the egress rings or the
# packet pool grow without bound under sustained load.
go test -count=1 \
    -run 'TestSwitchStreamEquivalenceFuzz|TestSwitchZeroSteadyStateAllocs|TestOutQueueNoCapacityGrowth' \
    ./internal/switchmodel >/dev/null

echo "== superblock equivalence gate =="
# The superblock dispatcher (decode-once/execute-many with fetch spans)
# must be bit-identical to per-instruction stepping: window-driver
# equivalence across budget sizes, a store from block N into block N+1's
# first instruction, random mid-run toggling, and the partial-idle
# keystone (one dense hart dispatching through blocks while its sibling
# parks in WFI, checkpointed mid-window and restored across fast-path
# setting and scheduler).
go test -count=1 -run 'TestSuperblockEquivalence|TestSuperblockSMCNextBlockPatch|TestSuperblockRandomToggle' ./internal/riscv >/dev/null
go test -count=1 -run 'TestPartialIdleSkipEquivalence' ./internal/soc >/dev/null

echo "== node-MIPS regression smoke =="
# The fast paths must pay for their complexity against the per-cycle path
# measured in the same run: the quiescent skip on an idle WFI rack (gate
# 5x, measured ~1000x), the full fast-path stack on an instruction-dense
# workload (gate 3x, measured 3.7-5.6x), and block dispatch alone in the
# superblock A-B (gate 1.3x, measured 1.6-2.1x).
go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 2 \
    -node-nodes 4 -node-rounds 256 \
    -idle-min-speedup 5 -dense-min-speedup 3.0 -sb-min-speedup 1.3 \
    -out "$(mktemp)" >/dev/null

echo "== metrics overhead gate (2 nodes) =="
# Leaving the obs instruments attached must cost under 5% on a loaded
# 2-node rack, both schedulers. The estimator alternates base and
# instrumented regions on one warm cluster and takes the median of
# flank-normalised ratios, but a single invocation can still catch a
# host-frequency swing mid-sequence; a real regression fails every
# attempt, so up to three tries de-flakes the gate without loosening it.
OVERHEAD_OK=0
for attempt in 1 2 3; do
    if go run ./cmd/firesim bench -nodes 2 -rounds 2048 -reps 5 \
        -node-nodes 0 -max-overhead-pct 5 -out "$(mktemp)" >/dev/null; then
        OVERHEAD_OK=1
        break
    fi
    echo "   attempt $attempt exceeded the overhead gate, retrying"
done
[ "$OVERHEAD_OK" = 1 ] || { echo "FAIL: 2-node metrics overhead above 5% on 3 attempts" >&2; exit 1; }

echo "== scale-curve gate (Fig. 9 shape) =="
# The sim-rate-vs-scale curve must keep its shape: growing the target from
# 64 nodes (8x8 tree) to 256 (4x8x8) multiplies the per-cycle work by ~4x
# plus two extra switch tiers, so the 256-node rate lands around 0.15-0.2
# of the 64-node rate here. The 0.08 floor only trips when the datapath
# cost grows super-linearly with scale (per-round allocation, egress-queue
# retention) — exactly the regressions the zero-alloc switch work removed.
# Retried like the other perf gates: a real regression fails every attempt.
SCALE_OK=0
for attempt in 1 2 3; do
    if go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 \
        -scale-nodes 8,64,256 -scale-rounds 256 -scale-reps 2 \
        -scale-min-frac 0.08 -out "$(mktemp)" >/dev/null; then
        SCALE_OK=1
        break
    fi
    echo "   attempt $attempt missed the scale-curve gate, retrying"
done
[ "$SCALE_OK" = 1 ] || { echo "FAIL: 256-node sim rate below 0.08 of the 64-node rate on 3 attempts" >&2; exit 1; }

if [ "${FIRESIM_CHECK_HEAVY:-0}" = 1 ]; then
    echo "== full-datacenter scale point (1024 nodes, FIRESIM_CHECK_HEAVY) =="
    # The paper's complete 4x8x32 datacenter topology as the tail of the
    # Fig. 9 curve. Opt-in: deploying and ticking ~1100 endpoints
    # multiplies the gate's wall time, so the default run stops at 256.
    # The same 0.08 shape floor applies between the two largest sizes
    # (1024 vs 256 here).
    timeout 600 go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 \
        -scale-nodes 8,64,256,1024 -scale-rounds 256 -scale-reps 2 \
        -scale-min-frac 0.08 -out "$(mktemp)" >/dev/null
fi

echo "== checkpoint determinism smoke =="
# Run, checkpoint, run on, restore, re-run: final state must be
# bit-identical, under both runners. Exits non-zero on divergence.
go run ./cmd/firesim snap verify -nodes 4 -cycles 2048 -extra 2048 >/dev/null
go run ./cmd/firesim snap verify -nodes 4 -cycles 2048 -extra 2048 -parallel >/dev/null

echo "== distributed chaos smoke =="
# A 3-process, 8-node self-healing run: one shard SIGKILLed, another
# stalled long enough for the progress watchdog, healed from coordinated
# checkpoints, and -verify proves the result bit-identical to an
# undisturbed in-process run. The parallel pass adds a SIGSTOP victim
# (caught by lease expiry, not the watchdog) and a respawn budget. The
# hard timeout guards the gate itself against a supervision deadlock —
# the one bug class this subsystem exists to rule out.
timeout 180 go run ./cmd/firesim run-dist -nodes 8 -procs 3 \
    -horizon 16384 -ckpt-every 2048 \
    -chaos 'kill:shard1@4096,stall:shard2@10240+5000' \
    -verify -quiet
timeout 180 go run ./cmd/firesim run-dist -nodes 8 -procs 3 \
    -horizon 16384 -ckpt-every 2048 -parallel -respawns 2 \
    -chaos 'kill:shard1@4096,stop:shard0@6144,stall:shard2@10240+5000' \
    -verify -quiet

echo "== 256-node multi-level-cut chaos smoke =="
# The paper's 4x8x8 tree cut below the aggregation tier: 32 ToR units over
# 4 shard processes with the root and aggregation switches in the
# coordinator. One shard is SIGKILLed mid-run and its units re-packed onto
# the survivors, then a stall trips the progress watchdog; the healed
# 256-node run must still be bit-identical to the undisturbed in-process
# reference, component by component.
timeout 180 go run ./cmd/firesim run-dist -tree 4,8,8 -cut-level 2 -procs 4 \
    -horizon 16384 -ckpt-every 2048 \
    -chaos 'kill:shard1@4096,stall:shard2@10240+5000' \
    -verify -quiet

echo "== distributed token-plane gate =="
# The dist bench pass: an 8-node, 3-process loopback-TCP run per variant,
# each checked bit-identical against the same spec in-process before any
# number is reported. Gates the v3 wire codec's compression against the
# v2 fixed-width baseline at both ends of the operating range (idle
# windows must shrink >=3x, half-line-rate dense windows >=1.5x) and the
# dense variant's sim rate against the in-process run (>=0.01 of it —
# measured ~0.05; the floor trips if the exchange path regresses to
# multiple RTTs per window). The hard timeout guards against a bridge
# deadlock; retries de-flake the rate floor on a loaded host, a real
# regression fails every attempt.
DIST_OK=0
for attempt in 1 2 3; do
    if timeout 180 go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 \
        -dist-nodes 8 -dist-procs 3 \
        -dist-idle-min-ratio 3 -dist-dense-min-ratio 1.5 -dist-min-frac 0.01 \
        -out "$(mktemp)" >/dev/null; then
        DIST_OK=1
        break
    fi
    echo "   attempt $attempt missed the dist token-plane gate, retrying"
done
[ "$DIST_OK" = 1 ] || { echo "FAIL: distributed token-plane gate on 3 attempts" >&2; exit 1; }

echo "== snapshot fuzz (short) =="
# A few seconds of coverage-guided fuzzing over the snapshot decoder: the
# Reader must never panic on malformed streams.
go test ./internal/snapshot -run '^$' -fuzz FuzzReader -fuzztime 5s >/dev/null

echo "OK"
