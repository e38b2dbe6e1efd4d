#!/usr/bin/env bash
# Full local gate: static checks, build, the test suite under the race
# detector, one quick pass of the repository benchmark (plain and traced),
# and the checkpoint, example, distributed-chaos and snapshot-fuzz smokes.
# Performance is judged by `go run ./bench` against BENCHMARK.json, not
# here: every step below is pass/fail and none is retried. Run from
# anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet, gofmt =="
go vet ./...
test -z "$(gofmt -l .)"

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race -count=1 ./...

echo "== benchmark, quick (plain and traced) =="
# Both passes verify every workload against its oracle and exit non-zero
# when any check fails (failed > 0). Tracing must not perturb the target:
# the two passes must print the same target_digest for every workload.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go run ./bench -quick -out "$out/plain" >"$out/plain.txt"
go run ./bench -quick -trace 1 -out "$out/trace" >"$out/trace.txt"
grep target_digest "$out/plain.txt" >"$out/plain.digest" ||
    { echo "FAIL: no target_digest lines" >&2; exit 1; }
grep target_digest "$out/trace.txt" >"$out/trace.digest" || true
diff "$out/plain.digest" "$out/trace.digest" ||
    { echo "FAIL: traced pass changed a target_digest" >&2; exit 1; }

echo "== checkpoint determinism smoke =="
# Run, checkpoint, run on, restore, re-run: final state must be
# bit-identical, under both runners. Exits non-zero on divergence.
go run ./cmd/firesim snap verify -nodes 4 -cycles 2048 -extra 2048 >/dev/null
go run ./cmd/firesim snap verify -nodes 4 -cycles 2048 -extra 2048 -parallel >/dev/null
# firesim top has no unit tests: drive it once end to end.
go run ./cmd/firesim top -nodes 4 -slices 2 -horizon-us 50 >/dev/null

echo "== examples =="
# The examples have no unit tests: run the two quick ones end to end.
go run ./examples/quickstart >/dev/null
go run ./examples/memcached-qos >/dev/null

echo "== distributed chaos smoke =="
# Self-healing multi-process runs: shards SIGKILLed, SIGSTOPped and stalled
# mid-run, healed from coordinated checkpoints, and -verify proves each
# result bit-identical to an undisturbed in-process run, component by
# component. The third run is the paper's 4x8x8 tree cut below the
# aggregation tier (32 ToR units over 4 shards). The hard timeouts guard
# against a supervision deadlock.
timeout 180 go run ./cmd/firesim run-dist -nodes 8 -procs 3 \
    -horizon 16384 -ckpt-every 2048 \
    -chaos 'kill:shard1@4096,stall:shard2@10240+5000' \
    -verify -quiet
timeout 180 go run ./cmd/firesim run-dist -nodes 8 -procs 3 \
    -horizon 16384 -ckpt-every 2048 -parallel -respawns 2 \
    -chaos 'kill:shard1@4096,stop:shard0@6144,stall:shard2@10240+5000' \
    -verify -quiet
timeout 180 go run ./cmd/firesim run-dist -tree 4,8,8 -cut-level 2 -procs 4 \
    -horizon 16384 -ckpt-every 2048 \
    -chaos 'kill:shard1@4096,stall:shard2@10240+5000' \
    -verify -quiet

echo "== snapshot, restore-payload, frame, token-batch, control, switch-window and token-run fuzz (short) =="
# A few seconds of coverage-guided fuzzing over the snapshot decoder, the
# component decoders behind valid framing (FuzzRestorePayload), the frame
# parsers, the bridge's v3 batch decoder, the shard control protocol and
# the switch's window split: the Reader must never panic on malformed
# streams, a checkpoint whose section payload is corrupt but correctly
# framed must restore or error without a panic, the frame parsers must
# never panic and an accepted frame must re-encode to its bytes, the batch
# decoder (with the per-frame sequence check, the bridge's only defence
# against a malformed peer) must reject or round-trip every input, every
# spec an assign frame carries must be built or refused by the topology
# builder without a panic, a switch fed one ingress stream in any window
# split must emit the same tokens, stats and checkpoint bytes, and a token
# batch built by any sequence of Put, PutRun, Filter and Mutate must match
# a dense one-token-at-a-time oracle and checkpoint to an equal batch
# (FuzzBatchRuns).
go test ./internal/snapshot -run '^$' -fuzz FuzzReader -fuzztime 5s >/dev/null
go test ./internal/manager -run '^$' -fuzz FuzzRestorePayload -fuzztime 3s >/dev/null
go test ./internal/ethernet -run '^$' -fuzz FuzzParseFrame -fuzztime 3s >/dev/null
go test ./internal/transport -run '^$' -fuzz FuzzReadBatchV3 -fuzztime 3s >/dev/null
go test ./internal/manager -run '^$' -fuzz FuzzControlRead -fuzztime 3s >/dev/null
go test ./internal/switchmodel -run '^$' -fuzz FuzzSwitchWindowSplit -fuzztime 3s >/dev/null
go test ./internal/token -run '^$' -fuzz FuzzBatchRuns -fuzztime 3s >/dev/null

echo "OK"
