#!/bin/sh
# Full verification gate, equivalent to `make check` for environments
# without make. Runs vet, build, the entire test suite under the race
# detector (the morsel-driven parallel executor runs real goroutines, so
# -race is part of the contract, not a nicety), and a short parser fuzz.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -fuzz FuzzParseScript -fuzztime 10s ./internal/sqlparser"
go test -run '^$' -fuzz FuzzParseScript -fuzztime 10s ./internal/sqlparser

# The wire-protocol decoder must turn any malformed frame into an error,
# never a panic or a hang; see internal/wire/fuzz_test.go.
echo "==> go test -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire"
go test -run '^$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire

# Any single-byte corruption of a checksummed frame must surface as
# wire.ErrCorruptFrame — never as a silently garbled frame.
echo "==> go test -fuzz FuzzFrameCorruption -fuzztime 10s ./internal/wire"
go test -run '^$' -fuzz FuzzFrameCorruption -fuzztime 10s ./internal/wire

# WAL replay must treat any byte sequence as a possibly-torn log tail:
# scan to the first invalid record, never panic, never mis-frame. Seeded
# from the committed golden corpus of truncated/bit-flipped tails.
echo "==> go test -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal"
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal

# The shared row codec must reject malformed tuples without panicking or
# over-allocating, and re-encode every accepted input to the same bytes.
echo "==> go test -fuzz FuzzDecodeTuple -fuzztime 10s ./internal/rowcodec"
go test -run '^$' -fuzz FuzzDecodeTuple -fuzztime 10s ./internal/rowcodec

# Chaos pass: the full 250-round seeded fault-injection sweep, three
# times under the race detector (as `make chaos`). The short pass missed
# a DML path racing concurrent queries that the full sweep catches on
# its first run. -count also defeats the test cache.
echo "==> go test -race -count=3 -run TestChaosFaultInjection ./internal/engine"
go test -race -count=3 -run TestChaosFaultInjection ./internal/engine

# Short storm pass: the multi-client admission storm plus the mid-storm
# drain check (the full-length storm is `make storm`).
echo "==> go test -race -short -run 'TestChaosStorm|TestDrainUnderFaults' ./internal/engine"
go test -race -short -count=1 -run 'TestChaosStorm|TestDrainUnderFaults' ./internal/engine

# Short memory-pressure storm: tiny-budget queries through admission and
# forced spilling with spill I/O faults armed — completions must match
# the unbudgeted oracle byte-for-byte, failures must be typed, and no
# spill or temp file may survive (the full-length storm is
# `make memstorm`).
echo "==> go test -race -short -run 'TestMemPressureStorm|TestSpill' ./internal/engine"
go test -race -short -count=1 -run 'TestMemPressureStorm|TestSpillCompletesUnderSmallBudget|TestSpillCorruptRunDetected|TestSpillTimeoutLeakFree' ./internal/engine

# Metamorphic correctness gate: 200 fixed-seed query pairs with provable
# set relations run through every execution regime (sequential, parallel,
# nested iteration, live network), plus the mutant check that Kim's
# retained COUNT bug is caught within the same budget — proof the oracle
# has teeth. Violations print a minimized repro script verbatim. The long
# seeded pass is `make metamorph ROUNDS=...`.
echo "==> go test -race -run 'TestMetamorph(Short|Faults|TightMemory|CatchesKimMutant)|TestGoldenRepros' ./internal/metamorph"
go test -race -count=1 -run 'TestMetamorph(Short|Faults|TightMemory|CatchesKimMutant)|TestGoldenRepros' ./internal/metamorph

# Short crash-safety gate: the durability suite plus reduced-round
# crash storms — in-process (abandoned engines, injected WAL tears) and
# subprocess (a -race daemon SIGKILLed mid-burst, 4 rounds). Recovery
# must equal exactly the acked commits; no leaked WAL or snapshot
# files. The full 16-round storm is `make crash`.
echo "==> go test -race -short -run 'TestDurability|TestCrashStorm|TestGoldenCorpus' ./internal/engine ./internal/wal"
go test -race -short -count=1 -run 'TestDurability|TestCrashStorm|TestGoldenCorpus' ./internal/engine ./internal/wal
echo "==> CRASH_STORM_SHORT=1 go test -race -short -run TestCrashStormKill9 ./cmd/nestedsqld"
CRASH_STORM_SHORT=1 go test -race -short -count=1 -run TestCrashStormKill9 ./cmd/nestedsqld

# Network chaos storm: clients through the seeded fault-injecting proxy
# (delays, split writes, corruption, truncation, drops, partitions).
# Completed results must match the in-process oracle byte-for-byte;
# failures must be typed; nothing may leak afterwards. Fixed seed, so a
# failure here replays (see internal/server/netchaos_test.go).
echo "==> go test -race -run TestNetChaosStorm ./internal/server"
go test -race -count=1 -run TestNetChaosStorm ./internal/server

# Distributed gate: the sharded NEST-JA2 acceptance diff (3 workers vs
# the single-node oracle, co-located and shuffled placements) and the
# multi-node chaos storm with every worker link behind the fault proxy.
echo "==> go test -race -run 'TestDistributedNestJA2|TestClusterChaosStorm' ./internal/cluster"
go test -race -count=1 -run 'TestDistributedNestJA2|TestClusterChaosStorm' ./internal/cluster

# Failover gate: the deterministic replica-failover drill (dead worker,
# rerouted queries, DML on the survivor, snapshot rejoin), the fast
# ErrWorkerLost surface check, the replication-aware Analyze refusal
# table, and the failover storm — a -race worker SIGKILLed and
# restarted empty under concurrent DML + queries. Every acked row must
# be present exactly once after the fleet heals. The same gate is
# `make cluster-failover`.
echo "==> FAILOVER_STORM_SHORT=1 go test -race -short -run 'TestClusterFailover|TestWorkerLostFastFailure|TestClusterAnalyzeRefusals' ./internal/cluster"
FAILOVER_STORM_SHORT=1 go test -race -short -count=1 -run 'TestClusterFailover|TestWorkerLostFastFailure|TestClusterAnalyzeRefusals' ./internal/cluster

# End-to-end serving smoke: nestedsqld + the Go client + the load
# harness, including graceful SIGTERM with in-flight streams and a
# client killed mid-stream.
echo "==> scripts/serve_smoke.sh"
./scripts/serve_smoke.sh

echo "==> all checks passed"
