# Developer entry points. `make check` is the full gate: vet, build,
# the whole test suite under the race detector (the parallel executor
# makes -race load-bearing, not optional), and a short run of the
# parser fuzz target. See README "Checks" for what each layer covers.

GO ?= go

.PHONY: check vet build test race fuzz chaos storm memstorm netchaos cluster cluster-failover crash serve-smoke metamorph bench

check: vet build race fuzz chaos storm memstorm netchaos cluster cluster-failover crash serve-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseScript -fuzztime 10s ./internal/sqlparser
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzFrameCorruption -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzDecodeTuple -fuzztime 10s ./internal/rowcodec

# The seeded fault-injection suite: the generated-query corpus executed
# against a fault-injecting store (read errors, latency, torn temp
# writes), asserting every fault becomes a clean typed error — never a
# panic, hang, goroutine leak, or leaked temp file. The full sweep runs
# three times under the race detector, which is what catches a DML path
# racing concurrent queries; -count also defeats the test cache.
chaos:
	$(GO) test -race -count=3 -v -run TestChaosFaultInjection ./internal/engine

# The multi-client chaos storm: 8 clients hammer one engine through the
# admission gateway with faults armed, then the engine drains to zero.
# Every query must end oracle-correct or with a typed error, the memory
# pool must never overcommit, and nothing may leak.
storm:
	$(GO) test -race -count=1 -v -run 'TestChaosStorm|TestDrainUnderFaults' ./internal/engine

# The memory-pressure storm: concurrent clients run the corpus under
# byte budgets far below their working sets, through the admission
# gateway (pressure-sized leases), with spill I/O faults armed. Queries
# must either complete — sequential plans byte-identical to the
# unbudgeted oracle — or fail typed; afterwards zero spill files, zero
# temp files, baseline goroutines. Bounded rounds, fixed seed. The
# companion tests pin the whole degradation ladder (budget kills the
# query without spill, completes with it; corrupt runs fail typed).
memstorm:
	$(GO) test -race -count=1 -v -run 'TestMemPressureStorm|TestSpillCompletesUnderSmallBudget|TestSequentialBudgetCharged|TestSpillForcedMatchesOracle|TestSpillCorruptRunDetected|TestSpillTimeoutLeakFree|TestMetamorphTightMemory' ./internal/engine ./internal/metamorph

# The kill -9 recovery storm: the durability suite, the in-process
# crash storm (engines abandoned mid-commit with WAL tears injected),
# and the full 16-round subprocess storm — a -race nestedsqld SIGKILLed
# mid-DML-burst over and over, each reboot byte-compared against an
# oracle holding exactly the acknowledged commits. Zero leaked WAL or
# snapshot files allowed.
crash:
	$(GO) test -race -count=1 -v -run 'TestDurability|TestCrashStorm|TestGoldenCorpus' ./internal/engine ./internal/wal
	$(GO) test -race -count=1 -v -run TestCrashStormKill9 ./cmd/nestedsqld

# The network chaos storm: clients hammer a live server through the
# seeded fault-injecting TCP proxy (internal/netfault) — delays, split
# writes, corruption, truncation, drops, partitions. Every completed
# result must be byte-identical to the in-process oracle; every failure
# typed; no goroutine, admission-slot, or pool-lease leaks afterwards.
netchaos:
	$(GO) test -race -count=1 -v -run TestNetChaosStorm ./internal/server

# The distributed gate: NEST-JA2 and the rest of the distributable mix
# on 3 sharded workers, byte-diffed (canonically sorted) against the
# single-node sequential oracle under both placements (co-located and
# shuffle-forcing), plus the multi-node chaos storm — every worker link
# behind a seeded fault proxy while a coordinator-fronted server takes
# outer clients. Completed results must equal the oracle; failures must
# be typed; workers must quiesce; no goroutine leaks.
cluster:
	$(GO) test -race -count=1 -v -run 'TestDistributedNestJA2|TestClusterChaosStorm' ./internal/cluster

# The failover gate: replicated shards surviving a dead node. The
# deterministic drill (proxy-killed worker: queries reroute, DML lands
# on the survivor, rejoin re-ships a snapshot), the fast typed
# ErrWorkerLost check, the replication-aware Analyze refusal table, and
# the SIGKILL storm — a -race worker killed and restarted empty under
# concurrent DML + queries, every acked row present exactly once after
# the fleet heals.
cluster-failover:
	$(GO) test -race -count=1 -v -run 'TestClusterFailover|TestWorkerLostFastFailure|TestClusterAnalyzeRefusals' ./internal/cluster

# End-to-end serving gate: boots nestedsqld on a random port, streams
# the paper workload through the Go client from 8 concurrent
# connections, diffs every result against the in-process sequential
# oracle, and SIGTERMs the server (idle and mid-run) expecting exit 0.
serve-smoke:
	./scripts/serve_smoke.sh

# The long metamorphic correctness pass: seeded random query pairs with
# provable set relations (internal/metamorph), executed through every
# regime — sequential, parallel, nested iteration, live network — with
# shrinking armed. Failures print a minimized repro script and land in
# $(METAMORPH_CORPUS) (default: $TMPDIR/metamorph-corpus). Override the
# budget and seed: `make metamorph ROUNDS=10000 SEED=42`. The short
# deterministic pass runs inside `make check`/`race` as TestMetamorphShort.
ROUNDS ?= 2000
SEED ?=
metamorph:
	METAMORPH_ROUNDS=$(ROUNDS) METAMORPH_SEED=$(SEED) \
		$(GO) test -race -count=1 -v -run TestMetamorphLong ./internal/metamorph

bench:
	$(GO) test -bench . -benchmem .
