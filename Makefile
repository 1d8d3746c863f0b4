# The fmt/vet/build/test/race/flake recipes below are the CI contract:
# they must stay byte-for-byte identical to the run: lines of the `test`
# job in .github/workflows/ci.yml (TestMakefileMatchesWorkflow enforces
# it), so local `make ci` and the workflow can never drift.

.PHONY: ci fmt vet build test race flake bench json loadtest crashtest clustertest chaostest fuzz-smoke cover

ci: fmt vet build test race flake

fmt:
	test -z "$$(gofmt -l .)"

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/par/... ./internal/jp/... ./internal/dynamic/... ./internal/speculate/... ./internal/service/... ./internal/cluster/... ./internal/faultinject/... ./internal/retry/... ./internal/obs/... ./internal/recolor/... ./internal/quality/... ./internal/order/... ./internal/spec/... ./internal/greedy/... ./internal/proptest/... ./internal/mex/...

# flake is the flake gate: the packages whose tests race real
# listeners, WALs and background compactions, run 20 times under the
# race detector, so a test that fails one run in twenty fails CI.
flake:
	go test -race -count=20 ./internal/service/ ./internal/store/ ./internal/cluster/

bench:
	go test -run '^$$' -bench 'BenchmarkTable2Orderings|BenchmarkJP' -benchtime 3x .

json:
	go run ./cmd/colorbench -json BENCH_local.json

# loadtest starts colord, drives it with colorload (>= 8 concurrent
# clients, >= 200 requests against a scale-12 Kronecker graph, 20% of
# them mutation batches, every returned coloring verified client-side
# against the replayed mutation log) and prints the latency summary and
# cache hit rate. Tune via COLORD_ADDR/LOAD_CLIENTS/LOAD_REQUESTS/
# LOAD_MUTATE.
loadtest:
	./scripts/loadtest.sh

# crashtest is the durability gate: colord killed with -9 mid mixed
# color/mutate run, restarted against the same --data-dir, and
# colorload -resume verifies version continuity and every post-restart
# coloring against its replayed mutation journal; ends with a graceful
# SIGTERM (drain + WAL flush) and a reboot from the compacted snapshot.
crashtest:
	./scripts/crashtest.sh

# clustertest is the scale-out gate: a 3-node colord cluster driven
# through a non-owner node, kill -9 of the target graph's primary
# mid-run (failover must lose zero acked mutations — verified by
# colorload -resume against its journal), then a restart of the old
# primary that must catch up to the replication watermark and rejoin.
clustertest:
	./scripts/clustertest.sh

# chaostest is the fault-injection gate: a 3-node cluster booted with
# -fault-injection and driven through the seeded failure matrix —
# failed WAL fsyncs (degraded persistence + compaction self-heal), a
# seeded slow replication path under verified load, compacted-away
# records healed by automated snapshot resync, an isolated primary
# fencing itself behind its expired lease, and a crash injected between
# replication and the local WAL append, with colorload -resume proving
# zero acked-mutation loss. Seeds via CHAOS_SEEDS.
chaostest:
	./scripts/chaostest.sh

# fuzz-smoke gives each fuzz target a short budget (the CI gate; seed
# corpora live in internal/graphio/testdata/fuzz and
# internal/store/testdata/fuzz). FuzzMutateRequestDecode checks the
# mutate body's edge decoder against encoding/json. Raise FUZZTIME
# locally for a real hunt.
FUZZTIME ?= 10s
fuzz-smoke:
	go test ./internal/graphio -run '^$$' -fuzz 'FuzzParseDIMACS$$' -fuzztime $(FUZZTIME)
	go test ./internal/graphio -run '^$$' -fuzz 'FuzzParseEdgeList$$' -fuzztime $(FUZZTIME)
	go test ./internal/graphio -run '^$$' -fuzz 'FuzzParseMatrixMarket$$' -fuzztime $(FUZZTIME)
	go test ./internal/store -run '^$$' -fuzz 'FuzzSnapshot$$' -fuzztime $(FUZZTIME)
	go test ./internal/store -run '^$$' -fuzz 'FuzzWAL$$' -fuzztime $(FUZZTIME)
	go test ./internal/service -run '^$$' -fuzz 'FuzzDecodeColorBin$$' -fuzztime $(FUZZTIME)
	go test ./internal/service -run '^$$' -fuzz 'FuzzMutateRequestDecode$$' -fuzztime $(FUZZTIME)

# cover enforces the >= 80% statement-coverage floor on the core
# packages (graph, jp, order, spec, verify, dynamic, store, cluster,
# faultinject, retry, gen, speculate, obs, recolor, quality, mex) and
# leaves the merged profile in coverage.out (uploaded as a CI artifact).
cover:
	./scripts/coverage.sh
