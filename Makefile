.PHONY: verify test race vet fmt bench bench-scenarios bench-all chaos fuzz

# Full PR verify path: build, formatting, vet, tests, and race-checking of
# the concurrent engine + observability packages. See scripts/verify.sh.
verify:
	sh scripts/verify.sh

test:
	go test ./...

race:
	go test -race ./internal/core ./internal/obs ./internal/origin ./internal/faultinject ./internal/gateway ./internal/client ./cmd/oakgw

# Chaos suite: the full client -> origin -> engine -> persistence loop under
# injected transport faults, queue saturation and snapshot corruption, with
# the race detector on. See internal/faultinject.
chaos:
	go test -race -run Chaos -v ./internal/faultinject

# Short fuzz pass over the snapshot importer (hostile state files).
fuzz:
	go test -run '^$$' -fuzz FuzzImportState -fuzztime 10s ./internal/core

vet:
	go vet ./...

fmt:
	gofmt -l -w .

# End-to-end benchmark: page and report latency, CPU per op, RSS and
# set-up time on each of perfbench's four workloads (perfbench/README.md;
# --trace 1 adds the per-layer metrics). Records land in
# .bench_build/results/.
bench:
	for w in ingest serve cold cluster; do sh perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; done

# Scenario matrix + BENCH_scenarios.json (decision quality per scenario:
# violator precision/recall, time-to-mitigation, degraded pages, sheds,
# breaker trips, state recoveries). Deterministic per spec seed; exits
# non-zero if any scenario misses a floor in its expect block.
bench-scenarios:
	go run ./cmd/oakbench scenario -out BENCH_scenarios.json all

# Every benchmark in the repo, raw output only.
bench-all:
	go test -bench=. -benchmem ./...
