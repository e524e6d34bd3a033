# The paper-reproduction simulator is pure Go; these targets wrap the
# toolchain invocations the project treats as canonical.

.PHONY: build test lint prove check model bench benchsmoke benchab pgo report mmudsmoke

build:
	go build ./...

test:
	go test ./...

# lint runs the mmulint hygiene suite (tools/analyzers): the cyclecost,
# invariantcheck, and registry disciplines, enforced statically. check
# runs this too; lint alone is the fast iteration loop while annotating.
lint:
	go run ./cmd/mmulint ./...

# prove runs the mmuprove whole-program proof passes: transitive
# noalloc over the call graph, determinism of byte-identical-output
# packages, hwmon↔mmtrace parity, model↔kernel transition parity,
# phase-span balance, the guardedby mutex discipline (every annotated
# field access provably under its lock), and the lockorder pinned
# acquisition DAG. check runs this too.
prove:
	go run ./cmd/mmuprove ./...

# model runs the mmumodel gates by hand: exhaustive exploration of the
# context-switch/MM state machine, the seeded kernel refinement, and
# the mutation gate (the planted mmumutant kernel bug must yield a
# counterexample — the `!` inverts mmumodel's exit status). check runs
# the first two; CI runs all three.
model:
	go run ./cmd/mmumodel -cpus 2 -tasks 3 -mms 2 -gens 2
	go run ./cmd/mmumodel -refine -tasks 3 -mms 2 -gens 3 -walks 25 -steps 60
	! go run -tags mmumutant ./cmd/mmumodel -refine -walks 25 -steps 60

# check is the tier-1 gate: build, vet, gofmt, mmulint, mmuprove, and
# the race-enabled test suite. Run it before sending changes.
check:
	sh scripts/check.sh

# bench regenerates BENCH_harness.json (sequential vs parallel harness
# timing, per-experiment sim cycles and counter checksums; see
# README.md). Regenerate it whenever simulated counters intentionally
# change — benchsmoke holds future runs to its checksums.
bench: build
	go run ./cmd/mmureport -benchjson BENCH_harness.json

# benchsmoke verifies the committed bench baseline still reproduces:
# per-experiment counter checksums, -j determinism, and a fresh,
# buildable PGO profile. CI runs this; wall times are NOT compared.
benchsmoke:
	sh scripts/bench_smoke.sh

# benchab is the same-host A/B of the perfbench benchmark: BASE (by
# default HEAD, so run it before committing) against the working tree,
# 10 interleaved same-seed pairs per workload at BENCHMARK.json's
# run_seconds, with per-metric medians, min-max spreads and a per-seed
# counter-checksum check. Performance claims quote its output.
BASE ?= HEAD
benchab:
	sh scripts/bench_ab.sh $(BASE)

# mmudsmoke drives the mmud daemon end to end over HTTP: cache-hit
# byte-identity, a chaos audit, SIGTERM drain, and journal replay.
# CI runs this and uploads the journal as an artifact.
mmudsmoke:
	sh scripts/mmud_smoke.sh

# pgo regenerates cmd/mmureport/default.pgo — the profile `go build`
# applies automatically when compiling the harness — from two merged
# quick-scale -all runs. Regenerate after changing hot simulation code.
pgo: build
	go build -o /tmp/mmureport_pgogen ./cmd/mmureport
	/tmp/mmureport_pgogen -all -j 1 -cpuprofile /tmp/mmureport_pgo1.pprof > /dev/null
	/tmp/mmureport_pgogen -all -j 1 -cpuprofile /tmp/mmureport_pgo2.pprof > /dev/null
	go tool pprof -proto /tmp/mmureport_pgo1.pprof /tmp/mmureport_pgo2.pprof > cmd/mmureport/default.pgo
	rm -f /tmp/mmureport_pgogen /tmp/mmureport_pgo1.pprof /tmp/mmureport_pgo2.pprof

report: build
	go run ./cmd/mmureport -all
