#!/bin/sh
# bench_smoke.sh — the harness performance-identity smoke. Wall times
# move with the host, so this gate checks everything about the bench
# that must NOT move:
#
#   1. the checked-in PGO profile (cmd/mmureport/default.pgo) parses,
#      and still profiles the batched cache path — a rename or removal
#      of the hot entry points makes the profile stale, and a stale
#      profile silently builds an unoptimized harness;
#   2. the harness builds with the profile applied explicitly;
#   3. a quick-scale bench run reproduces the committed
#      BENCH_harness.json experiment list and per-experiment hwmon
#      counter checksums exactly, and its sequential and parallel
#      outputs are byte-identical.
#
# A checksum diff here means simulated counters drifted: either a bug,
# or an intended behavior change that must regenerate the committed
# baseline with `make bench`.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo '== pgo profile freshness'
go tool pprof -top -nodecount=60 cmd/mmureport/default.pgo > "$tmp/pgo.top"
for sym in \
	'cache.(\*Cache).run' \
	'kernel.(\*Kernel).AccessRun' \
	'machine.(\*Machine).MemAccessRun'; do
	if ! grep -q "$sym" "$tmp/pgo.top"; then
		echo "bench_smoke: default.pgo has no samples for $sym — the profile is stale; regenerate it with 'make pgo'" >&2
		exit 1
	fi
done

echo '== build with the profile applied'
go build -pgo=cmd/mmureport/default.pgo -o "$tmp/mmureport" ./cmd/mmureport

echo '== quick-scale counter checksums vs committed BENCH_harness.json'
"$tmp/mmureport" -quick -benchjson "$tmp/bench.json"
for field in '"id"' '"counter_checksum"'; do
	grep "$field" BENCH_harness.json > "$tmp/want" || true
	grep "$field" "$tmp/bench.json" > "$tmp/got" || true
	if ! diff -u "$tmp/want" "$tmp/got"; then
		echo "bench_smoke: $field drifted from the committed BENCH_harness.json — simulated counters changed; if intended, regenerate the baseline with 'make bench'" >&2
		exit 1
	fi
done
if ! grep -q '"identical_output": true' "$tmp/bench.json"; then
	echo 'bench_smoke: sequential and parallel harness output differ — -j determinism is broken' >&2
	exit 1
fi

echo 'bench_smoke: counters identical, profile fresh, pgo build ok'
