#!/bin/sh
# bench_ab.sh — a same-host A/B comparison of the perfbench benchmark
# between a base revision and the working tree (head).
#
#   sh scripts/bench_ab.sh <base-rev> [workload...]
#
# The base revision is exported (git archive) into a temporary
# directory, so the repository and its working tree are left as they
# are. Each side builds and runs with its own perfbench/run.sh, exactly
# as BENCHMARK.json runs it, for BENCHMARK.json's run_seconds. For every
# workload the script interleaves 10 end-to-end runs (--trace 0) per
# side, alternating which side goes first; run i of both sides uses
# seed 100+i. The workloads are all three (kbuild, scatter,
# lmbench-traced) unless some are named.
#
# It prints, per workload and end-to-end metric, the median and min–max
# of each side, the change of the medians, in how many same-seed pairs
# head beat base (every metric is lower-is-better), and flags (`*`)
# every change larger than the wider of the two sides' min–max spreads.
# It then checks that both sides report the same counter checksum for
# every seed — the simulated work must be identical — and exits 1 if
# any differs, or if any run fails.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: sh scripts/bench_ab.sh <base-rev> [workload...]" >&2
	exit 2
fi
base_rev=$1
shift
workloads=${*:-kbuild scatter lmbench-traced}
runs=10

cd "$(dirname "$0")/.."
head_dir=$(pwd)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$seconds" ]; then
	echo "bench_ab: no run_seconds in BENCHMARK.json" >&2
	exit 2
fi
base_sha=$(git rev-parse --short "$base_rev^{commit}")
head_sha=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	head_sha="$head_sha+modified"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/out"
git archive "$base_sha" | tar -x -C "$tmp/base"

# bench <side> <workload> <run>: one end-to-end run of one side.
bench() {
	if [ "$1" = base ]; then dir=$tmp/base; else dir=$head_dir; fi
	out="$tmp/out/$2.$1.$3"
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$2" --seed $((100 + $3)) \
		--seconds "$seconds" --trace 0) > "$out" 2> "$tmp/stderr"; then
		echo "bench_ab: $1 run $3 of $2 failed:" >&2
		cat "$tmp/stderr" >&2
		exit 1
	fi
}

echo "bench_ab: base $base_sha vs head $head_sha; $runs interleaved runs per side and workload, ${seconds} s each, seeds 101-$((100 + runs))"
for w in $workloads; do
	i=1
	while [ "$i" -le "$runs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			bench base "$w" "$i"
			bench head "$w" "$i"
		else
			bench head "$w" "$i"
			bench base "$w" "$i"
		fi
		i=$((i + 1))
	done
done

# stats <workload> <side> <metric>: "median min max" over the side's runs.
stats() {
	cat "$tmp/out/$1.$2".[0-9]* | awk -v m="$3" '$1 == "metric" && $2 == m { print $3 }' |
		sort -g | awk '{ v[NR] = $1 }
		END {
			if (NR == 0) { print "nan nan nan"; exit }
			med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
			print med, v[1], v[NR]
		}'
}

# wins <workload> <metric>: in how many seeds head's value is below base's.
wins() {
	i=1 n=0
	while [ "$i" -le "$runs" ]; do
		n=$((n + $(awk -v m="$2" '$1 == "metric" && $2 == m { v[FILENAME] = $3 }
			END { print (v[ARGV[2]] < v[ARGV[1]]) ? 1 : 0 }' "$tmp/out/$1.base.$i" "$tmp/out/$1.head.$i")))
		i=$((i + 1))
	done
	echo "$n/$runs"
}

status=0
printf '\n%-15s %-16s %26s %26s %9s %6s\n' workload metric 'base median [min-max]' 'head median [min-max]' change wins
for w in $workloads; do
	for m in setup_s pass_s op_p50_ms op_p90_ms host_ns_per_ref peak_rss_mb; do
		set -- $(stats "$w" base "$m") $(stats "$w" head "$m") $(wins "$w" "$m")
		awk -v w="$w" -v m="$m" -v bm="$1" -v bl="$2" -v bh="$3" -v hm="$4" -v hl="$5" -v hh="$6" -v won="$7" 'BEGIN {
			spread = bh - bl
			if (hh - hl > spread) spread = hh - hl
			d = hm - bm
			flag = ((d > 0 ? d : -d) > spread) ? "*" : ""
			printf "%-15s %-16s %10.4g [%.4g-%.4g] %10.4g [%.4g-%.4g] %+8.1f%% %6s %s\n",
				w, m, bm, bl, bh, hm, hl, hh, (bm != 0 ? 100 * d / bm : 0), won, flag
		}'
	done
done
echo '(* = the change of the medians exceeds the wider min-max spread of the two sides)'

echo
for w in $workloads; do
	same=0 failed=0
	i=1
	while [ "$i" -le "$runs" ]; do
		b=$(awk '$1 == "workload" { print $10 }' "$tmp/out/$w.base.$i")
		h=$(awk '$1 == "workload" { print $10 }' "$tmp/out/$w.head.$i")
		failed=$((failed + $(awk '$1 == "workload" { s += $8 } END { print s + 0 }' "$tmp/out/$w.base.$i" "$tmp/out/$w.head.$i")))
		if [ -n "$b" ] && [ "$b" = "$h" ]; then
			same=$((same + 1))
		else
			echo "bench_ab: $w seed $((100 + i)): counter checksum base $b, head $h" >&2
			status=1
		fi
		i=$((i + 1))
	done
	echo "checksums: $w $same/$runs seeds equal; failed operations: $failed"
	if [ "$failed" -ne 0 ]; then
		status=1
	fi
done
exit "$status"
