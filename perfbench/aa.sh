#!/usr/bin/env bash
# A/A check: runs the benchmark on the same code as two sets of runs,
# each run with its own seed, and compares the sets metric by metric
# (perfbench/aacompare). Run it from the root of a checkout:
#
#   bash perfbench/aa.sh [runs per set, default 10] [workload ...]
#
# Results land in .bench_build/aa/<workload>.{a,b}.jsonl.
set -euo pipefail
n=${1:-10}
shift || true
if [ $# -eq 0 ]; then
	set -- sweep-cold serve-jobs
fi
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
out=.bench_build/aa
mkdir -p "$out"
for w in "$@"; do
	for set in a b; do
		base=1
		[ "$set" = b ] && base=101
		: >"$out/$w.$set.jsonl"
		for i in $(seq 0 $((n - 1))); do
			bash perfbench/run.sh --workload "$w" --seed $((base + i)) --seconds "$secs" --trace 0 |
				tail -n 1 >>"$out/$w.$set.jsonl"
		done
	done
done
status=0
for w in "$@"; do
	echo "== $w"
	GOCACHE="$PWD/.bench_build/gocache" go -C perfbench run ./aacompare -bench ../BENCHMARK.json \
		"../$out/$w.a.jsonl" "../$out/$w.b.jsonl" || status=1
done
exit $status
