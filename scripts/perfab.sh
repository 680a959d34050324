#!/usr/bin/env bash
# perfab.sh - same-host A/B of the simulator benchmark (perfbench)
# between a base revision and the working tree.
#
#   scripts/perfab.sh <base-rev> <workload> [pairs=10] [seconds=10] [seed=42]
#
# Builds perfbench from a temporary git worktree of <base-rev> and from
# the working tree, then runs <pairs> pairs of
# `perfbench --workload <workload> --seed <seed> --seconds <seconds> --trace 0`,
# alternating which side goes first. Each side runs from its own tree.
# For every end-to-end metric in BENCHMARK.json it prints both sides'
# median and quartiles and the number of pairs the working tree won
# (strictly better in the metric's direction), then one JSON summary
# line with the host, toolchain and the same figures. It fails if any
# run reports "correct": false; only seed 42 is also checked against the
# committed reference digests. Temporary files go under $TMPDIR.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
	echo "usage: $0 <base-rev> <workload> [pairs=10] [seconds=10] [seed=42]" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-10} seed=${5:-42}
command -v jq >/dev/null || { echo "perfab: jq not found" >&2; exit 1; }

root=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$root" rev-parse --short "$base_rev^{commit}")
head_commit=$(git -C "$root" rev-parse --short HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
	head_commit="$head_commit+dirty"
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfab.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/base" "$base_commit" >/dev/null 2>&1

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$tmp/base/perfbench" && go build -o "$tmp/perfbench-base" .)
(cd "$root/perfbench" && go build -o "$tmp/perfbench-head" .)

# run <side> <pair>: one perfbench run from that side's tree; keeps the
# result line and the provenance record line before it.
run() {
	local side=$1 pair=$2 dir out
	dir=$root
	[ "$side" = base ] && dir=$tmp/base
	out=$(cd "$dir" && "$tmp/perfbench-$side" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0)
	echo "$out" | tail -1 >"$tmp/$side.$pair.json"
	echo "$out" | tail -2 | head -1 >"$tmp/$side.$pair.record.json"
	if ! jq -e '.correct == true' "$tmp/$side.$pair.json" >/dev/null; then
		echo "perfab: $side run of pair $pair is not correct:" >&2
		cat "$tmp/$side.$pair.json" >&2
		exit 1
	fi
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
	echo "perfab: pair $((i + 1))/$pairs done" >&2
done

# Gather each side's result lines in pair order and summarize them over
# BENCHMARK.json's end-to-end metrics.
for side in base head; do
	for ((i = 0; i < pairs; i++)); do cat "$tmp/$side.$i.json"; done | jq -s . >"$tmp/$side.all"
done
summary=$(jq -n \
	--slurpfile bench "$root/BENCHMARK.json" \
	--slurpfile b "$tmp/base.all" --slurpfile h "$tmp/head.all" \
	--slurpfile rec "$tmp/head.0.record.json" \
	--arg workload "$workload" --arg base "$base_commit" --arg head "$head_commit" \
	--argjson pairs "$pairs" --argjson seconds "$seconds" --argjson seed "$seed" '
	# Quantile by linear interpolation between order statistics.
	def q($p): sort as $s | ((($s | length) - 1) * $p) as $x | ($x | floor) as $i
		| if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
	def r: . * 1e4 | round / 1e4;
	def stats: {median: (q(0.5) | r), q1: (q(0.25) | r), q3: (q(0.75) | r), runs: map(r)};
	$b[0] as $bs | $h[0] as $hs | $rec[0].record as $record |
	{
		workload: $workload, seed: $seed, base: $base, head: $head, pairs: $pairs, seconds: $seconds,
		go: $record.go, cpu: $record.cpu, nproc: $record.nproc, gomaxprocs: $record.gomaxprocs,
		metrics: [$bench[0].end_to_end[] | .name as $m | .better as $dir | {
			key: $m,
			value: {
				unit: .unit, better: $dir,
				base: ([$bs[].metrics[$m].value] | stats),
				head: ([$hs[].metrics[$m].value] | stats),
				head_wins: ([range(0; $pairs) as $i | $bs[$i].metrics[$m].value as $x
					| $hs[$i].metrics[$m].value as $y
					| select(if $dir == "lower" then $y < $x else $y > $x end)] | length)
			}
		}] | from_entries
	}')

echo "perfab: $workload seed $seed, base $base_commit vs head $head_commit, $pairs pairs of ${seconds} s"
printf '%-20s %-6s %-32s %-32s %s\n' metric better "base median [q1 q3]" "head median [q1 q3]" "head wins"
echo "$summary" | jq -r '.metrics | to_entries[] | .value as $v |
	[.key, $v.better,
	 "\($v.base.median) [\($v.base.q1) \($v.base.q3)]",
	 "\($v.head.median) [\($v.head.q1) \($v.head.q3)]",
	 $v.head_wins] | @tsv' |
	while IFS=$'\t' read -r m dir b h w; do
		printf '%-20s %-6s %-32s %-32s %s\n' "$m" "$dir" "$b" "$h" "$w/$pairs"
	done
echo "$summary" | jq -c .
