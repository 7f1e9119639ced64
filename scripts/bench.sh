#!/usr/bin/env bash
# bench.sh — track the performance trajectory across PRs.
#
# Runs the substrate micro-benchmarks (BenchmarkSub*) and the Figure 6
# compilation-time benchmarks, then emits BENCH_<date>.json: one record
# per benchmark with ns/op, B/op, allocs/op and any custom metrics
# (sumII, fails, ...). Compare two files to see whether a PR moved the
# hot paths.
#
# Usage:
#   scripts/bench.sh                # writes BENCH_YYYY-MM-DD.json in the repo root
#   scripts/bench.sh out.json       # explicit output path
#   BENCHTIME=2000x scripts/bench.sh        # Fig6 -benchtime (default 1x)
#   MICRO_BENCHTIME=5000x scripts/bench.sh  # micro-bench -benchtime (default 500x)
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%F).json}"
benchtime="${BENCHTIME:-1x}"
# The substrate micro-benchmarks are sub-millisecond, so they run at a
# fixed iteration count: per-op metrics like the router's expansions/op
# need averaging over many calls (at 1x a single pruned call reads 0,
# which benchdiff cannot gate), and the fixed count keeps them
# deterministic for the diff.
micro_benchtime="${MICRO_BENCHTIME:-500x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running substrate micro-benchmarks (benchtime $micro_benchtime)..." >&2
# ./internal/core carries BenchmarkSubAmendScratch (the pooled amendment
# scratch is package-private, so its benchmark lives with the package).
go test -run '^$' -bench 'BenchmarkSub|BenchmarkFindPathCongested|BenchmarkFindPathShared|BenchmarkMRRGCacheHit|BenchmarkResultCacheHit' -benchmem \
	-benchtime "$micro_benchtime" -timeout 0 . ./internal/core | tee "$raw" >&2

echo "running Fig6 benchmarks (benchtime $benchtime)..." >&2
# -timeout 0: the Fig6 benchmarks run the full mappers, which at large
# -benchtime values outlives go test's default 10m limit.
go test -run '^$' -bench 'BenchmarkFig6' -benchmem \
	-benchtime "$benchtime" -timeout 0 . | tee -a "$raw" >&2

# Serial vs speculative II-sweep speedup: BenchmarkFig6SweepSpeculative
# is BenchmarkFig6_8x8r4_PF with a width-4 window and commits the same
# IIs/mappings, so the ns/op ratio is pure wall-clock reclaimed.
# (the -N procs suffix is absent when GOMAXPROCS=1)
serial_ns=$(awk '$1 ~ /^BenchmarkFig6_8x8r4_PF(-[0-9]+)?$/ {print $3; exit}' "$raw")
spec_ns=$(awk '$1 ~ /^BenchmarkFig6SweepSpeculative(-[0-9]+)?$/ {print $3; exit}' "$raw")
if [[ -n "${serial_ns:-}" && -n "${spec_ns:-}" ]]; then
	awk -v s="$serial_ns" -v p="$spec_ns" 'BEGIN {
		printf "II-sweep speculation (8x8r4 PF*, window 4): %.2fx speedup, %.1fs serial -> %.1fs speculative\n", s/p, s/1e9, p/1e9
	}' >&2
fi

# Portfolio racing overhead: BenchmarkFig6Portfolio races all three
# backends per kernel and commits each kernel's best II, so the
# quality-matched baseline is Rewire (the highest-priority lane — SA is
# faster in wall-clock only because it settles for worse IIs). Racing
# must cost barely more than running Rewire alone: the target is
# <= 1.1x its ns/op on the same 4x4r2 kernel set.
pf_ns=$(awk '$1 ~ /^BenchmarkFig6Portfolio(-[0-9]+)?$/ {print $3; exit}' "$raw")
rw_ns=$(awk '$1 ~ /^BenchmarkFig6_4x4r2_Rewire(-[0-9]+)?$/ {print $3; exit}' "$raw")
if [[ -n "${pf_ns:-}" && -n "${rw_ns:-}" ]]; then
	awk -v p="$pf_ns" -v r="$rw_ns" 'BEGIN {
		printf "portfolio racing (4x4r2): %.2fx Rewire alone (target <= 1.1x), %.1fs Rewire -> %.1fs portfolio, same-or-better IIs\n", p/r, r/1e9, p/1e9
	}' >&2
fi

# Result-cache hit vs cold compile: BenchmarkResultCacheHit reports the
# warm-hit ns/op plus a one-off cold_ns metric (the compile that
# populated the cache), so the ratio is the work a hit skips.
hit_ns=$(awk '$1 ~ /^BenchmarkResultCacheHit(-[0-9]+)?$/ {print $3; exit}' "$raw")
cold_ns=$(awk '$1 ~ /^BenchmarkResultCacheHit(-[0-9]+)?$/ {for (i=4; i<NF; i++) if ($(i+1) == "cold_ns") print $i}' "$raw")
if [[ -n "${hit_ns:-}" && -n "${cold_ns:-}" ]]; then
	awk -v h="$hit_ns" -v c="$cold_ns" 'BEGIN {
		printf "result-cache hit (fft 4x4r4): %.0fx speedup, %.2fs cold compile -> %.1fus warm hit\n", c/h, c/1e9, h/1e3
	}' >&2
fi

# Parse `go test -bench` lines into JSON. A line looks like:
#   BenchmarkSubRouter  2000  43163 ns/op  4015 B/op  249 allocs/op  3 sumII
go run ./scripts/benchjson "$raw" >"$out"
echo "wrote $out" >&2
