#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the checkout's root:
#
#   bash bench/run.sh --workload pairwise --seed 1 --seconds 20 --trace 0
#
# Every flag is passed on to the benchmark; "--trace 0|1" becomes
# "-trace=false|true". The Go build cache, the binary, the results file
# and the spans file all go under .bench_build in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go -C bench build -o "$out/wcq-bench" .

args=()
while (($#)); do
	case $1 in
	--trace | -trace)
		case ${2-} in
		0) args+=(-trace=false) ;;
		1) args+=(-trace=true) ;;
		*) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
		esac
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$out/wcq-bench" -out "$out/results.json" -trace-out "$out/spans.jsonl" "${args[@]}"
