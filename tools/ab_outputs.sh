#!/usr/bin/env bash
# Compares what two builds of cvrepair_cli print and write over one grid of
# runs:
#
#   tools/ab_outputs.sh OLD_BUILD NEW_BUILD
#
# OLD_BUILD and NEW_BUILD are CMake build directories that hold
# tools/cvrepair_cli. They may be the same directory, which checks that
# every run repeats bit for bit. The grid, every cell at --threads 1 and 4:
#
#   inputs   hosp@24, hosp@60, census@300, census@1000, tax@300, and
#            dense@120 with --error-rate 0.3 --decompose 1;
#   repairs  cvtolerant and vfree under --strategy update, hybrid and
#            delete, then holistic and greedy;
#   streams  --stream-batches 8 and --serve-bench --stream-batches 8, each
#            frozen and with --reopen-variants 1.
#
# Each run compares its exit code, its stdout without timings (the time:,
# wall time:, latency and edits/sec lines, and the seconds that end the
# initial repair and batch lines), its --output CSV and its --metrics-out
# file. The script prints the run count and each difference, and exits 1
# on any difference (2 on a usage error).
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
clis=()
for build in "$1" "$2"; do
  if [ ! -x "$build/tools/cvrepair_cli" ]; then
    echo "$0: no executable $build/tools/cvrepair_cli" >&2
    exit 2
  fi
  # Absolute: every run starts in its own directory.
  clis+=("$(cd "$build/tools" && pwd)/cvrepair_cli")
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

inputs=(
  "--generate hosp --size 24"
  "--generate hosp --size 60"
  "--generate census --size 300"
  "--generate census --size 1000"
  "--generate tax --size 300"
  "--generate dense --size 120 --error-rate 0.3 --decompose 1"
)
modes=(
  "--algorithm cvtolerant --strategy update"
  "--algorithm cvtolerant --strategy hybrid"
  "--algorithm cvtolerant --strategy delete"
  "--algorithm vfree --strategy update"
  "--algorithm vfree --strategy hybrid"
  "--algorithm vfree --strategy delete"
  "--algorithm holistic"
  "--algorithm greedy"
  "--stream-batches 8"
  "--stream-batches 8 --reopen-variants 1"
  "--serve-bench --stream-batches 8"
  "--serve-bench --stream-batches 8 --reopen-variants 1"
)

# run CLI DIR ARGS...: one run in DIR, leaving exit_code, stdout (timings
# dropped), out.csv and metrics.json there.
run() {
  local cli="$1" dir="$2"
  shift 2
  mkdir -p "$dir"
  (
    cd "$dir" || exit 1
    "$cli" "$@" --output out.csv --metrics-out metrics.json \
      > stdout.raw 2> stderr.txt
    echo $? > exit_code
  )
  sed -E -e '/^(time|wall time|p50 latency|p99 latency|edits\/sec): /d' \
    -e 's/, [0-9.e+-]+s$//' "$dir/stdout.raw" > "$dir/stdout"
}

runs=0
differences=0
for input in "${inputs[@]}"; do
  for mode in "${modes[@]}"; do
    for threads in 1 4; do
      runs=$((runs + 1))
      args="$input $mode --threads $threads"
      # shellcheck disable=SC2086  # the grid's words are the arguments
      run "${clis[0]}" "$work/old/$runs" $args
      # shellcheck disable=SC2086
      run "${clis[1]}" "$work/new/$runs" $args
      for file in exit_code stdout out.csv metrics.json; do
        old="$work/old/$runs/$file"
        new="$work/new/$runs/$file"
        if [ ! -e "$old" ] && [ ! -e "$new" ]; then continue; fi
        if [ -e "$old" ] && [ -e "$new" ] && cmp -s "$old" "$new"; then
          continue
        fi
        differences=$((differences + 1))
        echo "DIFFERENT $file: cvrepair_cli $args"
        diff "$old" "$new" 2>&1 | head -n 6 | sed 's/^/    /'
      done
    done
  done
done
echo "$runs runs, $differences differences"
[ "$differences" -eq 0 ]
