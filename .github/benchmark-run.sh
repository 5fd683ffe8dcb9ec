#!/usr/bin/env bash
# One run of the frozen benchmark, for CI:
#
#   bash .github/benchmark-run.sh NAME ARGS...
#
# runs `totem-benchmark ARGS...`, writing its last-line JSON to
# benchmark-NAME.json and its stderr (the build's, then the run's table
# and flags) to benchmark-NAME.err. A run that exits non-zero or reads
# `"correct": false` appends its exit status, its flag lines
# (`VOID: ...`) and the last 50 lines of its stderr to the job summary,
# and exits 1; a sound run exits 0 and adds nothing.
set -u
name=$1
shift
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@" \
  > "benchmark-$name.json" 2> "benchmark-$name.err"
status=$?
if [ "$status" -eq 0 ] && ! grep -q '"correct": false' "benchmark-$name.json"; then
  exit 0
fi
{
  echo "### benchmark \`$name\` ($*): exit $status"
  echo '```'
  grep 'VOID:' "benchmark-$name.err" || echo '(no flag lines)'
  echo '--- last 50 lines of stderr ---'
  tail -n 50 "benchmark-$name.err"
  echo '```'
} >> "${GITHUB_STEP_SUMMARY:-/dev/stderr}"
exit 1
