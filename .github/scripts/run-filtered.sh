#!/usr/bin/env bash
# run-filtered.sh [-count N] '<Alt1|Alt2|...>' <package>...
#
# Runs `go test -race -count=N -v -run <filter>` on the packages (N is 1
# unless given), after checking that every |-separated alternative of
# the filter still matches at least one test `go test -list` reports
# for them. A filter naming a deleted or renamed test otherwise selects
# nothing and the step passes silently. A count above 1 repeats every
# selected test, so an outcome that depends on the order concurrent
# calls happen to finish in fails the step instead of flaking later.
set -euo pipefail
count=1
if [[ ${1:-} == -count ]]; then
  count=$2
  shift 2
fi
filter=$1
shift
listed=$(go test -list '.*' "$@" | grep -E '^(Test|Fuzz|Benchmark|Example)')
IFS='|' read -ra alts <<<"$filter"
for alt in "${alts[@]}"; do
  if ! grep -Eq -- "$alt" <<<"$listed"; then
    echo "run filter alternative '$alt' matches no test in $*" >&2
    exit 1
  fi
done
exec go test -race -count="$count" -v -run "$filter" "$@"
