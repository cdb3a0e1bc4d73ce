#!/usr/bin/env bash
# run-filtered.sh '<Alt1|Alt2|...>' <package>...
#
# Runs `go test -race -count=1 -v -run <filter>` on the packages, after
# checking that every |-separated alternative of the filter still
# matches at least one test `go test -list` reports for them. A filter
# naming a deleted or renamed test otherwise selects nothing and the
# step passes silently.
set -euo pipefail
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
exec go test -race -count=1 -v -run "$filter" "$@"
