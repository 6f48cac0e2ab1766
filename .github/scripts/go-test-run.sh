#!/usr/bin/env bash
# go-test-run.sh <go test flags and packages, including -run '<regex>'>
#
# `go test -run '<regex>'` exits 0 with "no tests to run" when the regex
# matches nothing, so a renamed or moved test silently drops out of any CI
# step that names it. This runs the same command with -v and fails unless at
# least one test actually started.
set -euo pipefail
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go test -v "$@" 2>&1 | tee "$out"
if ! grep -q '^=== RUN' "$out"; then
  echo "go test $*: the -run pattern matched no test" >&2
  exit 1
fi
