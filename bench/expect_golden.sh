#!/bin/sh
# Runs a harness and passes only when it exits 0 and its stdout equals a
# committed golden byte for byte; on a mismatch it prints the unified diff.
# The golden ctests use it.
#
#   bench/expect_golden.sh <golden> <command> [args...]
golden="$1"
shift
got="$(mktemp)"
trap 'rm -f "$got"' EXIT
"$@" > "$got" || {
  echo "exit $?, want 0: $*" >&2
  exit 1
}
diff -u "$golden" "$got"
