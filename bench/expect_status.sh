#!/bin/sh
# Runs a command and passes only when it exits with the given status. A
# failed run (status 1) must also print exactly one line on stderr, and a
# usage error (status 2) that line and nothing on stdout: the harness-flag
# ctests use it to check that a bad flag or a failed run ends the harness
# instead of being ignored or wrapped.
#
#   bench/expect_status.sh <status> <command> [args...]
want="$1"
shift
err="$(mktemp)"
out="$("$@" 2>"$err")"
got=$?
lines=$(wc -l < "$err")
rm -f "$err"
if [ "$got" -ne "$want" ] ||
   { [ "$want" -ne 0 ] && [ "$lines" -ne 1 ]; } ||
   { [ "$want" -eq 2 ] && [ -n "$out" ]; }; then
  echo "exit $got, $lines stderr line(s), want $want: $*" >&2
  exit 1
fi
