#!/bin/sh
# Runs a command and passes only when it exits with the given status. A
# status-2 run, a usage error, must also print nothing on stdout and
# exactly one line on stderr: the harness-flag ctests use it to check
# that a bad flag ends the harness instead of being ignored or wrapped.
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
   { [ "$want" -eq 2 ] && { [ -n "$out" ] || [ "$lines" -ne 1 ]; }; }; then
  echo "exit $got, $lines stderr line(s), want $want: $*" >&2
  exit 1
fi
