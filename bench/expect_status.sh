#!/bin/sh
# Runs a command and passes only when it exits with the given status.
#
#   bench/expect_status.sh <status> <command> [args...]
#
# The harness-flag ctests use it: a malformed numeric flag must end the
# harness with a usage error (status 2), not run with a wrapped value or
# abort through std::terminate.
want="$1"
shift
"$@" >/dev/null
got=$?
if [ "$got" -ne "$want" ]; then
  echo "exit status $got, want $want: $*" >&2
  exit 1
fi
