#!/bin/sh
# wo litmus-file on inputs at its boundaries.  Each must exit 1 with a
# "FILE:" message: never an uncaught exception (exit 125) and never an
# allocation failure (exit 134, under a 2 GB address-space limit).
#
# Usage: sh litmus_file.sh PATH/TO/wo.exe
set -u
wo=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

expect_1() { # FILE FRAGMENT: exit 1, stderr names FILE and contains FRAGMENT
  out=$( (ulimit -v 2000000; "$wo" litmus-file "$1") 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "litmus-file $1: exit $code, expected 1: $out"
    status=1
  fi
  case "$out" in
  "$1:"*"$2"*) ;;
  *)
    echo "litmus-file $1: expected \"$1: ...$2...\", got: $out"
    status=1
    ;;
  esac
}

# Racy at its first events, but 82 events per execution: the SC
# search is beyond its 64-event bound.
{
  printf 'P0:'
  printf ' x := 1 ;%.0s' $(seq 40)
  printf ' r0 := y\nP1:'
  printf ' x := 1 ;%.0s' $(seq 40)
  printf ' r0 := x\n'
} > "$dir/long_racy.litmus"
expect_1 "$dir/long_racy.litmus" "cannot enumerate SC outcomes"

printf 'P0: x := 1 ; nop*100000000000\n' > "$dir/huge_nop.litmus"
expect_1 "$dir/huge_nop.litmus" "1: thread exceeds the limit of 65535 ops"

exit $status
