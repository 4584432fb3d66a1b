#!/bin/sh
# wo check is the one Definition-3 command: the exact search on
# loop-free tests, sampled schedules on tests with spin loops, and no
# separate `races' command.
#
# Usage: sh check.sh PATH/TO/wo.exe
set -u
wo=$1
status=0

expect() { # CODE FRAGMENT TEST: exit CODE, stdout contains FRAGMENT
  out=$("$wo" check "$3" 2>&1)
  code=$?
  if [ "$code" -ne "$1" ]; then
    echo "check $3: exit $code, expected $1"
    status=1
  fi
  case "$out" in
  *"$2"*) ;;
  *)
    echo "check $3: expected \"$2\" in: $out"
    status=1
    ;;
  esac
}

# Spin loops: 30 sampled schedules, each race-free.
expect 0 "sampling 30 schedules" message-passing-sync
expect 0 "no races found: consistent with DRF0" message-passing-sync
expect 0 "no races found: consistent with DRF0" figure3
# Loop-free and racy: the exact search prints one racy execution.
expect 2 "DRF0 violated" figure1

"$wo" races figure1 >/dev/null 2>&1
code=$?
if [ "$code" -ne 124 ]; then
  echo "races: exit $code, expected 124 (no such command)"
  status=1
fi
if "$wo" --help=plain | grep -q '^ *races '; then
  echo "wo --help still lists a races command"
  status=1
fi

exit $status
