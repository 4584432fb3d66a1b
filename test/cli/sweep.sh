#!/bin/sh
# wo sweep through the real binary: every line after the heading (the
# table and the verdict line) must equal the golden rows, at -j 1 and
# -j 2, with exit 0.  The heading carries the domain count and the wall
# time, so it is not compared.
#
# Usage: sh sweep.sh PATH/TO/wo.exe DEFAULT_GOLDEN PRESETS_GOLDEN
set -u
wo=$1
default_golden=$2
presets_golden=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

expect_rows() { # GOLDEN ARGS...: rows equal GOLDEN, exit 0
  golden=$1
  shift
  "$wo" sweep "$@" > "$dir/out" 2> "$dir/err"
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "sweep $*: exit $code, expected 0: $(cat "$dir/err")"
    status=1
  fi
  tail -n +4 "$dir/out" > "$dir/rows"
  if ! cmp -s "$dir/rows" "$golden"; then
    echo "sweep $*: rows differ from $golden:"
    diff "$golden" "$dir/rows" | head -20
    status=1
  fi
}

# The default machines at seeds 1-3 (one golden: the table counts
# distinct outcomes, and they agree at these seeds).
for seed in 1 2 3; do
  for j in 1 2; do
    expect_rows "$default_golden" -s "$seed" -j "$j"
  done
done

# Every preset machine, 40 runs from seed 2.
all=ideal,sc-bus-nocache,bus-nocache-wb,net-nocache,net-nocache-rp3,rp3-fence
all=$all,sc-dir,bus-cache,net-cache,wo-old,wo-new,wo-new-drf1,tso-wb,pso-wb
all=$all,ra-window
for j in 1 2; do
  expect_rows "$presets_golden" -m "$all" -n 40 -s 2 -j "$j"
done

exit $status
