#!/bin/sh
# Export scan: every value a library interface exports must have a user
# outside its own module.
#
# For each `val NAME` in lib/**/*.mli of module M (file m.mli), some .ml
# file of lib/, bin/, test/ or bench/ other than m.ml must mention both
# the word M and the word NAME.  (A word match over-approximates use, so
# the scan never flags a value that is used; it can miss a dead one whose
# name recurs in a file that also names its module.)  Values kept on
# purpose are listed in the allowlist as `M.NAME  reason`; a listed name
# that has become used, or no longer exists, is reported too, so the list
# stays current.
#
# Usage: scripts/export_scan.sh [ROOT]    (default: the current directory)
# Exit 0 when every export is used or allowlisted, 1 otherwise.

set -eu
root=${1:-.}
cd "$root"
allow=scripts/export_allowlist.txt
[ -f "$allow" ] || allow=/dev/null

ml_files=$(find lib bin test bench -name '*.ml' | sort)
status=0
seen=""

for mli in $(find lib -name '*.mli' | sort); do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  own="${mli%.mli}.ml"
  users=$(grep -lw -- "$mod" $ml_files | grep -vx -- "$own" || true)
  for v in $(sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    seen="$seen $mod.$v"
    used=no
    if [ -n "$users" ] && grep -qw -- "$v" $users; then used=yes; fi
    listed=no
    if grep -q "^$mod\.$v[[:space:]]" "$allow"; then listed=yes; fi
    if [ $used = no ] && [ $listed = no ]; then
      echo "$mli: $mod.$v has no user outside its module"
      status=1
    elif [ $used = yes ] && [ $listed = yes ]; then
      echo "$allow: $mod.$v is used now; drop it from the list"
      status=1
    fi
  done
done

for name in $(sed -n 's/^\([A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_'"'"']*\)[[:space:]].*/\1/p' "$allow"); do
  case " $seen " in
    *" $name "*) ;;
    *) echo "$allow: $name is not exported by any lib/ interface"; status=1 ;;
  esac
done

[ $status = 0 ] && echo "export scan: every exported value has a user or an allowlist reason"
exit $status
